"""Every example under ``examples/`` still imports.

Each example guards its ``main()``, so running a file under another
``__name__`` runs only its imports: a public name an example uses that
the package no longer exports fails here rather than silently.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
