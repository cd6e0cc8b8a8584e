"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists each public name with the module that defines it; the
module is imported the first time the name is read.  Importing a
package, or any module inside it, therefore loads only what that
import itself needs: ``import repro.experiments.runner`` does not load
the figure code, and ``import repro`` loads no subpackage at all.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are ``exports`` (``{defining module: names}``)."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | home.keys())

    return list(home), __getattr__, __dir__
