"""Tests for the exception hierarchy and the public API surface."""

from __future__ import annotations

import pytest

import repro
from repro import exceptions


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in exceptions.__all__:
            cls = getattr(exceptions, name)
            assert issubclass(cls, exceptions.ReproError), name

    @pytest.mark.parametrize(
        "child,parent",
        [
            (exceptions.ParseError, exceptions.TopologyError),
            (exceptions.TableMissError, exceptions.DataPlaneError),
            (exceptions.ForwardingLoopError, exceptions.DataPlaneError),
            (exceptions.CapacityError, exceptions.ControlPlaneError),
            (exceptions.ScenarioError, exceptions.ControlPlaneError),
            (exceptions.InfeasibleError, exceptions.SolverError),
            (exceptions.UnboundedError, exceptions.SolverError),
            (exceptions.SolverTimeoutError, exceptions.SolverError),
            (exceptions.ValidationError, exceptions.SolutionError),
            (exceptions.ChaosError, exceptions.ReproError),
            (exceptions.DegradedResultWarning, exceptions.ReproError),
        ],
    )
    def test_specializations(self, child, parent):
        assert issubclass(child, parent)

    def test_degraded_result_warning_is_a_warning(self):
        """It must be issuable through ``warnings.warn``."""
        assert issubclass(exceptions.DegradedResultWarning, UserWarning)

    def test_catching_base_catches_everything(self):
        from repro.topology.graph import Topology

        with pytest.raises(exceptions.ReproError):
            Topology("t", {}, [])


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert major.isdigit() and minor.isdigit() and patch.isdigit()

    def test_module_docstring_quickstart_runs(self):
        """The usage snippet in the package docstring must stay valid."""
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_paper_algorithm_names_exported(self):
        registered = repro.list_algorithms()
        for name in ("pm", "optimal", "retroflow", "pg"):
            assert name in registered

    def test_haversine_doctest(self):
        import doctest

        from repro.geo import haversine as haversine_module

        results = doctest.testmod(haversine_module, verbose=False)
        assert results.failed == 0

    def test_att_doctest(self):
        import doctest

        from repro.topology import att as att_module

        results = doctest.testmod(att_module, verbose=False)
        assert results.failed == 0
