"""``scipy.optimize`` loads only when an LP or a MILP actually runs,
``scipy.sparse`` only when a standard form is built for one, and
``networkx`` never (it is a test-only dependency).

Importing them costs a cold process about half a second, and neither
PM nor an exact solve that certifies from its seed needs them; networkx
alone cost 0.1 s and 18 MB.  The check runs in a fresh interpreter,
since this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

_CHILD = r"""
import json
import sys

sparse_loaded = {}
networkx_loaded = {}
import repro
sparse_loaded["import repro"] = "scipy.sparse" in sys.modules
networkx_loaded["import repro"] = "networkx" in sys.modules
import repro.experiments.runner
sparse_loaded["import repro.experiments.runner"] = "scipy.sparse" in sys.modules
networkx_loaded["import repro.experiments.runner"] = "networkx" in sys.modules
from repro.control.failures import FailureScenario
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import custom_context, default_att_context
from repro.fmssm.optimal import solve_optimal
from repro.topology.generators import ring_topology

att = default_att_context()
pm = run_scenario(att, FailureScenario(frozenset({13, 20})), algorithms=("pm",))
sparse_loaded["ATT PM request"] = "scipy.sparse" in sys.modules
networkx_loaded["ATT PM request"] = "networkx" in sys.modules
# The benchmark's WAN-72 network, set up as its children do.
sys.path.insert(0, BENCH_E2E)
from workloads import wan_context

wan = wan_context()
wan.materialize_table()
wan_pm = run_scenario(wan, FailureScenario(frozenset(wan.plane.controller_ids[:2])), algorithms=("pm",))
networkx_loaded["WAN-72 context, table and PM request"] = "networkx" in sys.modules
precert = solve_optimal(att.instance(FailureScenario(frozenset({6}))))
sparse_loaded["precertified exact solve"] = "scipy.sparse" in sys.modules
networkx_loaded["precertified exact solve"] = "networkx" in sys.modules
report = {
    "pm_feasible": pm.solutions["pm"].feasible,
    "wan_pm_solved": "pm" in wan_pm.solutions,
    "precert_solver": precert.meta["solver"],
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "sparse_loaded": sparse_loaded,
    "networkx_loaded": networkx_loaded,
}
# The certificate misses on this instance, so the MILP really runs.
ring = custom_context(
    ring_topology(10, chords=5, seed=7), controller_sites=(0, 3, 7), capacity=135
)
miss = ring.instance(FailureScenario(frozenset({0, 3})))
solution = solve_optimal(miss, time_limit_s=60.0)
report["highs"] = [solution.meta["solver"], solution.meta["objective"]]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    bench_e2e = os.path.join(os.path.dirname(src), "benchmarks", "e2e")
    out = subprocess.run(
        [sys.executable, "-c", f"BENCH_E2E = {bench_e2e!r}\n" + _CHILD],
        capture_output=True, text=True, check=True, timeout=300, env=env,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_pm_and_precertified_exact_solve_leave_scipy_optimize_unloaded(report):
    assert report["pm_feasible"]
    assert report["precert_solver"] == "precert"
    assert report["optimize_loaded"] is False


def test_imports_pm_and_precertified_exact_solve_leave_scipy_sparse_unloaded(report):
    assert report["sparse_loaded"] == {
        "import repro": False,
        "import repro.experiments.runner": False,
        "ATT PM request": False,
        "precertified exact solve": False,
    }


def test_networkx_is_never_imported(report):
    assert report["wan_pm_solved"]
    assert report["networkx_loaded"] == {
        "import repro": False,
        "import repro.experiments.runner": False,
        "ATT PM request": False,
        "WAN-72 context, table and PM request": False,
        "precertified exact solve": False,
    }


@pytest.mark.parametrize("solver", ["highs"])
def test_milp_solvers_still_reach_the_optimum(report, solver):
    route, objective = report[solver]
    assert route == solver
    assert objective == pytest.approx(337 / 137)
