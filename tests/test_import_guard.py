"""``scipy.optimize`` loads only when an LP or a MILP actually runs,
``scipy.sparse`` only when a standard form is built for one, and
``networkx`` never (it is a test-only dependency).

Importing them costs a cold process about half a second, and neither
PM nor an exact solve that certifies from its seed needs them; networkx
alone cost 0.1 s and 18 MB.

Package ``__init__``s resolve their names lazily, so an import loads
only what it needs: ``import repro.experiments.runner`` loads neither
the process pool nor the figure, TE, data-plane or simulation code.
And a request loads nothing: every module it runs was loaded by the
set-up of the benchmark's child process, so no import lands in a
request's latency.

The checks run in fresh interpreters, since this test process has long
since imported everything.
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
pool_or_analysis = {}
import repro
sparse_loaded["import repro"] = "scipy.sparse" in sys.modules
networkx_loaded["import repro"] = "networkx" in sys.modules
pool_or_analysis["import repro"] = sorted(set(NOT_ON_THE_REQUEST_PATH) & set(sys.modules))
import repro.pm
pm_imports_sweep = "repro.perf.sweep" in sys.modules
import repro.experiments.runner
sparse_loaded["import repro.experiments.runner"] = "scipy.sparse" in sys.modules
networkx_loaded["import repro.experiments.runner"] = "networkx" in sys.modules
pool_or_analysis["import repro.experiments.runner"] = sorted(
    set(NOT_ON_THE_REQUEST_PATH) & set(sys.modules)
)
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
compiler_loaded = "repro.perf.compile" in sys.modules
report = {
    "pm_feasible": pm.solutions["pm"].feasible,
    "wan_pm_solved": "pm" in wan_pm.solutions,
    "precert_solver": precert.meta["solver"],
    "optimize_loaded": "scipy.optimize" in sys.modules,
    "sparse_loaded": sparse_loaded,
    "networkx_loaded": networkx_loaded,
    "pool_or_analysis": pool_or_analysis,
    "pm_imports_sweep": pm_imports_sweep,
    "compiler_loaded": compiler_loaded,
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


#: The benchmark child's set-up (``benchmarks/e2e/child.py``): its four
#: imports, both networks' contexts and filled tables, and an open store.
#: Then one request of each kind the benchmark times, each recording the
#: modules it added.
_REQUEST_CHILD = r"""
import json
import sys

sys.path.insert(0, BENCH_E2E)
from repro.experiments.runner import run_scenario
from repro.perf.store import SolveStore
from repro.perf.sweep import parallel_sweep
from repro.resilience.validate import validate_solution
from workloads import OPTIMAL_TIME_LIMIT_S, WORKLOADS, build_context

from repro.control.failures import FailureScenario

att = build_context("att")
att.materialize_table()
wan = build_context("wan")
wan.materialize_table()
store = SolveStore(STORE_DIR)
failed = wan.plane.controller_ids


def store_sweep():
    return parallel_sweep(
        wan, [FailureScenario(frozenset(failed[2:4]))], ("pm",),
        optimal_time_limit_s=OPTIMAL_TIME_LIMIT_S, store=store,
    )[0]


requests = {
    "ATT paper request": lambda: run_scenario(
        att, FailureScenario(frozenset({13})), WORKLOADS["att-paper"].algorithms,
        optimal_time_limit_s=OPTIMAL_TIME_LIMIT_S,
    ),
    "WAN-72 PM request": lambda: run_scenario(
        wan, FailureScenario(frozenset(failed[:2])), ("pm",)
    ),
    "store sweep, miss": store_sweep,
    "store sweep, hit": store_sweep,
}
added, solved = {}, {}
for name, request in requests.items():
    before = set(sys.modules)
    result = request()
    added[name] = sorted(set(sys.modules) - before)
    solved[name] = [sorted(result.solutions), result.meta.get("store", {}).get("hits", [])]
print(json.dumps({"added": added, "solved": solved}))
"""


def _run_child(code: str, **constants: object) -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    constants["BENCH_E2E"] = os.path.join(os.path.dirname(src), "benchmarks", "e2e")
    prefix = "".join(f"{name} = {value!r}\n" for name, value in constants.items())
    out = subprocess.run(
        [sys.executable, "-c", prefix + code],
        capture_output=True, text=True, check=True, timeout=300, env=env,
    )
    return json.loads(out.stdout.splitlines()[-1])


#: Modules no import on a request's path may load: the process pool
#: and everything only the analysis commands use.
NOT_ON_THE_REQUEST_PATH = (
    "concurrent.futures",
    "multiprocessing",
    "repro.experiments.figures",
    "repro.experiments.ablation",
    "repro.experiments.report",
    "repro.te",
    "repro.dataplane",
    "repro.simulation",
    "repro.topology.zoo",
)


@pytest.fixture(scope="module")
def report():
    return _run_child(_CHILD, NOT_ON_THE_REQUEST_PATH=NOT_ON_THE_REQUEST_PATH)


@pytest.fixture(scope="module")
def requests_report(tmp_path_factory):
    return _run_child(_REQUEST_CHILD, STORE_DIR=str(tmp_path_factory.mktemp("store")))


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


def test_pm_and_precertified_exact_solve_leave_the_compiler_unloaded(report):
    assert report["precert_solver"] == "precert"
    assert report["compiler_loaded"] is False


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


def test_imports_leave_the_pool_and_the_analysis_code_unloaded(report):
    assert report["pool_or_analysis"] == {
        "import repro": [],
        "import repro.experiments.runner": [],
    }


def test_pm_does_not_import_the_sweep(report):
    assert report["pm_imports_sweep"] is False


def test_a_request_after_child_set_up_imports_nothing(requests_report):
    assert requests_report["solved"] == {
        "ATT paper request": [["optimal", "pg", "pm", "retroflow"], []],
        "WAN-72 PM request": [["pm"], []],
        "store sweep, miss": [["pm"], []],
        "store sweep, hit": [["pm"], ["pm"]],
    }
    assert requests_report["added"] == {
        "ATT paper request": [],
        "WAN-72 PM request": [],
        "store sweep, miss": [],
        "store sweep, hit": [],
    }
