"""ProgrammabilityMedic (PM) — ICDCS 2021 reproduction.

Predictable path programmability recovery under multiple controller
failures in SD-WANs: the FMSSM problem, the PM heuristic (Algorithm 1),
the Optimal/RetroFlow/PG baselines, and the full simulation substrate
(geographic topologies, flows, hybrid SDN/legacy data plane, control
plane, MILP layer).

Quickstart
----------
>>> from repro import default_att_context, FailureScenario, solve_pm, evaluate_solution
>>> context = default_att_context()
>>> instance = context.instance(FailureScenario(frozenset({13, 20})))
>>> evaluation = evaluate_solution(instance, solve_pm(instance))
>>> evaluation.least_programmability >= 2
True
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines": (
            "get_algorithm",
            "list_algorithms",
            "register_algorithm",
            "solve_nearest",
            "solve_pg",
            "solve_retroflow",
            "solve_retroflow_ip",
        ),
        "repro.control": (
            "ControlPlane",
            "Controller",
            "ControllerState",
            "DelayModel",
            "FailureScenario",
            "enumerate_failure_scenarios",
            "ideal_recovery_delay",
            "successive_scenarios",
        ),
        "repro.dataplane": ("NetworkDataPlane", "Packet", "SwitchMode"),
        "repro.exceptions": ("ReproError",),
        "repro.experiments": (
            "ExperimentContext",
            "custom_context",
            "default_att_context",
            "fig4_data",
            "fig5_data",
            "fig6_data",
            "fig7_data",
            "headline_ratios",
            "run_failure_sweep",
            "run_scenario",
            "table3_data",
        ),
        "repro.flows": (
            "Flow",
            "all_pairs_flows",
            "gravity_demands",
            "switch_flow_counts",
        ),
        "repro.fmssm": (
            "FMSSMInstance",
            "GroundingIndex",
            "RecoveryEvaluation",
            "RecoverySolution",
            "build_instance",
            "evaluate_batch",
            "evaluate_solution",
            "solve_optimal",
            "solve_two_stage",
            "verify_solution",
        ),
        "repro.pm": ("ProgrammabilityMedic", "solve_pm"),
        "repro.simulation": (
            "Simulator",
            "TimelineParameters",
            "TimelineReport",
            "simulate_recovery_timeline",
        ),
        "repro.te": (
            "TrafficEngineer",
            "betweenness_capacities",
            "controllable_nodes",
            "max_link_utilization",
            "programmable_switches",
            "uniform_capacities",
        ),
        "repro.routing": (
            "LoopFreeAlternateCounter",
            "ProgrammabilityModel",
            "k_shortest_paths",
            "make_counter",
        ),
        "repro.topology": (
            "Topology",
            "att_topology",
            "grid_topology",
            "load_zoo_topology",
            "ring_topology",
            "waxman_topology",
        ),
    },
)

__version__ = "1.0.0"
__all__.insert(0, "__version__")
