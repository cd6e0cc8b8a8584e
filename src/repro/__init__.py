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

from repro.baselines import (
    get_algorithm,
    list_algorithms,
    register_algorithm,
    solve_nearest,
    solve_pg,
    solve_retroflow,
    solve_retroflow_ip,
)
from repro.control import (
    ControlPlane,
    Controller,
    ControllerState,
    DelayModel,
    FailureScenario,
    enumerate_failure_scenarios,
    ideal_recovery_delay,
    successive_scenarios,
)
from repro.dataplane import NetworkDataPlane, Packet, SwitchMode
from repro.exceptions import ReproError
from repro.experiments import (
    ExperimentContext,
    custom_context,
    default_att_context,
    fig4_data,
    fig5_data,
    fig6_data,
    fig7_data,
    headline_ratios,
    run_failure_sweep,
    run_failure_sweep_parallel,
    run_scenario,
    table3_data,
)
from repro.flows import Flow, all_pairs_flows, gravity_demands, switch_flow_counts
from repro.fmssm import (
    FMSSMInstance,
    GroundingIndex,
    RecoveryEvaluation,
    RecoverySolution,
    build_instance,
    evaluate_batch,
    evaluate_solution,
    solve_optimal,
    solve_two_stage,
    verify_solution,
)
from repro.pm import ProgrammabilityMedic, solve_pm
from repro.simulation import (
    Simulator,
    TimelineParameters,
    TimelineReport,
    simulate_recovery_timeline,
)
from repro.te import (
    TrafficEngineer,
    betweenness_capacities,
    controllable_nodes,
    max_link_utilization,
    programmable_switches,
    uniform_capacities,
)
from repro.routing import (
    LoopFreeAlternateCounter,
    ProgrammabilityModel,
    k_shortest_paths,
    make_counter,
)
from repro.topology import (
    Topology,
    att_topology,
    grid_topology,
    load_zoo_topology,
    ring_topology,
    waxman_topology,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    # topology
    "Topology",
    "att_topology",
    "ring_topology",
    "grid_topology",
    "waxman_topology",
    "load_zoo_topology",
    # flows & routing
    "Flow",
    "all_pairs_flows",
    "gravity_demands",
    "switch_flow_counts",
    "k_shortest_paths",
    "make_counter",
    "LoopFreeAlternateCounter",
    "ProgrammabilityModel",
    # control plane
    "Controller",
    "ControllerState",
    "ControlPlane",
    "FailureScenario",
    "enumerate_failure_scenarios",
    "successive_scenarios",
    "DelayModel",
    "ideal_recovery_delay",
    # data plane
    "Packet",
    "SwitchMode",
    "NetworkDataPlane",
    # FMSSM & algorithms
    "FMSSMInstance",
    "build_instance",
    "GroundingIndex",
    "RecoverySolution",
    "RecoveryEvaluation",
    "evaluate_solution",
    "evaluate_batch",
    "verify_solution",
    "solve_optimal",
    "solve_two_stage",
    "solve_pm",
    "ProgrammabilityMedic",
    "solve_retroflow",
    "solve_retroflow_ip",
    "solve_pg",
    "solve_nearest",
    "get_algorithm",
    "register_algorithm",
    "list_algorithms",
    # simulation
    "Simulator",
    "TimelineParameters",
    "TimelineReport",
    "simulate_recovery_timeline",
    # traffic engineering
    "TrafficEngineer",
    "uniform_capacities",
    "betweenness_capacities",
    "max_link_utilization",
    "programmable_switches",
    "controllable_nodes",
    # experiments
    "ExperimentContext",
    "default_att_context",
    "custom_context",
    "run_scenario",
    "run_failure_sweep",
    "run_failure_sweep_parallel",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "headline_ratios",
    "table3_data",
]
