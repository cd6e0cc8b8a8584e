"""Control plane: controllers, domains, failures, and delays."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.control.controller": ("Controller", "ControllerState"),
        "repro.control.delay": ("DelayModel", "ideal_recovery_delay"),
        "repro.control.failures": (
            "FailureScenario",
            "enumerate_failure_scenarios",
            "sample_failure_scenarios",
            "successive_scenarios",
        ),
        "repro.control.plane": ("ControlPlane",),
    },
)
