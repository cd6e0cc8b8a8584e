"""Control plane: controllers, domains, failures, and delays."""

from repro.control.controller import Controller, ControllerState
from repro.control.delay import DelayModel, ideal_recovery_delay
from repro.control.failures import (
    FailureScenario,
    enumerate_failure_scenarios,
    sample_failure_scenarios,
    successive_scenarios,
)
from repro.control.plane import ControlPlane

__all__ = [
    "Controller",
    "ControllerState",
    "ControlPlane",
    "FailureScenario",
    "enumerate_failure_scenarios",
    "sample_failure_scenarios",
    "successive_scenarios",
    "DelayModel",
    "ideal_recovery_delay",
]
