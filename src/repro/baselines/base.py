"""Common interface and registry for recovery algorithms.

Every algorithm — PM, Optimal, and the baselines — is exposed behind the
same callable protocol so the experiment runner treats them uniformly.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.fmssm.instance import FMSSMInstance
from repro.fmssm.solution import RecoverySolution

__all__ = [
    "RecoveryAlgorithm",
    "TIME_LIMITED_ALGORITHMS",
    "register_algorithm",
    "get_algorithm",
    "list_algorithms",
    "run_algorithm",
]


class RecoveryAlgorithm(Protocol):
    """A recovery algorithm: instance in, solution out."""

    def __call__(self, instance: FMSSMInstance) -> RecoverySolution: ...


_REGISTRY: dict[str, Callable[[FMSSMInstance], RecoverySolution]] = {}

#: The exact algorithms.  Each takes a ``time_limit_s``, which
#: :func:`run_algorithm` passes on; a sweep fans out over the process
#: pool only when it holds one, and the solve store keys their records
#: on the limit.
TIME_LIMITED_ALGORITHMS = frozenset({"optimal", "optimal-two-stage", "retroflow-ip"})


def register_algorithm(
    name: str, algorithm: Callable[[FMSSMInstance], RecoverySolution]
) -> None:
    """Register ``algorithm`` under ``name`` (overwrites silently)."""
    _REGISTRY[name] = algorithm


def get_algorithm(name: str) -> Callable[[FMSSMInstance], RecoverySolution]:
    """Look up a registered algorithm by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_algorithms() -> tuple[str, ...]:
    """Names of all registered algorithms, sorted."""
    return tuple(sorted(_REGISTRY))


def run_algorithm(
    instance: FMSSMInstance, name: str, time_limit_s: float | None
) -> RecoverySolution:
    """Run the algorithm registered as ``name`` on ``instance``.

    An exact algorithm (:data:`TIME_LIMITED_ALGORITHMS`) runs under
    ``time_limit_s``; the heuristics take no limit.
    """
    algorithm = get_algorithm(name)
    if name in TIME_LIMITED_ALGORITHMS:
        return algorithm(instance, time_limit_s=time_limit_s)
    return algorithm(instance)
