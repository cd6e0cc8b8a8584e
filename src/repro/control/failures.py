"""Controller failure scenarios.

The paper evaluates all combinations of one, two, and three simultaneous
controller failures out of six (Section VI-C) and notes that controllers
"may fail simultaneously or fail successively"; both are modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.control.plane import ControlPlane
from repro.exceptions import ScenarioError
from repro.types import ControllerId, NodeId

__all__ = [
    "FailureScenario",
    "enumerate_failure_scenarios",
    "sample_failure_scenarios",
    "successive_scenarios",
]


@dataclass(frozen=True)
class FailureScenario:
    """A set of simultaneously failed controllers.

    The scenario is independent of any particular control plane until
    resolved against one; :meth:`validate` checks consistency.
    """

    failed: frozenset[ControllerId]

    def __init__(self, failed: frozenset[ControllerId] | tuple[ControllerId, ...] | list[ControllerId]) -> None:
        object.__setattr__(self, "failed", frozenset(failed))
        if not self.failed:
            raise ScenarioError("a failure scenario needs at least one failed controller")

    @property
    def name(self) -> str:
        """Canonical name, e.g. ``"(13, 20)"``."""
        inner = ", ".join(str(c) for c in sorted(self.failed))
        return f"({inner})"

    @property
    def n_failures(self) -> int:
        """Number of failed controllers."""
        return len(self.failed)

    def validate(self, plane: ControlPlane) -> None:
        """Check the scenario against a control plane.

        Raises :class:`ScenarioError` for unknown controllers or when no
        controller would remain active.
        """
        known = set(plane.controller_ids)
        unknown = self.failed - known
        if unknown:
            raise ScenarioError(f"unknown failed controllers: {sorted(unknown)}")
        if self.failed >= known:
            raise ScenarioError("at least one controller must remain active")

    def resolve(
        self, plane: ControlPlane
    ) -> tuple[tuple[ControllerId, ...], tuple[NodeId, ...]]:
        """Validate once and return ``(active controllers, offline switches)``.

        Both are sorted; see :meth:`active_controllers` and
        :meth:`offline_switches`.
        """
        self.validate(plane)
        active = tuple(c for c in plane.controller_ids if c not in self.failed)
        offline: list[NodeId] = []
        for controller_id in sorted(self.failed):
            offline.extend(plane.domain(controller_id))
        return active, tuple(sorted(offline))

    def active_controllers(self, plane: ControlPlane) -> tuple[ControllerId, ...]:
        """Sorted ids of controllers that remain active."""
        return self.resolve(plane)[0]

    def offline_switches(self, plane: ControlPlane) -> tuple[NodeId, ...]:
        """Sorted switches whose controller failed — the paper's set S."""
        return self.resolve(plane)[1]

    def __str__(self) -> str:
        return f"FailureScenario{self.name}"


def enumerate_failure_scenarios(
    plane: ControlPlane, n_failures: int
) -> list[FailureScenario]:
    """All combinations of ``n_failures`` simultaneous failures.

    For the paper's six controllers this yields 6 singles, 15 pairs and
    20 triples.  Scenarios are ordered lexicographically by failed ids.
    """
    ids = plane.controller_ids
    if not (1 <= n_failures < len(ids)):
        raise ScenarioError(
            f"n_failures must be in [1, {len(ids) - 1}]: {n_failures!r}"
        )
    return [FailureScenario(frozenset(c)) for c in combinations(ids, n_failures)]


def sample_failure_scenarios(
    plane: ControlPlane,
    n_failures: int,
    n_samples: int,
    seed: int = 0,
) -> list[FailureScenario]:
    """Sample distinct failure combinations uniformly without replacement.

    For control planes with many controllers, exhaustive enumeration
    (C(M, k) combinations) is too large; scalability studies sample
    instead.  ``n_samples`` is capped at the number of combinations.
    """
    import math
    import random

    ids = plane.controller_ids
    if not (1 <= n_failures < len(ids)):
        raise ScenarioError(
            f"n_failures must be in [1, {len(ids) - 1}]: {n_failures!r}"
        )
    if n_samples < 1:
        raise ScenarioError(f"n_samples must be positive: {n_samples!r}")
    total = math.comb(len(ids), n_failures)
    if n_samples >= total:
        return enumerate_failure_scenarios(plane, n_failures)
    rng = random.Random(seed)
    seen: set[frozenset[ControllerId]] = set()
    while len(seen) < n_samples:
        seen.add(frozenset(rng.sample(ids, n_failures)))
    return [FailureScenario(failed) for failed in sorted(seen, key=sorted)]


def successive_scenarios(
    order: list[ControllerId] | tuple[ControllerId, ...],
) -> Iterator[FailureScenario]:
    """Scenarios for controllers failing one after another.

    Yields the growing failure set after each successive failure:
    ``[5, 13]`` yields ``(5)`` then ``(5, 13)``.  Recovery is recomputed
    from scratch at each stage, matching the paper's model where each
    failure state is solved independently.
    """
    if len(set(order)) != len(order):
        raise ScenarioError(f"duplicate controller in failure order: {list(order)}")
    failed: set[ControllerId] = set()
    for controller_id in order:
        failed.add(controller_id)
        yield FailureScenario(frozenset(failed))
