"""Machine-speed calibration: a fixed probe timed between requests.

The reference VM shares its host.  Within a second either vCPU can run
up to twice as slow, and for minutes at a time the same code runs 1.5x
slower or more: a fixed loop timed for 40 s spread by 44% between its
quartiles, so no amount of work per run steadies a raw wall time.  The
slowdown hits the probe and the program
alike, so every timed interval is scaled by the probe's reference time
over its time measured around the interval::

    scaled = raw * PROBE_REF_S / (median of the probes around it)

and reads as it would on the reference machine at its quiet speed.
Probes run between requests, at most every ``PROBE_EVERY_S``, never
inside one, so they lengthen the run but not the requests they scale.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence

import numpy as np

from spans import median

__all__ = ["PROBE_REF_S", "Prober", "probe", "scale"]

#: The probe's time on the reference machine at its quiet speed.
PROBE_REF_S = 0.0035
#: Minimum gap between two probes.
PROBE_EVERY_S = 0.1
#: Probes whose midpoint lies within this many seconds of an interval
#: scale it.
WINDOW_S = 0.3
#: Fewest probes that scale one interval; the nearest are taken when
#: the window holds fewer.
NEAREST = 3

_VALUES = [random.Random(0).random() for _ in range(15000)]
_TABLE = np.random.default_rng(0).random(1 << 20)  # 8 MB, beyond the L2 cache
_GATHER = np.random.default_rng(1).integers(0, _TABLE.size, 60_000)


def probe() -> float:
    """Seconds one fixed mix of work takes now.

    Two thirds interpreter work (dict updates and a sort, like the
    program's grounding) and one third memory-bound numpy work (a random
    gather over 8 MB and a sort, like the solver's sparse algebra).
    Either alone tracks only its kind of request: over a four-minute
    series, scaling by the first alone left the exact solver's
    throughput spread 1.6 times as wide, and scaling by the second alone
    left the recovery requests' median spread four times as wide.  It
    allocates no container the
    garbage collector tracks beyond a handful, so it does not move the
    program's collections.
    """
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i, value in enumerate(_VALUES):
        key = (i * 7919) % 5003
        table[key] = table.get(key, 0.0) + value
    sorted(_VALUES)
    np.sort(_TABLE[_GATHER])
    return time.perf_counter() - start


class Prober:
    """Probes taken during a run, as ``(midpoint, seconds)`` pairs."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._last = float("-inf")
        probe()  # warm up: first-call costs are not machine speed

    def now(self) -> None:
        """Take one probe."""
        start = time.perf_counter()
        seconds = probe()
        self.probes.append((start + seconds / 2, seconds))
        self._last = time.perf_counter()

    def due(self) -> None:
        """Take one probe if the last one is ``PROBE_EVERY_S`` old."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.now()


def scale(intervals: Sequence[tuple[float, float]], probes: Sequence[tuple[float, float]]
          ) -> list[float]:
    """Each ``(start, end)`` interval's length at reference speed: scaled
    by ``PROBE_REF_S`` over the median of the probes within ``WINDOW_S``
    of it (at least the ``NEAREST`` closest)."""
    if not probes:
        raise ValueError("no probes to scale by")
    scaled = []
    for start, end in intervals:
        def gap(p: tuple[float, float]) -> float:
            return max(start - p[0], p[0] - end, 0.0)

        near = [p[1] for p in probes if gap(p) <= WINDOW_S]
        if len(near) < NEAREST:
            near = [p[1] for p in sorted(probes, key=gap)[:NEAREST]]
        scaled.append((end - start) * PROBE_REF_S / median(near))
    return scaled
