"""In-memory spans for the traced benchmark run, and the statistics the
harness reports.

A span records its name, start and end (``time.perf_counter`` seconds),
the span that was open when it started (its parent) and a trace id that
every span of one request or sweep shares.  Spans stay in memory and
are written as JSONL once the child process is done, so the timed loop
never touches the disk.  Garbage-collection pauses are recorded as
``runtime.gc`` spans nested under whatever span was open, which keeps
them out of that layer's self time.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from collections import defaultdict
from collections.abc import Iterable, Sequence
from contextlib import contextmanager

__all__ = ["Tracer", "percentile", "percentile_supported", "self_times", "median"]

#: Samples that must lie beyond a reported percentile.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile_supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least ten beyond the ``q``-th
    nearest-rank percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) >= MIN_SAMPLES_BEYOND


def median(values: Sequence[float]) -> float:
    """The median of ``values`` (mean of the middle two when even)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


class Tracer:
    """Records spans of the current process; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[tuple[int, int]] = []  # open (span id, trace id)
        self._next_id = 0
        self._pid = os.getpid()
        self._gc_start = 0.0
        self.gc_pauses: list[tuple[int, float]] = []  # (generation, seconds)

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record(self, sid: int, name: str, start: float, end: float, attrs: dict) -> None:
        parent, trace = self._stack[-1] if self._stack else (None, None)
        self.spans.append({
            "id": sid, "parent": parent, "trace": sid if trace is None else trace,
            "name": name, "start": start, "end": end, **attrs,
        })

    def add(self, name: str, start: float, end: float, **attrs: object) -> None:
        """Record a span measured elsewhere, under the open span if any."""
        self._record(self._new_id(), name, start, end, attrs)

    @contextmanager
    def span(self, name: str, **attrs: object):
        """Time the enclosed block as one span."""
        sid = self._new_id()
        trace = self._stack[-1][1] if self._stack else sid
        self._stack.append((sid, trace))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, name, start, end, attrs)

    # -- garbage collector hook ----------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        # Forked pool workers inherit the callback list; only the
        # process that installed the hook records.
        if os.getpid() != self._pid:
            return
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        self.gc_pauses.append((info["generation"], now - self._gc_start))
        self.add("runtime.gc", self._gc_start, now, generation=info["generation"])

    def install_gc_hook(self) -> None:
        gc.callbacks.append(self._on_gc)

    def remove_gc_hook(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write_jsonl(self, path: str | os.PathLike, **common: object) -> None:
        """Write every span as one JSON line, with ``common`` merged in."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**common, **span}) + "\n")


def self_times(spans: Iterable[dict]) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self time in seconds, number of spans).

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Children are matched by ``parent`` id
    within the same ``(workload, child)`` process, so ids from different
    processes never collide.
    """
    spans = list(spans)
    children: dict[tuple, list[dict]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[(span.get("workload"), span.get("child"), span["parent"])].append(span)
    out: dict[str, tuple[float, int]] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        kids = children.get((span.get("workload"), span.get("child"), span["id"]), ())
        for kid in sorted(kids, key=lambda k: k["start"]):
            lo, hi = max(kid["start"], cursor), min(kid["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total, count = out.get(span["name"], (0.0, 0))
        out[span["name"]] = (total + (end - start) - covered, count + 1)
    return out
