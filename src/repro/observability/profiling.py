"""Lightweight phase timers for kernel-level breakdowns.

:class:`PhaseTimers` accumulates wall time per engine phase using
``time.perf_counter_ns`` — cheap enough to span the fastcore boundary
(a compiled kernel call costs microseconds; a timer sample costs tens
of nanoseconds) so a caller such as ``layerbench/`` (``--trace 1``) can
attribute time to *lookout / advance / completions / events / schedule /
apply* without cProfile's per-call tracing overhead distorting exactly
the loops being measured.

Usage at an instrumentation point (the disabled path is one attribute
check, matching the tracer/metrics contract)::

    timers = self._timers
    if timers is not None:
        _t0 = perf_counter_ns()
    ... work ...
    if timers is not None:
        timers.add("advance", perf_counter_ns() - _t0)

Timers measure *wall* time of the instrumented code; they never touch
simulation state, so enabling them cannot perturb results.
"""

from __future__ import annotations

import time
from typing import Any, Mapping


class PhaseTimers:
    """Per-phase call counts and accumulated wall time (ns)."""

    __slots__ = ("phases", "started_wall", "started_ns", "stopped_ns")

    def __init__(self) -> None:
        #: phase -> [calls, total_ns, min_ns, max_ns]
        self.phases: dict[str, list[float]] = {}
        #: wall-clock epoch seconds at :meth:`start` (``None`` until then)
        self.started_wall: "float | None" = None
        self.started_ns: "int | None" = None
        self.stopped_ns: "int | None" = None

    # ---- run envelope ------------------------------------------------------

    def start(self) -> None:
        """Mark the start of the run envelope (wall + monotonic)."""
        if self.started_ns is None:
            self.started_wall = time.time()
            self.started_ns = time.perf_counter_ns()

    def stop(self) -> None:
        """Mark the end of the run envelope."""
        self.stopped_ns = time.perf_counter_ns()

    @property
    def elapsed_s(self) -> float:
        """Run-envelope elapsed seconds (0.0 if never started)."""
        if self.started_ns is None:
            return 0.0
        end = (self.stopped_ns if self.stopped_ns is not None
               else time.perf_counter_ns())
        return (end - self.started_ns) / 1e9

    # ---- phase accumulation ------------------------------------------------

    def add(self, phase: str, elapsed_ns: int) -> None:
        cell = self.phases.get(phase)
        if cell is None:
            self.phases[phase] = [1, elapsed_ns, elapsed_ns, elapsed_ns]
            return
        cell[0] += 1
        cell[1] += elapsed_ns
        if elapsed_ns < cell[2]:
            cell[2] = elapsed_ns
        if elapsed_ns > cell[3]:
            cell[3] = elapsed_ns

    # ---- reporting ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "elapsed_s": self.elapsed_s,
            "started_wall": self.started_wall,
            "phases": {
                name: {"calls": int(c[0]), "total_ns": int(c[1]),
                       "min_ns": int(c[2]), "max_ns": int(c[3])}
                for name, c in self.phases.items()
            },
        }

    def merge(self, other: "PhaseTimers | Mapping[str, Any]") -> None:
        phases = (other.phases if isinstance(other, PhaseTimers)
                  else {name: [d["calls"], d["total_ns"],
                               d["min_ns"], d["max_ns"]]
                        for name, d in other.get("phases", {}).items()})
        for name, cell in phases.items():
            mine = self.phases.get(name)
            if mine is None:
                self.phases[name] = list(cell)
                continue
            mine[0] += cell[0]
            mine[1] += cell[1]
            if cell[2] < mine[2]:
                mine[2] = cell[2]
            if cell[3] > mine[3]:
                mine[3] = cell[3]

    def report(self) -> str:
        """Human-readable breakdown, widest phase first."""
        lines = ["phase                 calls     total_ms    mean_us"]
        total_ns = sum(c[1] for c in self.phases.values()) or 1
        order = sorted(self.phases.items(), key=lambda kv: -kv[1][1])
        for name, (calls, total, _lo, _hi) in order:
            mean_us = total / calls / 1e3 if calls else 0.0
            share = 100.0 * total / total_ns
            lines.append(
                f"{name:<20} {int(calls):>6} {total / 1e6:>12.3f} "
                f"{mean_us:>10.2f}  ({share:4.1f}%)"
            )
        if self.started_ns is not None:
            lines.append(f"run envelope: {self.elapsed_s:.3f}s wall")
        return "\n".join(lines)

    # Like tracers, timers are live-session attachments: snapshots and
    # checkpoints drop them rather than deep-copying monotonic anchors.
    def __deepcopy__(self, memo: dict) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseTimers(phases={sorted(self.phases)})"
