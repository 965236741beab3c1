"""Table 2 — scheduler overhead (§7.3), measured on this implementation.

The paper's Table 2 reports the C++ coordinator's CPU/memory and, most
importantly for the design argument, the schedule-computation latency and
its breakdown: ordering (per-flow thresholds + LCoF) accounts for *less
than half* of the compute time, with most of the rest in work-conservation
rate assignment, and the whole computation fits comfortably inside the
δ = 8 ms interval.

We reproduce the *structure* of that claim on our Python scheduler: build a
busy snapshot (many concurrent coflows), time ``schedule()`` end-to-end and
its phases, and report average / P90 along with peak memory via
``tracemalloc``. The rounds are timed with tracing off and the peak memory
comes from a separate traced pass, since ``tracemalloc`` would otherwise
account for most of the milliseconds. The snapshot is a hand-built state,
whose flow table runs the pure-Python kernels. Absolute milliseconds are
Python-vs-C++ and are expected to differ; the breakdown proportions are
the reproducible quantity.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from ..analysis.report import format_table
from ..config import SimulationConfig
from ..core.contention import contention_counts
from ..core.saath import SaathScheduler
from ..simulator.state import ClusterState
from .common import ExperimentScale, Workload, fb_workload


@dataclass
class Table2Result:
    total_ms_avg: float
    total_ms_p90: float
    ordering_ms_avg: float  # LCoF contention + sort
    admission_ms_avg: float  # all-or-none + rate assignment (approximate)
    peak_memory_mb: float
    rounds: int

    @property
    def ordering_fraction(self) -> float:
        """Share of compute spent ordering (paper: < 0.5)."""
        if self.total_ms_avg <= 0:
            return 0.0
        return self.ordering_ms_avg / self.total_ms_avg


def _busy_state(workload: Workload, scheduler: SaathScheduler,
                arrived_fraction: float = 0.5) -> ClusterState:
    """A snapshot with many coflows simultaneously active.

    All coflows in the first ``arrived_fraction`` of the arrival sequence
    are made active at once — a deliberately pessimistic "busy period".
    """
    coflows = sorted(workload.fresh_coflows(), key=lambda c: c.arrival_time)
    active = coflows[: max(1, int(len(coflows) * arrived_fraction))]
    state = ClusterState(fabric=workload.fabric, active_coflows=active)
    for c in active:
        scheduler.on_coflow_arrival(c, now=0.0)
    return state


def _timed_rounds(scheduler: SaathScheduler, state: ClusterState,
                  rounds: int) -> tuple[list[float], list[float]]:
    """Seconds per ``schedule()`` round and per ordering phase."""
    config = scheduler.config
    totals, orderings = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        scheduler.schedule(state, now=0.0)
        totals.append(time.perf_counter() - t0)

        # Phase timing: the ordering phase re-run in isolation.
        t0 = time.perf_counter()
        queue_of = {
            c.coflow_id: scheduler.tracker.queue_of(c)
            for c in state.active_coflows
        }
        contention = contention_counts(
            state.active_coflows, scope=config.contention_scope,
            queue_of=queue_of,
        )
        sorted(state.active_coflows,
               key=lambda c: (queue_of[c.coflow_id],
                              contention[c.coflow_id], c.arrival_time))
        orderings.append(time.perf_counter() - t0)
    return totals, orderings


def run(scale: ExperimentScale = ExperimentScale.SMALL,
        workload: Workload | None = None,
        *, rounds: int = 30, seed: int = 7) -> Table2Result:
    workload = workload or fb_workload(scale, seed=seed)
    config = SimulationConfig()
    scheduler = SaathScheduler(config)
    totals, orderings = _timed_rounds(
        scheduler, _busy_state(workload, scheduler), rounds
    )
    # Peak memory from the same rounds on a second snapshot, traced; their
    # timings carry tracemalloc's per-allocation cost and are dropped.
    scheduler = SaathScheduler(config)
    state = _busy_state(workload, scheduler)
    tracemalloc.start()
    _timed_rounds(scheduler, state, rounds)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    totals_ms = np.asarray(totals) * 1e3
    orderings_ms = np.asarray(orderings) * 1e3
    return Table2Result(
        total_ms_avg=float(totals_ms.mean()),
        total_ms_p90=float(np.percentile(totals_ms, 90)),
        ordering_ms_avg=float(orderings_ms.mean()),
        admission_ms_avg=float(totals_ms.mean() - orderings_ms.mean()),
        peak_memory_mb=peak / (1024 * 1024),
        rounds=rounds,
    )


def render(result: Table2Result) -> str:
    table = format_table(
        ["metric", "value"],
        [
            ["schedule compute avg (ms)", result.total_ms_avg],
            ["schedule compute P90 (ms)", result.total_ms_p90],
            ["  ordering (LCoF) avg (ms)", result.ordering_ms_avg],
            ["  admission + work-conservation avg (ms)",
             result.admission_ms_avg],
            ["ordering fraction of compute", result.ordering_fraction],
            ["peak traced memory (MB)", result.peak_memory_mb],
        ],
        title="Table 2 — coordinator overhead (this implementation)",
        float_fmt="{:.3f}",
    )
    return "\n".join([
        table,
        "paper structure: ordering < 50% of compute; compute << δ "
        "(C++ got 0.57 ms avg / 2.85 ms P90 against δ = 8 ms)",
    ])
