"""Priority-queue bookkeeping shared by Aalo, Saath and the ablations.

The :class:`QueueTracker` maintains, per coflow, the current logical queue,
the instant it entered that queue, and (for Saath) the starvation deadline
derived from FIFO (§4.2 D5). It also computes *when* a coflow will cross its
queue threshold given current rates, which the engine uses to wake the
scheduler exactly at transition instants instead of polling.

Two transition metrics are supported, selected by the owner:

* ``"total"``  — Aalo: total bytes sent by the coflow vs ``Q_hi``.
* ``"perflow"`` — Saath: max bytes sent by any flow vs ``Q_hi / width``
  (Eq. 1, §4.2 D3).

Saath reads both per-flow quantities for many coflows per round, so on a
compiled flow table each is one call into :mod:`repro._fastcore`:
:meth:`QueueTracker.metric_values` (``max_bytes_sent``) for the queue
refresh and :meth:`QueueTracker.earliest_transition`
(``per_flow_transitions``) for the wakeup. Their Python loops over
:meth:`QueueTracker.metric_value` and
:meth:`QueueTracker.next_transition_time` are the twins.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..errors import SchedulerError
from ..simulator.flows import CoFlow

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..simulator.state import ClusterState, FlowTable


class QueueTracker:
    """Tracks queue membership, entry times, and starvation deadlines."""

    #: Observability hooks (class-level ``None``: the disabled path costs
    #: one attribute check; bound via ``Scheduler.bind_instrumentation``).
    tracer = None
    metrics = None

    def __init__(self, config: SimulationConfig, *, metric: str):
        if metric not in ("total", "perflow"):
            raise SchedulerError(f"unknown queue metric {metric!r}")
        self.config = config
        self.metric = metric
        #: coflow_id -> queue index
        self._queue: dict[int, int] = {}
        #: coflow_id -> time the coflow entered its current queue
        self._entered: dict[int, float] = {}
        #: coflow_id -> absolute starvation deadline
        self._deadline: dict[int, float] = {}
        #: queue index -> number of resident coflows (kept incrementally so
        #: deadline assignment is O(1) instead of an O(coflows) scan).
        self._population: dict[int, int] = {}

    # ---- membership ---------------------------------------------------------

    def admit(self, coflow: CoFlow, now: float) -> None:
        """Place a newly-arrived coflow in the highest-priority queue."""
        self._place(coflow, 0, now)

    def remove(self, coflow: CoFlow) -> None:
        queue = self._queue.pop(coflow.coflow_id, None)
        if queue is not None:
            self._population[queue] -= 1
        self._entered.pop(coflow.coflow_id, None)
        self._deadline.pop(coflow.coflow_id, None)

    def queue_of(self, coflow: CoFlow) -> int:
        try:
            return self._queue[coflow.coflow_id]
        except KeyError:
            raise SchedulerError(
                f"coflow {coflow.coflow_id} is not tracked; "
                f"was on_coflow_arrival delivered?"
            ) from None

    @property
    def queue_map(self) -> dict[int, int]:
        """Live ``coflow_id → queue`` mapping (read-only by convention);
        per-round hot loops index it directly instead of paying a method
        call per :meth:`queue_of` lookup."""
        return self._queue

    def deadline_of(self, coflow: CoFlow) -> float:
        return self._deadline.get(coflow.coflow_id, math.inf)

    def tracked_ids(self) -> set[int]:
        return set(self._queue)

    def population(self, queue: int) -> int:
        """Number of tracked coflows currently in ``queue``."""
        return self._population.get(queue, 0)

    # ---- transitions ----------------------------------------------------------

    def metric_value(self, coflow: CoFlow) -> float:
        """Progress metric compared against thresholds (see module doc)."""
        if self.metric == "total":
            return coflow.bytes_sent
        return coflow.max_flow_bytes_sent

    def metric_values(self, coflows: "list[CoFlow]",
                      table: "FlowTable") -> list[float]:
        """:meth:`metric_value` of each coflow, all attached to ``table``.

        On a compiled table the per-flow metric ``m_c`` of every coflow
        comes from one ``max_bytes_sent`` call over all of its rows,
        finished ones included, as :attr:`CoFlow.max_flow_bytes_sent`
        reads them.
        """
        if self.metric == "perflow" and table.fastcore and _core is not None:
            if self.metrics is not None:
                self.metrics.inc("kernel.max_bytes_sent.fastcore")
            return _core.max_bytes_sent([c._rows for c in coflows],
                                        table.bytes_sent)
        return [self.metric_value(c) for c in coflows]

    def target_queue(self, coflow: CoFlow,
                     metric: "float | None" = None) -> int:
        """Queue the coflow *should* be in given its progress metric
        (``metric``, when the caller already read :meth:`metric_value`).

        Queues are demotion-only here (progress only grows); §4.3 promotion
        is applied by Saath's dynamics handler, which calls
        :meth:`force_queue` explicitly.
        """
        if metric is None:
            metric = self.metric_value(coflow)
        qcfg = self.config.queues
        if self.metric == "total":
            return qcfg.queue_for_bytes(metric)
        return qcfg.queue_for_per_flow_bytes(metric, coflow.width)

    def refresh(self, coflow: CoFlow, now: float,
                metric: "float | None" = None) -> bool:
        """Move the coflow to its target queue if it crossed a threshold.

        ``metric`` is the coflow's :meth:`metric_value`, when the caller
        already read it. Returns True if the queue changed. Demotion-only
        (never moves a coflow to a higher-priority queue; see
        :meth:`force_queue`).
        """
        current = self.queue_of(coflow)
        target = self.target_queue(coflow, metric)
        if target > current:
            self._place(coflow, target, now)
            return True
        return False

    def force_queue(self, coflow: CoFlow, queue: int, now: float) -> bool:
        """Explicitly (re)assign ``coflow`` to ``queue`` (dynamics, §4.3).

        Promotion resets the entry time and deadline like any other queue
        change. Returns True if the queue changed.
        """
        if queue == self._queue.get(coflow.coflow_id):
            return False
        self._place(coflow, queue, now)
        return True

    def next_transition_time(self, coflow: CoFlow,
                             rates: dict[int, float],
                             pending_rows: "list[int] | None" = None,
                             ) -> float:
        """Seconds from now until the coflow crosses its queue threshold.

        Under constant ``rates`` (flow_id → bytes/s). ``inf`` if it never
        will (zero relevant rate or already in the last queue).
        ``pending_rows`` optionally narrows the walk to the coflow's
        unfinished table rows (the cluster state's pending cache) — the
        finished-flow filter below skips exactly the dropped rows, so the
        scan order over surviving flows (and every float) is unchanged.
        """
        qcfg = self.config.queues
        current = self.queue_of(coflow)
        if current >= qcfg.num_queues - 1:
            return math.inf
        hi = qcfg.hi_threshold(current)
        rates_get = rates.get
        rows = pending_rows if pending_rows is not None else coflow._rows
        if self.metric == "total":
            if rows is not None:
                # Row path: the rates lookup and liveness filter walk the
                # flow table columns (rows are in ``flows`` order, so the
                # accumulation order — and the sum — is unchanged).
                tbl = coflow._table
                ft = tbl.finish_time
                fid = tbl.flow_id
                if tbl.fastcore and _core is not None:
                    if self.metrics is not None:
                        self.metrics.inc("kernel.total_rate_rows.fastcore")
                    total_rate = _core.total_rate_rows(rows, fid, ft, rates)
                else:
                    total_rate = sum(
                        [rates_get(fid[i], 0.0)
                         for i in rows if ft[i] is None]
                    )
            else:
                total_rate = sum(
                    [rates_get(f.flow_id, 0.0) for f in coflow.flows
                     if f.finish_time is None]
                )
            if total_rate <= 0:
                return math.inf
            gap = hi - coflow.bytes_sent
            return max(gap, 0.0) / total_rate
        # Per-flow metric: first flow to reach hi / width.
        per_flow_hi = hi / coflow.width
        best = math.inf
        if rows is not None:
            tbl = coflow._table
            ft = tbl.finish_time
            fid = tbl.flow_id
            vol = tbl.volume
            bs = tbl.bytes_sent
            for i in rows:
                if ft[i] is not None:
                    continue
                rate = rates_get(fid[i], 0.0)
                if rate <= 0:
                    continue
                # A flow cannot push bytes_sent beyond its volume; crossing
                # only happens if the threshold is reachable within it.
                reachable = min(vol[i], per_flow_hi)
                if reachable <= bs[i]:
                    # Already at/over the reachable point: if it is the
                    # true threshold, the transition is immediate on next
                    # refresh.
                    if bs[i] >= per_flow_hi:
                        return 0.0
                    continue
                if per_flow_hi <= vol[i]:
                    best = min(best, (per_flow_hi - bs[i]) / rate)
            return best
        for f in coflow.flows:
            if f.finish_time is not None:
                continue
            rate = rates_get(f.flow_id, 0.0)
            if rate <= 0:
                continue
            # A flow cannot push bytes_sent beyond its volume; crossing only
            # happens if the threshold is reachable within the flow.
            reachable = min(f.volume, per_flow_hi)
            if reachable <= f.bytes_sent:
                # Already at/over the reachable point: if it is the true
                # threshold, the transition is immediate on next refresh.
                if f.bytes_sent >= per_flow_hi:
                    return 0.0
                continue
            if per_flow_hi <= f.volume:
                best = min(best, (per_flow_hi - f.bytes_sent) / rate)
        return best

    def earliest_transition(self, state: "ClusterState",
                            coflows: "list[CoFlow]",
                            rates: dict[int, float]) -> float:
        """Seconds from now until the first of ``coflows`` (active in
        ``state``) crosses its queue threshold: the minimum of
        :meth:`next_transition_time` over them, each walking its pending
        rows.

        On a compiled table the per-flow metric takes one
        ``per_flow_transitions`` call over every coflow not in the last
        queue. The minimum commutes with the caller's ``now + dt``: float
        addition is monotone, so one call gives the same instant.
        """
        table = state.table
        if self.metric == "perflow" and table.fastcore and _core is not None:
            # Q_hi of every queue but the last, whose coflows never cross.
            qcfg = self.config.queues
            last = qcfg.num_queues - 1
            hi = [qcfg.hi_threshold(q) for q in range(last)]
            qmap = self._queue
            rows_of = state.pending_row_map
            try:
                pairs = [(rows_of[c.coflow_id], hi[q] / c.width)
                         for c in coflows if (q := qmap[c.coflow_id]) < last]
            except KeyError:
                for coflow in coflows:
                    self.queue_of(coflow)  # names the untracked coflow
                raise
            if self.metrics is not None:
                self.metrics.inc("kernel.per_flow_transitions.fastcore")
            return _core.per_flow_transitions(
                pairs, table.flow_id, table.finish_time, table.volume,
                table.bytes_sent, rates,
            )
        best = math.inf
        for coflow in coflows:
            dt = self.next_transition_time(
                coflow, rates, pending_rows=state.pending_rows(coflow)
            )
            if dt < best:
                best = dt
        return best

    # ---- starvation deadlines (§4.2 D5) --------------------------------------

    def set_deadline(self, coflow: CoFlow, now: float) -> None:
        """Assign a fresh FIFO-derived deadline for the coflow's queue.

        ``deadline = now + d * C_q * t_q`` where ``C_q`` counts coflows
        resident in the queue (including this one) and ``t_q`` is the
        minimum queue-residency time at full port rate.
        """
        factor = self.config.deadline_factor
        if factor is None:
            self._deadline[coflow.coflow_id] = math.inf
            return
        queue = self.queue_of(coflow)
        population = max(self.population(queue), 1)
        t_q = self.config.queues.min_residency_time(
            queue, self.config.port_rate
        )
        self._deadline[coflow.coflow_id] = now + factor * population * t_q

    def starving(self, coflow: CoFlow, now: float) -> bool:
        """True if the coflow has passed its starvation deadline."""
        return now >= self._deadline.get(coflow.coflow_id, math.inf)

    def next_deadline_after(self, now: float) -> float:
        """Earliest deadline strictly in the future, or ``inf``."""
        future = [d for d in self._deadline.values() if d > now]
        return min(future, default=math.inf)

    # ---- internal -------------------------------------------------------------

    def _place(self, coflow: CoFlow, queue: int, now: float) -> None:
        previous = self._queue.get(coflow.coflow_id)
        if previous != queue:
            if previous is not None:
                self._population[previous] -= 1
            self._population[queue] = self._population.get(queue, 0) + 1
            if self.metrics is not None:
                self.metrics.inc("queue.transitions")
            if self.tracer is not None:
                self.tracer.instant(
                    "queue_transition", now, "queues",
                    {"coflow": coflow.coflow_id, "from": previous,
                     "to": queue},
                )
        self._queue[coflow.coflow_id] = queue
        self._entered[coflow.coflow_id] = now
        coflow.queue = queue
        coflow.queue_entry_time = now
        self.set_deadline(coflow, now)
        coflow.deadline = self._deadline[coflow.coflow_id]
