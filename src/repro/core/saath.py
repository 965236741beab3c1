"""The Saath scheduler — the paper's primary contribution (§3–§4).

Saath is an online (non-clairvoyant) coflow scheduler built from three
complementary ideas plus two safety mechanisms, all implemented here:

1. **All-or-none** (§3.1): a coflow is admitted only if *every* port its
   schedulable flows touch still has capacity; either all of its flows are
   scheduled together or none is. This removes Aalo's out-of-sync problem.
2. **Per-flow queue thresholds** (§3.2, D3/Eq. 1): queue transitions fire
   when the *largest flow* crosses its fair share ``Q_hi / width`` of the
   queue threshold, moving long coflows out of high-priority queues faster.
3. **Least-Contention-First** (§3.3, D1): within a queue, coflows are
   admitted in increasing order of contention ``k_c`` — the spatial
   generalisation of SJF.
4. **Work conservation** (D4): ports left idle by all-or-none are filled
   with the flows of skipped coflows, in scheduling order.
5. **Starvation avoidance** (D5): each coflow carries a FIFO-derived
   deadline ``d · C_q · t_q``; coflows past their deadline are admitted
   ahead of the LCoF order.

The optional §4.3 dynamics handler (approximated SRTF promotion when some
flows have finished) is enabled by ``config.enable_dynamics_promotion``.

With the compiled core (``table.fastcore``) a round makes three calls into
:mod:`repro._fastcore` instead of per-coflow Python: ``max_bytes_sent``
reads the queue metric of every coflow the refresh revisits,
``saath_round`` runs admission, D2 rates and work conservation over the
ordered coflows (:meth:`SaathScheduler._round_compiled`), and
``per_flow_transitions`` finds the earliest queue-threshold crossing for
:meth:`SaathScheduler.next_wakeup`. Queue placements, the scheduling order
and the starvation deadlines stay in Python. :meth:`SaathScheduler.
_round_rows` is the round's Python twin; both give the same bits.
"""

from __future__ import annotations

import math

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..schedulers.base import Allocation, Scheduler
from ..schedulers.queues import QueueTracker
from ..simulator.flows import CoFlow, Flow
# Only the *_rows forms are called; the object and *_paths names stay bound
# because layerbench's traced run wraps the allocators named in this module.
from ..simulator.ratealloc import (  # noqa: F401
    equal_rate_for_coflow,
    equal_rate_for_coflow_paths,
    equal_rate_for_coflow_rows,
    greedy_residual_rates,
    greedy_residual_rates_rows,
)
from ..simulator.state import ClusterState
from .contention import ContentionTracker, contention_counts
from .dynamics import promotion_queue


class SaathScheduler(Scheduler):
    """Saath, with ablation switches for the Fig. 10–12 breakdown.

    ``use_lcof=False`` replaces LCoF with FIFO (arrival order) within each
    queue; ``use_perflow_threshold=False`` falls back to Aalo's total-bytes
    queue metric. Both default to the full Saath design. All variants keep
    all-or-none admission and work conservation, matching the paper's
    breakdown (A/N+FIFO, A/N+P/F+FIFO, A/N+P/F+LCoF).
    """

    name = "saath"
    clairvoyant = False

    def __init__(
        self,
        config: SimulationConfig,
        *,
        use_lcof: bool = True,
        use_perflow_threshold: bool = True,
        work_conservation: bool = True,
        length_estimator=None,
    ):
        super().__init__(config)
        self.use_lcof = use_lcof
        self.use_perflow_threshold = use_perflow_threshold
        self.work_conservation = work_conservation
        #: Strategy for the §4.3 remaining-length estimate (None = the
        #: paper's median rule; see repro.core.estimators).
        self.length_estimator = length_estimator
        metric = "perflow" if use_perflow_threshold else "total"
        self.tracker = QueueTracker(config, metric=metric)
        #: Incrementally-maintained contention index (LCoF only). Rebuilt
        #: whenever the engine flags a full resync; config.incremental=False
        #: ignores it and recomputes contention from scratch every round.
        self._contention = (
            ContentionTracker(config.contention_scope) if use_lcof else None
        )
        #: Coflows governed by the §4.3 SRTF approximation (some flows done).
        self._dynamics_mode: set[int] = set()
        #: Diagnostics: how often the starvation path admitted a coflow.
        self.starvation_admissions = 0

    # ---- lifecycle ------------------------------------------------------------

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        self.tracker.admit(coflow, now)

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        self.tracker.remove(coflow)
        self._dynamics_mode.discard(coflow.coflow_id)

    def on_flow_completion(self, flow: Flow, coflow: CoFlow, now: float) -> None:
        if not self.config.enable_dynamics_promotion:
            return
        self._dynamics_mode.add(coflow.coflow_id)
        if self._apply_promotion(coflow, now) and self._contention is not None:
            # Queue-scoped contention counts depend on queue membership;
            # dirty the sharers now so the next incremental round recounts.
            self._contention.note_queue_change(coflow.coflow_id)

    # ---- the scheduling round (Fig. 7) ------------------------------------------

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        # Incremental rounds consume the engine's dirty set; full rounds
        # (first round, dynamics, or incremental=False) rebuild everything.
        incremental = self.config.incremental and not state.delta.full
        queue_moves = self._assign_queues(state, now, incremental)
        order, starving = self._scheduling_order(state, now, incremental,
                                                 queue_moves)

        ledger = self._round_ledger(state)
        allocation = Allocation()
        # Admission, D2 rates and work conservation all walk table rows
        # over each flow's whole link path (the table's core-link columns),
        # so on a multi-tier topology a coflow is admitted only when every
        # core link on its flows' paths still has capacity, and its rate
        # saturates at the true bottleneck.
        if state.table.fastcore and _core is not None:
            self._round_compiled(state, now, order, ledger, allocation)
        else:
            self._round_rows(state, now, order, ledger, allocation)
        # Only starving coflows that all-or-none admitted took the
        # starvation path.
        scheduled = allocation.scheduled_coflows
        self.starvation_admissions += sum(
            1 for c in order[:starving] if c.coflow_id in scheduled
        )
        return allocation

    def _round_compiled(self, state: ClusterState, now: float,
                        order: list[CoFlow], ledger,
                        allocation: Allocation) -> None:
        """:meth:`_round_rows` as one ``saath_round`` call, over each
        coflow's pending rows in scheduling order (the kernel applies the
        availability gate of :meth:`ClusterState.schedulable_rows`)."""
        if self.metrics is not None:
            self.metrics.inc("kernel.saath_round.fastcore")
        table = state.table
        rows_of = state.pending_row_map
        _core.saath_round(
            [rows_of[c.coflow_id] for c in order], now,
            state.respect_availability, self.config.min_rate,
            self.work_conservation, table.finish_time, table.available_time,
            table.src, table.dst, table.link_a, table.link_b, table.flow_id,
            table.coflow_id, ledger.capacity_list, ledger.used_list,
            ledger.touched_set, allocation.rates,
            allocation.scheduled_coflows, allocation.work_conserved_coflows,
        )

    def _round_rows(self, state: ClusterState, now: float,
                    order: list[CoFlow], ledger,
                    allocation: Allocation) -> None:
        """Fig. 7 lines 1–23 over ``order``: all-or-none admission and D2
        equal rates coflow by coflow, then work conservation over the rows
        of the coflows it missed (the Python twin of the compiled round)."""
        if self.metrics is not None:
            self.metrics.inc("kernel.saath_round.python")
        table = state.table
        missed: list[list[int]] = []
        for coflow in order:
            rows = state.schedulable_rows(coflow, now)
            if not rows:
                continue
            # Flow-group compaction: per-link pending counts replace the
            # per-flow recount in admission and D2 rate assignment whenever
            # they exactly describe the schedulable set (None while data
            # availability gates some flows).
            counts = state.port_counts(coflow, now)
            if self._admissible_rows(rows, table, ledger, counts):
                rates = equal_rate_for_coflow_rows(
                    rows, table, ledger, port_counts=counts
                )
                if rates:
                    allocation.rates.update(rates)
                    allocation.scheduled_coflows.add(coflow.coflow_id)
                    continue
            missed.append(rows)
        if self.work_conservation and missed:
            self._work_conserve_rows(missed, table, ledger, allocation)

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Queue-threshold crossings and starvation-deadline expiries."""
        if self.config.incremental:
            # Only coflows that received rate this round can cross a
            # threshold before the next event; everyone else sits still
            # (zero rate on every flow ⇒ infinite transition time).
            candidates = [
                state.coflow(cid)
                for cid in (allocation.scheduled_coflows
                            | allocation.work_conserved_coflows)
            ]
        else:
            candidates = state.active_coflows
        dt = self.tracker.earliest_transition(state, candidates,
                                              allocation.rates)
        best = now + max(dt, 0.0) if dt < math.inf else math.inf
        if self.config.deadline_factor is not None:
            best = min(best, self.tracker.next_deadline_after(now))
        if not math.isfinite(best) or best <= now:
            # A zero transition gap means refresh already happens on the
            # next schedule; nudge forward to avoid a same-instant livelock.
            if best <= now and math.isfinite(best):
                return now + 1e-9
            return None
        return best

    # ---- pieces ------------------------------------------------------------------

    def _assign_queues(self, state: ClusterState, now: float,
                       incremental: bool) -> set[int]:
        """AssignQueue (Fig. 7 line 15): demotions plus §4.3 promotions.

        Returns the ids of coflows whose queue changed this round. In
        incremental mode only coflows whose progress metric can have moved
        (arrived, progressed, or lost a flow since the last round) are
        revisited — for everyone else the demotion-only rule guarantees the
        target queue is unchanged, so skipping them is exact.
        """
        moved: set[int] = set()
        if incremental:
            delta = state.delta
            dirty = delta.arrived | delta.progressed | delta.flow_completed
            # Walk in active order, not set order: deadline assignment
            # depends on queue populations at placement time, so the visit
            # order must match the full-recompute path exactly.
            coflows = [c for c in state.active_coflows
                       if c.coflow_id in dirty]
        else:
            coflows = state.active_coflows
        # Each coflow's target queue depends only on its own bytes and
        # width, so every metric can be read before any placement.
        metrics = self.tracker.metric_values(coflows, state.table)
        for coflow, metric in zip(coflows, metrics):
            if coflow.coflow_id in self._dynamics_mode:
                if self._apply_promotion(coflow, now):
                    moved.add(coflow.coflow_id)
            elif self.tracker.refresh(coflow, now, metric):
                moved.add(coflow.coflow_id)
        return moved

    def _apply_promotion(self, coflow: CoFlow, now: float) -> bool:
        target = promotion_queue(coflow, self.config.queues,
                                 estimator=self.length_estimator)
        if target is not None:
            return self.tracker.force_queue(coflow, target, now)
        return False

    def _scheduling_order(self, state: ClusterState, now: float,
                          incremental: bool,
                          queue_moves: set[int]) -> tuple[list[CoFlow], int]:
        """Starved coflows first, then queues top-down, LCoF within each.

        Returns the order and the number of starved coflows heading it."""
        starving: list[CoFlow] = []
        per_queue: dict[int, list[CoFlow]] = {}
        for coflow in state.active_coflows:
            if (self.config.deadline_factor is not None
                    and self.tracker.starving(coflow, now)):
                starving.append(coflow)
            else:
                per_queue.setdefault(
                    self.tracker.queue_of(coflow), []
                ).append(coflow)

        starving.sort(key=lambda c: (self.tracker.deadline_of(c), c.coflow_id))

        head = len(starving)
        order = starving
        contention = None
        if self.use_lcof:
            contention = self._contention_counts(state, incremental,
                                                 queue_moves)
        for queue in sorted(per_queue):
            members = per_queue[queue]
            if self.use_lcof:
                assert contention is not None
                # Decorate-and-sort without a key lambda: coflow ids are
                # unique, so the trailing object is never compared and the
                # (contention, arrival, id) tie-break is unchanged.
                decorated = [
                    (contention[c.coflow_id], c.arrival_time, c.coflow_id, c)
                    for c in members
                ]
                decorated.sort()
                order.extend([t[3] for t in decorated])
            else:  # FIFO within the queue
                members.sort(key=lambda c: (c.arrival_time, c.coflow_id))
                order.extend(members)
        return order, head

    def _contention_counts(self, state: ClusterState, incremental: bool,
                           queue_moves: set[int]) -> dict[int, int]:
        """Current LCoF contention map ``k_c`` for every active coflow.

        ``config.incremental=False`` keeps the original full recompute;
        otherwise the :class:`ContentionTracker` is patched from the
        engine's delta (rebuilt from scratch on full-resync rounds). The
        ``validate_incremental`` debug mode runs both and asserts equality.
        """
        queue_of: dict[int, int] | None = None
        if self.config.contention_scope == "queue":
            queue_of = {
                c.coflow_id: self.tracker.queue_of(c)
                for c in state.active_coflows
            }
        if not self.config.incremental:
            return contention_counts(
                state.active_coflows,
                scope=self.config.contention_scope,
                queue_of=queue_of,
            )

        tracker = self._contention
        assert tracker is not None  # use_lcof guards construction
        if not incremental:
            tracker.rebuild(state.active_coflows)
        else:
            # Delta-driven rounds run against live engine notifications, so
            # the compaction caches are exact and hand the tracker each
            # dirty coflow's port footprint without a flow rescan.
            delta = state.delta
            for cid in delta.completed:
                tracker.remove(cid)
            for cid in delta.arrived:
                coflow = state.coflow(cid)
                tracker.add(
                    coflow, ports=set(state.pending_port_counts(coflow))
                )
            for cid in delta.flow_completed - delta.arrived:
                coflow = state.coflow(cid)
                tracker.refresh_ports(
                    coflow, ports=set(state.pending_port_counts(coflow))
                )
            for cid in queue_moves:
                tracker.note_queue_change(cid)
        if self.config.validate_incremental:
            tracker.assert_matches_full(state.active_coflows, queue_of)
        return tracker.counts(queue_of)

    def _admissible_rows(self, rows: list[int], table, ledger,
                         port_counts: dict[int, int] | None = None) -> bool:
        """All-or-none admission: True if every link the rows' paths cross
        (host ports plus core links) has ≥ ``min_rate`` residual.

        ``port_counts`` (the cluster state's compaction cache) supplies the
        link set directly when it exactly covers ``rows``, skipping the
        per-row set build; the predicate is a conjunction over the same
        links either way. ``residual(p) >= min_rate`` is evaluated as
        ``capacity - used >= min_rate`` over the ledger's dense lists —
        ``min_rate`` is validated positive, so the max-with-zero clamp
        inside ``residual`` cannot change the comparison."""
        min_rate = self.config.min_rate
        lcap = ledger.capacity_list
        lused = ledger.used_list
        if port_counts is not None:
            for p in port_counts:
                if lcap[p] - lused[p] < min_rate:
                    return False
            return True
        src_col = table.src
        dst_col = table.dst
        la_col = table.link_a
        lb_col = table.link_b
        ports: set[int] = set()
        for i in rows:
            ports.add(src_col[i])
            ports.add(dst_col[i])
            a = la_col[i]
            if a >= 0:
                ports.add(a)
                b = lb_col[i]
                if b >= 0:
                    ports.add(b)
        for p in ports:
            if lcap[p] - lused[p] < min_rate:
                return False
        return True

    def _work_conserve_rows(self, missed: list[list[int]], table,
                            ledger, allocation: Allocation) -> None:
        """Fig. 7 lines 18–23: fill leftover capacity in scheduling order,
        over the missed coflows' schedulable rows."""
        wc_rows: list[int] = []
        for rows in missed:
            wc_rows.extend(rows)
        rates = greedy_residual_rates_rows(wc_rows, table, ledger)
        if rates:
            allocation.rates.update(rates)
            fid = table.flow_id
            cid = table.coflow_id
            granted = {cid[i] for i in wc_rows if fid[i] in rates}
            allocation.work_conserved_coflows |= granted
