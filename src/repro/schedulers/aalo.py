"""The Aalo scheduler (Chowdhury & Stoica, SIGCOMM'15) — main baseline (§2.2).

Aalo approximates Shortest-CoFlow-First online with:

* a **global coordinator** that assigns each coflow to a logical priority
  queue based on the **total bytes** the coflow has sent so far, with
  exponentially growing queue thresholds; and
* **independent local ports**: each sender port splits its bandwidth across
  the non-empty priority queues by **weighted sharing** (Aalo §5.1 —
  higher-priority queues get larger weights, which also provides Aalo's
  starvation-freedom), serving flows FIFO (coflow arrival order) within a
  queue; leftover capacity spills down in priority order (work conserving).

Crucially the ports do **not** coordinate, which is precisely the spatial
blindness the paper attacks: flows of one coflow may be scheduled at some
ports and queued at others (out-of-sync, §2.3), and FIFO ignores contention
(§2.4).
"""

from __future__ import annotations

import math
from collections import defaultdict

from .._fastcore import core as _core
from ..config import SimulationConfig
from ..simulator.flows import CoFlow
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler
from .queues import QueueTracker


class AaloScheduler(Scheduler):
    """Aalo: total-bytes priority queues + per-port weighted FIFO.

    ``queue_weight_decay`` follows Aalo's design of giving queue ``q`` a
    weight that shrinks with priority; weight(q) = decay**(-q), normalised
    over the queues occupied at the port. A decay of 10 makes high-priority
    queues strongly dominant (close to strict priority) while guaranteeing
    forward progress for demoted coflows.
    """

    name = "aalo"
    clairvoyant = False

    def __init__(self, config: SimulationConfig,
                 *, queue_weight_decay: float = 10.0):
        super().__init__(config)
        if queue_weight_decay < 1.0:
            raise ValueError(
                f"queue_weight_decay must be >= 1, got {queue_weight_decay}"
            )
        self.queue_weight_decay = queue_weight_decay
        #: queue index -> weight, precomputed once (the per-round pow calls
        #: used to show up in profiles; same floats, same decay rule).
        self._queue_weight = [
            queue_weight_decay ** (-q)
            for q in range(config.queues.num_queues)
        ]
        self.tracker = QueueTracker(config, metric="total")
        #: coflow_id -> arrival order index, the FIFO key at every port.
        self._arrival_order: dict[int, int] = {}
        self._arrival_counter = 0
        #: coflow_id -> True when its flow list already carries ascending
        #: flow ids (always the case for generated workloads); checked once
        #: at arrival so the per-round gather can skip re-sorting.
        self._id_sorted: dict[int, bool] = {}

    # ---- lifecycle ------------------------------------------------------------

    def on_coflow_arrival(self, coflow: CoFlow, now: float) -> None:
        self.tracker.admit(coflow, now)
        self._arrival_order[coflow.coflow_id] = self._arrival_counter
        self._arrival_counter += 1
        flows = coflow.flows
        self._id_sorted[coflow.coflow_id] = all(
            flows[i].flow_id <= flows[i + 1].flow_id
            for i in range(len(flows) - 1)
        )

    def on_coflow_completion(self, coflow: CoFlow, now: float) -> None:
        self.tracker.remove(coflow)
        self._arrival_order.pop(coflow.coflow_id, None)
        self._id_sorted.pop(coflow.coflow_id, None)

    # ---- scheduling -------------------------------------------------------------

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        # Total-bytes demotions only fire when a coflow moved bytes, so
        # incremental rounds revisit just the engine's dirty set; full
        # rounds (first round, dynamics, incremental=False) rescan.
        if self.config.incremental and not state.delta.full:
            delta = state.delta
            dirty = delta.arrived | delta.progressed | delta.flow_completed
            # Visit in active order so deadline bookkeeping (which reads
            # queue populations at placement time) matches the full path.
            for coflow in state.active_coflows:
                if coflow.coflow_id in dirty:
                    self.tracker.refresh(coflow, now)
        else:
            for coflow in state.active_coflows:
                self.tracker.refresh(coflow, now)

        # Gather schedulable rows per sender port, already in local priority
        # order: sorting the *coflows* once by (queue, FIFO) and emitting
        # their rows in flow-id order yields exactly the per-port
        # (queue, fifo, flow_id) order the ports serve in — each coflow has
        # a unique FIFO index and its rows follow its flows, which carry
        # ascending ids (re-sorted via the table otherwise) — without
        # building or sorting a key tuple per flow. The (queue, FIFO)
        # coflow ordering is a plain tuple sort (no key lambda): FIFO
        # indices are unique, so the trailing coflow object never gets
        # compared. Rows are bucketed into equal-queue runs directly, so
        # the per-port pass needn't re-slice.
        table = state.table
        src_col = table.src
        fid = table.flow_id
        qmap = self.tracker.queue_map
        arrival_order = self._arrival_order
        id_sorted = self._id_sorted
        decorated = [
            (qmap[c.coflow_id], arrival_order[c.coflow_id], c)
            for c in state.active_coflows
        ]
        decorated.sort()
        ledger = self._round_ledger(state)
        # Compiled round core: same flatten-and-serve, with the per-port
        # bucketing (CSR over senders) and both allocation passes in C.
        # When a tracer wants port-level events this round runs on the
        # bit-identical Python twin instead, so per-grant state is visible.
        tracer = self.tracer
        if (table.fastcore and _core is not None
                and not (tracer is not None
                         and tracer.forces_python_kernels)):
            coflow_runs = []
            for queue, _, coflow in decorated:
                rows = state.schedulable_rows(coflow, now)
                if not id_sorted.get(coflow.coflow_id, True):
                    rows = sorted(rows, key=lambda i: fid[i])
                coflow_runs.append((queue, rows))
            allocation = Allocation()
            if self.metrics is not None:
                self.metrics.inc("kernel.aalo_ports.fastcore")
            _core.aalo_ports(
                coflow_runs, self._queue_weight,
                table.src, table.dst, table.link_a, table.link_b,
                table.flow_id, table.coflow_id,
                ledger.capacity_list, ledger.used_list, ledger.touched_set,
                allocation.rates, allocation.scheduled_coflows,
            )
            return allocation
        if self.metrics is not None:
            self.metrics.inc("kernel.aalo_ports.python")
        per_sender: dict[int, list[tuple[int, list[int]]]] = defaultdict(list)
        for queue, _, coflow in decorated:
            rows = state.schedulable_rows(coflow, now)
            if not id_sorted.get(coflow.coflow_id, True):
                # Copy before ordering: the row list may be the live cache.
                rows = sorted(rows, key=lambda i: fid[i])
            for i in rows:
                runs = per_sender[src_col[i]]
                if not runs or runs[-1][0] != queue:
                    runs.append((queue, [i]))
                else:
                    runs[-1][1].append(i)

        allocation = Allocation()
        # Hoisted once per round: the ledger's dense lists and the table
        # columns the per-port pass indexes (property/attribute fetches per
        # port call used to add up across thousands of rounds).
        # Receivers observed exhausted anywhere this round: usage only ever
        # grows within a round, so a later fill against such a port would
        # grant 0 and commit nothing — skipping it is an exact no-op.
        dead_dst: set[int] = set()
        lists = (
            ledger.capacity_list, ledger.used_list, ledger.touched_set,
            table.flow_id, table.coflow_id, table.dst, table.link_a,
            table.link_b, allocation.rates, allocation.scheduled_coflows,
            dead_dst,
        )
        # Ports act independently; a deterministic port order stands in for
        # the real system's races on receiver capacity.
        for port in sorted(per_sender):
            self._allocate_port_rows(port, per_sender[port], lists)
        return allocation

    def _allocate_port_rows(self, port: int,
                            runs: list[tuple[int, list[int]]],
                            lists: tuple) -> None:
        """Weighted queue shares at one sender port, then a spill pass.

        ``runs`` holds the port's schedulable rows sliced into runs of
        equal queue, in (queue, fifo, flow_id) order. Each grant is
        ``min(budget, residual)`` over every link of the row's path
        (sender, receiver, core links), committed on each of them with
        :meth:`~repro.simulator.fabric.PortLedger.commit`'s at-capacity
        clamp, inline over the ledger's dense lists. Flow identity,
        receiver ports and core links come from the table columns. Every
        flow here sends from ``port``, so its usage rides in a local
        accumulator and is written back once (receiver ports and core
        links live in id ranges disjoint from the senders', so no read can
        observe the deferred write). ``lists`` carries the round-hoisted
        ledger lists, table columns, allocation sinks and the round's
        dead-receiver memo — an exhausted receiver stays exhausted for the
        rest of the round (usage only grows), so skipping it is an exact
        no-op: the fill would have granted 0 and committed nothing. Only an
        exhausted *receiver* is memoised: a full core link blocks one path,
        not the receiver.

        The work-conservation spill (pass 2) is pass 1 with an infinite
        budget per run: the budget then never binds, never runs out and
        stays infinite, so one loop serves both passes."""
        (lcap, lused, touched, fid, cid, dst_col, la_col, lb_col, rates,
         scheduled, dead_dst) = lists
        cap_src = lcap[port]
        used_src = lused[port]
        port_capacity = cap_src - used_src  # == ledger.residual(port)
        if port_capacity <= 0:
            return
        weight_of = self._queue_weight
        total_weight = 0.0
        for q, _ in runs:
            total_weight += weight_of[q]
        # Pass 1: each occupied queue spends its weighted share, FIFO.
        # Pass 2: spill leftover capacity in strict priority+FIFO order,
        # e.g. when a queue's share outruns its flows' receiver capacity.
        budgets = [port_capacity * weight_of[q] / total_weight
                   for q, _ in runs]
        budgets += [math.inf] * len(runs)

        rates_get = rates.get
        for budget, (_, run) in zip(budgets, runs + runs):
            for i in run:
                if budget <= 0:
                    break
                rate = cap_src - used_src
                if rate <= 0:  # sender port exhausted
                    lused[port] = used_src
                    return
                dst = dst_col[i]
                if dst in dead_dst:
                    continue  # receiver full; later receivers may differ
                cap_dst = lcap[dst]
                other = cap_dst - lused[dst]
                if other < rate:
                    rate = other
                a = la_col[i]
                b = lb_col[i]
                if a >= 0:
                    other = lcap[a] - lused[a]
                    if other < rate:
                        rate = other
                    if b >= 0:
                        other = lcap[b] - lused[b]
                        if other < rate:
                            rate = other
                if budget < rate:
                    rate = budget
                if rate <= 0:
                    # Sender residual and budget are positive here, so the
                    # receiver or a core link is exhausted.
                    if cap_dst - lused[dst] <= 0:
                        dead_dst.add(dst)
                    continue
                new_used = used_src + rate
                used_src = new_used if new_used < cap_src else cap_src
                new_used = lused[dst] + rate
                lused[dst] = new_used if new_used < cap_dst else cap_dst
                touched.add(port)
                touched.add(dst)
                for link in (a, b):
                    if link < 0:
                        break
                    cap = lcap[link]
                    new_used = lused[link] + rate
                    lused[link] = new_used if new_used < cap else cap
                    touched.add(link)
                budget -= rate
                flow_id = fid[i]
                rates[flow_id] = rates_get(flow_id, 0.0) + rate
                scheduled.add(cid[i])
        lused[port] = used_src

    def next_wakeup(self, state: ClusterState, allocation: Allocation,
                    now: float) -> float | None:
        """Wake at the next total-bytes queue-threshold crossing."""
        if self.config.incremental:
            # Zero-rate coflows cannot cross a total-bytes threshold.
            candidates = [
                state.coflow(cid) for cid in allocation.scheduled_coflows
            ]
        else:
            candidates = state.active_coflows
        best = math.inf
        for coflow in candidates:
            dt = self.tracker.next_transition_time(
                coflow, allocation.rates,
                pending_rows=state.pending_rows(coflow),
            )
            if dt < math.inf:
                best = min(best, now + max(dt, 1e-9))
        return best if math.isfinite(best) else None
