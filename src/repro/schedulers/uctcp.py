"""UC-TCP: the uncoordinated baseline of Fig. 9.

No coordinator, no priority queues, no notion of coflows at all: every flow
is scheduled the moment it arrives and the fabric shares capacity per-flow
max-min fairly — the fluid-model equivalent of letting TCP congestion
control sort it out. The paper reports Saath beating this baseline by two
orders of magnitude in median CCT, which is the cost of ignoring coflow
semantics entirely. On a multi-tier topology the fair sharing runs over
every link of each flow's path, so an oversubscribed core link caps the
fair shares of all flows crossing it (the fluid analogue of TCP backing off
at an in-network bottleneck).
"""

from __future__ import annotations

from .._fastcore import core as _core
from ..config import SimulationConfig
# Only the raw rows form is called; the object and *_paths names stay bound
# because layerbench's traced run wraps the allocators named in this module.
from ..simulator.ratealloc import (  # noqa: F401
    max_min_fair,
    max_min_fair_paths,
    max_min_fair_rows_raw,
)
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler


class UcTcpScheduler(Scheduler):
    """Per-flow max-min fair sharing, no coordination."""

    name = "uc-tcp"
    clairvoyant = False

    def __init__(self, config: SimulationConfig):
        super().__init__(config)

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        allocation = Allocation()
        positive = allocation.rates
        scheduled = allocation.scheduled_coflows
        # Gather table rows and run the fair filling straight over the
        # flow-table columns. The raw core hands back (rows, rates) as
        # aligned lists, so the positive-rate pass needs no intermediate
        # dict.
        table = state.table
        rows: list[int] = []
        for coflow in state.active_coflows:
            rows.extend(state.schedulable_rows(coflow, now))
        ledger = self._round_ledger(state)
        # Pending-row caches never hold finished flows, so the fair filling
        # can skip its liveness re-filter.
        active, rate_of = max_min_fair_rows_raw(
            rows, table, ledger, commit=False, prefiltered=True
        )
        fid = table.flow_id
        cid = table.coflow_id
        if table.fastcore and _core is not None:
            # Same pairs, same order, same rate objects — only the zip loop
            # moves to C.
            if self.metrics is not None:
                self.metrics.inc("kernel.positive_rows.fastcore")
            _core.positive_rows(active, rate_of, fid, cid, positive, scheduled)
            return allocation
        if self.metrics is not None:
            self.metrics.inc("kernel.positive_rows.python")
        for i, rate in zip(active, rate_of):
            if rate > 0:
                positive[fid[i]] = rate
                scheduled.add(cid[i])
        return allocation
