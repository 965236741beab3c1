"""Varys with SEBF + MADD (Chowdhury et al., SIGCOMM'14) — offline baseline.

Varys assumes coflow sizes are known a-priori (**clairvoyant**). At every
scheduling point it:

1. orders active coflows by **Smallest Effective Bottleneck First**: the
   coflow whose bottleneck port would finish soonest, ``Γ_c = max_p
   (remaining bytes at p) / capacity(p)``, goes first;
2. allocates each coflow **MADD** rates on the residual capacity — just
   enough for every flow to finish at the coflow's bottleneck completion
   time, which wastes no bandwidth on non-bottleneck flows;
3. later coflows fill the leftovers (work conservation falls out of MADD on
   residual capacity: every coflow still obtains rates whenever all its
   ports retain some residual).

The paper's Fig. 9 shows Saath — fully online — achieves speedups close to
this offline scheduler.

Steps 2–3 are :func:`madd_round`, which the other clairvoyant baselines
(SCF/SRTF/LWTF in :mod:`repro.schedulers.offline`, Sincronia) share: each
policy only builds its coflow order.

With the compiled core (``table.fastcore``) a Varys round makes two calls
into :mod:`repro._fastcore` instead of per-coflow Python: ``sebf_gammas``
computes every active coflow's Γ, and ``madd_round`` runs MADD admission
coflow by coflow and then the greedy backfill. The Python loops
(:meth:`VarysSebfScheduler._compute_gamma` and the body of
:func:`madd_round`) are their twins; both give the same bits.
"""

from __future__ import annotations

import math

from .._fastcore import core as _core
from ..simulator.flows import CoFlow
# The Python twin of madd_round calls the *_rows forms through these module
# globals; the object and *_paths names stay bound because layerbench's
# traced run wraps the allocators named in this module.
from ..simulator.ratealloc import (  # noqa: F401
    greedy_residual_rates,
    greedy_residual_rates_rows,
    madd_rates,
    madd_rates_paths,
    madd_rates_rows,
)
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler


def madd_round(state: ClusterState, now: float, order: list[CoFlow],
               ledger) -> Allocation:
    """One clairvoyant round: MADD rates in ``order``, then backfill.

    Each coflow in turn gets MADD rates on the residual ``ledger`` over its
    schedulable rows: Γ covers every link of its flows' paths, so on a
    multi-tier topology the rates respect the true bottleneck. Coflows
    fully blocked at some link (rare) are then backfilled greedily, in the
    same order. With the compiled core the whole round is one
    ``madd_round`` call; the loop below is its Python twin.
    """
    table = state.table
    allocation = Allocation()
    metrics = state.metrics
    if table.fastcore and _core is not None:
        if metrics is not None:
            metrics.inc("kernel.madd_round.fastcore")
        rows_of = state.pending_row_map
        _core.madd_round(
            [rows_of[c.coflow_id] for c in order], now,
            state.respect_availability, table.finish_time,
            table.available_time, table.volume, table.bytes_sent, table.src,
            table.dst, table.link_a, table.link_b, table.flow_id,
            table.coflow_id, ledger.capacity_list, ledger.used_list,
            ledger.touched_set, allocation.rates,
            allocation.scheduled_coflows, allocation.work_conserved_coflows,
        )
        return allocation
    if metrics is not None:
        metrics.inc("kernel.madd_round.python")
    skipped: list[CoFlow] = []
    for coflow in order:
        rows = state.schedulable_rows(coflow, now)
        if not rows:
            continue
        rates = madd_rates_rows(rows, table, ledger)
        if rates:
            allocation.rates.update(rates)
            allocation.scheduled_coflows.add(coflow.coflow_id)
        else:
            skipped.append(coflow)
    if skipped:
        cid = table.coflow_id
        fid = table.flow_id
        wc_rows = [i for c in skipped for i in state.schedulable_rows(c, now)]
        extra = greedy_residual_rates_rows(wc_rows, table, ledger)
        if extra:
            allocation.rates.update(extra)
            allocation.work_conserved_coflows |= {
                cid[i] for i in wc_rows if fid[i] in extra
            }
    return allocation


class VarysSebfScheduler(Scheduler):
    """SEBF ordering + MADD rate assignment + greedy backfill."""

    name = "varys-sebf"
    clairvoyant = True

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        # Γ reads the round ledger's capacities, which hold the dynamics
        # overrides, so the ledger comes first.
        ledger = self._round_ledger(state)
        coflows = state.active_coflows
        table = state.table
        if table.fastcore and _core is not None:
            if self.metrics is not None:
                self.metrics.inc("kernel.sebf_gammas.fastcore")
            rows_of = state.pending_row_map
            gammas = _core.sebf_gammas(
                [rows_of[c.coflow_id] for c in coflows], table.finish_time,
                table.volume, table.bytes_sent, table.src, table.dst,
                ledger.capacity_list,
            )
        else:
            if self.metrics is not None:
                self.metrics.inc("kernel.sebf_gammas.python")
            lcap = ledger.capacity_list
            gammas = [self._compute_gamma(c, state, lcap) for c in coflows]
        # SEBF *ordering* keeps the paper's host-port Γ on every fabric —
        # the clairvoyant priority is a policy choice; MADD's rate
        # feasibility (madd_round) covers every path link. Coflow ids are
        # unique, so the sort never compares two coflows.
        order = [entry[3] for entry in sorted(
            [(gamma, c.arrival_time, c.coflow_id, c)
             for gamma, c in zip(gammas, coflows)]
        )]
        return madd_round(state, now, order, ledger)

    def _compute_gamma(self, coflow: CoFlow, state: ClusterState,
                       lcap) -> float:
        """Effective bottleneck completion time at full port capacity: the
        largest remaining bytes / capacity over the coflow's host ports,
        ``lcap`` being the round ledger's ``capacity_list`` (the Python
        twin of the compiled ``sebf_gammas``)."""
        load: dict[int, float] = {}
        get = load.get
        t = state.table
        ft, vol, bs = t.finish_time, t.volume, t.bytes_sent
        src_col, dst_col = t.src, t.dst
        for i in state.pending_rows(coflow):
            if ft[i] is not None:
                continue
            remaining = vol[i] - bs[i]
            if remaining < 0.0:
                remaining = 0.0
            src = src_col[i]
            dst = dst_col[i]
            load[src] = get(src, 0.0) + remaining
            load[dst] = get(dst, 0.0) + remaining
        gamma = 0.0
        for port, volume in load.items():
            cap = lcap[port]
            gamma = max(gamma, volume / cap if cap > 0 else math.inf)
        return gamma
