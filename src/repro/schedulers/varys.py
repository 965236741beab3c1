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
"""

from __future__ import annotations

import math

from ..config import SimulationConfig
from ..simulator.flows import CoFlow
# Only the *_rows forms are called; the object and *_paths names stay bound
# because layerbench's traced run wraps the allocators named in this module.
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
    same order.
    """
    table = state.table
    allocation = Allocation()
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

    def __init__(self, config: SimulationConfig):
        super().__init__(config)
        #: coflow_id → Γ, valid until the coflow's remaining bytes change.
        self._gamma_cache: dict[int, float] = {}

    def _refresh_gamma_cache(self, state: ClusterState) -> None:
        """Invalidate cached Γ for coflows whose remaining bytes may have
        moved since the last round (the engine's dirty set); everyone
        else's Γ is bit-identical to a recompute. Full rounds (first round,
        dynamics, ``incremental=False``) drop the whole cache."""
        cache = self._gamma_cache
        delta = state.delta
        if not self.config.incremental or delta.full:
            cache.clear()
            return
        for cid in delta.completed:
            cache.pop(cid, None)
        for cid in delta.arrived:
            cache.pop(cid, None)
        for cid in delta.progressed:
            cache.pop(cid, None)
        for cid in delta.flow_completed:
            cache.pop(cid, None)

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        self._refresh_gamma_cache(state)
        # SEBF *ordering* keeps the paper's host-port Γ on every fabric —
        # the clairvoyant priority is a policy choice; MADD's rate
        # feasibility (madd_round) covers every path link.
        order = sorted(
            state.active_coflows,
            key=lambda c: (self._gamma(c, state), c.arrival_time, c.coflow_id),
        )
        return madd_round(state, now, order, self._round_ledger(state))

    def _gamma(self, coflow: CoFlow, state: ClusterState) -> float:
        """Effective bottleneck completion time at full port capacity.

        Memoised per coflow; :meth:`_refresh_gamma_cache` drops entries
        whose inputs (remaining bytes, port capacities) may have changed.
        """
        cached = self._gamma_cache.get(coflow.coflow_id)
        if cached is not None:
            return cached
        gamma = self._compute_gamma(coflow, state)
        self._gamma_cache[coflow.coflow_id] = gamma
        return gamma

    def _compute_gamma(self, coflow: CoFlow, state: ClusterState) -> float:
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
        if not load:
            return 0.0
        if not state.capacity_override:
            # Homogeneous fabric: every port runs at the same rate, and
            # float division by a positive constant is monotone, so
            # ``max(load) / rate`` is bit-identical to the per-port maximum
            # of ``load / rate`` — one division instead of one per port.
            rate = state.fabric.port_rate
            return max(load.values()) / rate if rate > 0 else math.inf
        gamma = 0.0
        for port, volume in load.items():
            cap = state.port_capacity(port)
            gamma = max(gamma, volume / cap if cap > 0 else math.inf)
        return gamma
