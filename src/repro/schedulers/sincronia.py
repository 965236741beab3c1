"""Sincronia-style bottleneck ordering (Agarwal et al., SIGCOMM'18).

A post-Saath clairvoyant scheduler included as an *extension* baseline
(not part of the paper's evaluation): Sincronia showed that a good total
order of coflows plus greedy per-port service is within 4× of optimal, and
computes the order with a Bottleneck-Select-Scale-Iterate (BSSI) primal-
dual pass:

1. find the most-loaded port ``b`` (largest total remaining bytes);
2. among unordered coflows using ``b``, pick the *largest* one on that
   port to go **last**;
3. scale down the loads of the remaining coflows on ``b`` and iterate.

Flows are then admitted greedily in coflow order with MADD rates through
the round the other clairvoyant baselines in this repository share
(:func:`~repro.schedulers.varys.madd_round`, one ``madd_round`` call into
:mod:`repro._fastcore` with the compiled core), so the comparison isolates
the *ordering* policy. BSSI orders by host-port loads; the committed rates
also respect core-link capacity on a multi-tier topology.
"""

from __future__ import annotations

from collections import defaultdict

from ..config import SimulationConfig
from ..simulator.flows import CoFlow
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler
from .varys import madd_round


def bssi_order(coflows: list[CoFlow]) -> list[CoFlow]:
    """Bottleneck-Select-Scale-Iterate total order (first = schedule first).

    Implementation note: weights start at 1 per coflow; the "scale" step
    reduces a coflow's weight by the ratio its bottleneck-port load
    contributes, which is what breaks ties away from naive largest-last.
    Runs in ``O(n^2 * ports)`` — fine at per-round active-set sizes.
    """
    remaining = {c.coflow_id: c for c in coflows}
    port_load_of: dict[int, dict[int, float]] = {}
    for c in coflows:
        loads: dict[int, float] = defaultdict(float)
        for f in c.flows:
            if f.finished:
                continue
            loads[f.src] += f.remaining
            loads[f.dst] += f.remaining
        port_load_of[c.coflow_id] = dict(loads)

    weights = {c.coflow_id: 1.0 for c in coflows}
    reversed_order: list[CoFlow] = []

    while remaining:
        # 1. bottleneck port over the still-unordered coflows.
        total: dict[int, float] = defaultdict(float)
        for cid in remaining:
            for port, load in port_load_of[cid].items():
                total[port] += load
        if not total:
            reversed_order.extend(remaining.values())
            break
        bottleneck = max(total, key=lambda p: total[p])

        # 2. weighted-largest job on the bottleneck goes last.
        candidates = [
            cid for cid in remaining
            if port_load_of[cid].get(bottleneck, 0.0) > 0
        ]
        if not candidates:
            # Nobody uses the bottleneck (all-zero loads): emit arbitrary.
            cid = next(iter(remaining))
        else:
            cid = max(
                candidates,
                key=lambda c: (port_load_of[c][bottleneck] / weights[c], c),
            )
        last = remaining.pop(cid)
        reversed_order.append(last)

        # 3. scale: the removed coflow "absorbs" bottleneck capacity; the
        # others' urgency on that port grows proportionally.
        removed_load = port_load_of[cid].get(bottleneck, 0.0)
        if total[bottleneck] > removed_load > 0:
            factor = 1.0 - removed_load / total[bottleneck]
            for other in remaining:
                share = port_load_of[other].get(bottleneck, 0.0)
                if share > 0:
                    weights[other] = max(weights[other] * factor, 1e-12)

    reversed_order.reverse()
    return reversed_order


class SincroniaScheduler(Scheduler):
    """BSSI coflow order + MADD rates + greedy backfill (clairvoyant)."""

    name = "sincronia-bssi"
    clairvoyant = True

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        order = bssi_order(list(state.active_coflows))
        return madd_round(state, now, order, self._round_ledger(state))
