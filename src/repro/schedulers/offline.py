"""Offline ordering policies SCF, SRTF and LWTF (§2.4, Fig. 3).

These clairvoyant policies share one skeleton — sort active coflows by a
priority key, then run Varys's
:func:`~repro.schedulers.varys.madd_round` (MADD rates on the residual
capacity, backfill the rest) — and differ only in the key:

* **SCF** (Shortest CoFlow First): static total size, the direct port of
  SJF to coflows.
* **SRTF** (Shortest Remaining Time First): total remaining bytes, SJF with
  preemption.
* **LWTF** (Least Waiting Time First): ``t_c · k_c`` — remaining bottleneck
  duration times contention. This is the policy the paper uses to show that
  accounting for the spatial dimension beats SJF/SRTF (Fig. 3), and the
  offline ancestor of Saath's LCoF.

All three are used **only** in the motivation experiment; Saath itself never
reads flow volumes. Only the ordering is per-policy Python: with the
compiled core the shared round is one ``madd_round`` call into
:mod:`repro._fastcore`.
"""

from __future__ import annotations

from typing import Callable

from ..config import SimulationConfig
from ..simulator.flows import CoFlow
from ..simulator.state import ClusterState
from .base import Allocation, Scheduler
from .varys import madd_round

#: Signature of a priority-key function: (coflow, state) → sort key.
KeyFunc = Callable[[CoFlow, ClusterState], float]


class OrderedClairvoyantScheduler(Scheduler):
    """Shared skeleton: clairvoyant ordering + MADD + greedy backfill."""

    clairvoyant = True

    def __init__(self, config: SimulationConfig):
        super().__init__(config)

    def priority_key(self, coflow: CoFlow, state: ClusterState) -> float:
        raise NotImplementedError

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        order = sorted(
            state.active_coflows,
            key=lambda c: (self.priority_key(c, state),
                           c.arrival_time, c.coflow_id),
        )
        return madd_round(state, now, order, self._round_ledger(state))


class ScfScheduler(OrderedClairvoyantScheduler):
    """Shortest CoFlow First: order by static total size."""

    name = "scf"

    def priority_key(self, coflow: CoFlow, state: ClusterState) -> float:
        return coflow.total_volume


class SrtfScheduler(OrderedClairvoyantScheduler):
    """Shortest Remaining Time First: order by remaining bytes."""

    name = "srtf"

    def priority_key(self, coflow: CoFlow, state: ClusterState) -> float:
        return coflow.remaining


class LwtfScheduler(OrderedClairvoyantScheduler):
    """Least Waiting Time First: order by ``t_c · k_c`` (§2.4)."""

    name = "lwtf"

    def schedule(self, state: ClusterState, now: float) -> Allocation:
        # Imported here, not at module level: repro.core depends on
        # repro.schedulers.base, so a top-level import would be circular.
        from ..core.contention import contention_counts

        # Contention is a property of the whole active set; compute it once
        # per round and let priority_key read the cache.
        self._contention = contention_counts(state.active_coflows, scope="all")
        return super().schedule(state, now)

    def priority_key(self, coflow: CoFlow, state: ClusterState) -> float:
        from ..core.contention import waiting_time_increase

        return waiting_time_increase(
            coflow, self._contention, self.config.port_rate
        )
