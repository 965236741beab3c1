"""Testbed mode: imperfection model standing in for the Azure deployment.

The paper's §7 numbers come from a 150-node Azure testbed running the C++
prototype over real TCP. Two effects separate that environment from the
idealised simulator and explain why the testbed CDF (Fig. 15) has both a
sub-1 tail and a long >1 tail:

1. **Schedule staleness** — local agents keep following the previous
   schedule until a new one arrives (coordinator computes every δ and the
   push takes time). Reproduced with the engine's ``sync_interval``.
2. **Imperfect rate enforcement** — application-layer pacing over TCP never
   achieves exactly the allocated rate; achieved throughput jitters below
   (and occasionally at) the allocation.

:class:`RateJitter` models (2) as a multiplicative efficiency drawn per
(flow, schedule-application): ``achieved = allocated * eta``, with ``eta``
sampled from a truncated normal around ``mean_efficiency``. Pass it as the
engine's ``rate_perturbation`` hook, which the session calls once per full
apply as ``hook(flows, rates) -> rates`` with every available flow that
holds a positive rate, in active-coflow then pending-row order. One
vectorised draw covers the whole apply; it consumes the generator exactly
as one scalar draw per flow in that order would, so the achieved rates are
bit-identical to a per-flow hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import PAPER_SYNC_INTERVAL, SimulationConfig
from ..errors import ConfigError
from ..rng import make_rng
from .flows import Flow


@dataclass
class RateJitter:
    """Multiplicative achieved-rate noise for testbed mode.

    ``eta ~ clip(Normal(mean_efficiency, sigma), lo, 1.0)``; each flow
    re-draws whenever a new schedule is applied, so long flows average out
    while short flows can be noticeably lucky/unlucky — matching the wide
    per-coflow spread of Fig. 15.
    """

    mean_efficiency: float = 0.9
    sigma: float = 0.08
    floor: float = 0.5
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.mean_efficiency <= 1:
            raise ConfigError(
                f"mean_efficiency must be in (0, 1], got {self.mean_efficiency}"
            )
        if not 0 <= self.floor <= self.mean_efficiency:
            raise ConfigError("floor must be in [0, mean_efficiency]")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(
                f"sigma must be finite and >= 0, got {self.sigma}"
            )
        self._rng = make_rng(self.seed)

    def __call__(self, flows: Sequence[Flow],
                 rates: Sequence[float]) -> list[float]:
        """Achieved rates for one apply: ``rates[k] * eta_k``, with the
        etas drawn in ``rates`` order. ``flows`` is unused: every flow
        draws from the same distribution."""
        eta = self._rng.normal(self.mean_efficiency, self.sigma,
                               size=len(rates))
        np.clip(eta, self.floor, 1.0, out=eta)
        eta *= rates
        return eta.tolist()


def testbed_config(base: SimulationConfig | None = None,
                   *, sync_interval: float = PAPER_SYNC_INTERVAL
                   ) -> SimulationConfig:
    """A config with the paper's coordinator timing (δ = 8 ms) switched on."""
    base = base or SimulationConfig()
    return base.with_updates(sync_interval=sync_interval)
