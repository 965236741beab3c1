"""Configuration objects for the simulator and schedulers.

Two dataclasses cover everything:

* :class:`QueueConfig` — the priority-queue geometry shared by Aalo and
  Saath (§4.1 of the paper): number of queues ``K``, starting threshold
  ``S = Q^hi_0``, and exponential growth factor ``E``.
* :class:`SimulationConfig` — fabric geometry, coordinator timing (the sync
  interval δ of §5), starvation deadline factor ``d`` (§4.2 D5), and the
  feature flags that the ablation experiments toggle.

Paper defaults (§6 Setup): ``S = 10 MB``, ``E = 10``, ``K = 10``,
``δ = 8 ms``, ``d = 2``, 1 Gbps ports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .units import GBPS, MB, MSEC


@dataclass(frozen=True)
class QueueConfig:
    """Geometry of the logical priority queues (§4.1).

    Queue ``q`` covers the byte range ``[Q_lo(q), Q_hi(q))`` with
    ``Q_lo(0) = 0``, ``Q_hi(q) = S * E**q`` and ``Q_hi(K-1) = inf``.
    Lower queue index = higher priority.
    """

    num_queues: int = 10
    start_threshold: float = 10.0 * MB
    growth_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.num_queues < 1:
            raise ConfigError(f"num_queues must be >= 1, got {self.num_queues}")
        if self.start_threshold <= 0:
            raise ConfigError(
                f"start_threshold must be positive, got {self.start_threshold}"
            )
        if self.growth_factor <= 1:
            raise ConfigError(
                f"growth_factor must be > 1, got {self.growth_factor}"
            )
        # Finite upper thresholds Q_hi(0..K-2), precomputed so the hot
        # queue lookup is one bisect (the dataclass is frozen, hence the
        # object.__setattr__; the cache is derived state, not a field).
        object.__setattr__(
            self, "_finite_hi",
            [self.start_threshold * self.growth_factor**q
             for q in range(self.num_queues - 1)],
        )

    def hi_threshold(self, queue: int) -> float:
        """Upper byte threshold ``Q_hi`` of ``queue`` (inf for the last)."""
        self._check_queue(queue)
        if queue == self.num_queues - 1:
            return math.inf
        return self.start_threshold * self.growth_factor**queue

    def lo_threshold(self, queue: int) -> float:
        """Lower byte threshold ``Q_lo`` of ``queue`` (0 for the first)."""
        self._check_queue(queue)
        if queue == 0:
            return 0.0
        return self.start_threshold * self.growth_factor ** (queue - 1)

    def queue_for_bytes(self, sent_bytes: float) -> int:
        """Queue index whose ``[Q_lo, Q_hi)`` range contains ``sent_bytes``.

        This is Aalo's rule: a coflow that has sent ``b`` total bytes lives
        in the queue with ``Q_lo <= b < Q_hi``.
        """
        if sent_bytes < 0:
            raise ConfigError(f"sent_bytes must be >= 0, got {sent_bytes}")
        if sent_bytes < self.start_threshold:
            return 0
        # The queue is the unique q with Q_lo(q) <= b < Q_hi(q) (clamped to
        # the last queue) — previously found with a log plus wobble guards,
        # but a bisect over the precomputed finite thresholds lands on the
        # same fixpoint directly and skips the transcendental call.
        return bisect_right(self._finite_hi, sent_bytes)

    def queue_for_per_flow_bytes(self, max_flow_bytes: float, width: int) -> int:
        """Saath's per-flow-threshold rule (Eq. 1, §4.2 D3).

        The coflow with ``width`` flows whose largest flow has sent
        ``max_flow_bytes`` lives in the queue ``q`` with
        ``Q_hi(q-1)/width <= max_flow_bytes < Q_hi(q)/width``.
        """
        if width < 1:
            raise ConfigError(f"width must be >= 1, got {width}")
        return self.queue_for_bytes(max_flow_bytes * width)

    def min_residency_time(self, queue: int, port_rate: float) -> float:
        """Minimum time a coflow spends in ``queue`` at full ``port_rate``.

        Used to derive the starvation deadline (§4.2 D5): the byte span of
        the queue divided by the port bandwidth. The last queue has an
        infinite span; we fall back to the span it *would* have had with one
        more exponential step, so deadlines stay finite.
        """
        hi = self.hi_threshold(queue)
        lo = self.lo_threshold(queue)
        if math.isinf(hi):
            hi = lo * self.growth_factor if lo > 0 else self.start_threshold
        return max(hi - lo, self.start_threshold) / port_rate

    def _check_queue(self, queue: int) -> None:
        if not 0 <= queue < self.num_queues:
            raise ConfigError(
                f"queue index {queue} out of range [0, {self.num_queues})"
            )


@dataclass(frozen=True)
class SimulationConfig:
    """Full configuration for one simulation run.

    Attributes mirror the paper's knobs:

    * ``port_rate`` — per-port capacity in bytes/second (1 Gbps default).
    * ``queues`` — priority-queue geometry (S, E, K).
    * ``sync_interval`` — coordinator/agent sync interval δ in seconds;
      ``0`` means the idealised event-driven coordinator (schedule reacts
      instantly to every event).
    * ``deadline_factor`` — the starvation constant ``d`` (D5); ``None``
      disables starvation avoidance entirely.
    * ``contention_scope`` — ``"all"`` counts contention against every
      active coflow sharing a port (default); ``"queue"`` restricts it to
      coflows in the same priority queue.
    * ``enable_dynamics_promotion`` — §4.3 approximated-SRTF queue
      promotion once some flows of a coflow have finished.
    * ``min_rate`` — minimum residual port capacity (bytes/s) for a port to
      count as "available" in all-or-none admission.
    * ``epsilon_bytes`` — tolerance below which a flow's remaining volume is
      treated as zero (fluid-simulation rounding guard).
    * ``incremental`` — maintain scheduler bookkeeping (queue placement,
      contention counts, residual-capacity ledgers) incrementally from the
      per-event :class:`~repro.simulator.state.SchedulingDelta` instead of
      rebuilding it from scratch every round, and let the engine apply each
      allocation as a rate diff against the previous one. ``False`` (CLI
      ``--no-incremental``) is the reference oracle: full scheduler
      recompute and every allocation applied in full. Both find the next
      completion with the same scan of the running flows, and they are
      exactly equivalent (asserted by the equivalence test-suite).
    * ``fastcore`` — use the compiled C twins of the hot loops
      (:mod:`repro._fastcore`) when the extension is built. Bit-identical
      to the pure-Python rows path (asserted by the fuzz firewall);
      ``False`` forces the Python path (CLI ``--no-fastcore``). When the
      extension is absent the engine falls back to Python automatically,
      with a loud one-time ``RuntimeWarning``.
    * ``validate_incremental`` — debug mode: run the incremental *and* the
      full-recompute bookkeeping every round and assert they agree. Slower
      than either path alone; used by the equivalence tests.
    """

    port_rate: float = GBPS
    queues: QueueConfig = field(default_factory=QueueConfig)
    sync_interval: float = 0.0
    deadline_factor: float | None = 2.0
    contention_scope: str = "all"
    enable_dynamics_promotion: bool = False
    min_rate: float = 1.0
    epsilon_bytes: float = 1e-6
    max_sim_time: float = 1e7
    incremental: bool = True
    fastcore: bool = True
    validate_incremental: bool = False

    def __post_init__(self) -> None:
        if self.port_rate <= 0:
            raise ConfigError(f"port_rate must be positive, got {self.port_rate}")
        if self.sync_interval < 0:
            raise ConfigError(
                f"sync_interval must be >= 0, got {self.sync_interval}"
            )
        if self.deadline_factor is not None and self.deadline_factor <= 0:
            raise ConfigError(
                f"deadline_factor must be positive or None, "
                f"got {self.deadline_factor}"
            )
        if self.contention_scope not in ("all", "queue"):
            raise ConfigError(
                f"contention_scope must be 'all' or 'queue', "
                f"got {self.contention_scope!r}"
            )
        if self.min_rate <= 0:
            raise ConfigError(f"min_rate must be positive, got {self.min_rate}")

    def with_updates(self, **changes: object) -> "SimulationConfig":
        """Return a copy with ``changes`` applied (frozen-dataclass helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: The paper's default simulation settings (§6 Setup).
PAPER_DEFAULTS = SimulationConfig(
    port_rate=GBPS,
    queues=QueueConfig(num_queues=10, start_threshold=10.0 * MB,
                       growth_factor=10.0),
    sync_interval=0.0,
    deadline_factor=2.0,
)

#: δ used by the paper's prototype: 8 ms (time to send 1 MB at 1 Gbps).
PAPER_SYNC_INTERVAL = 8.0 * MSEC
