"""Datacenter fabric model: a non-blocking big switch.

Following the paper's evaluation setup (§6): full bisection bandwidth is
assumed, so the network is abstracted as one big switch where congestion can
occur only at the sender (uplink) and receiver (downlink) ports. Each machine
``i`` contributes sender port ``SND(i)`` and receiver port ``RCV(i)``.

Port identifiers are plain integers in two disjoint ranges so that a coflow's
"ports" set (needed by all-or-none and contention) can be a flat set:
machine ``i``'s sender port is ``i`` and its receiver port is ``i + n``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..errors import CapacityViolationError, ConfigError

#: Slack factor when validating allocations against capacity, to absorb
#: floating-point accumulation across many flows.
_CAPACITY_TOLERANCE = 1.0 + 1e-9


@dataclass(frozen=True)
class Fabric:
    """A big-switch fabric with ``num_machines`` machines.

    Every port has the same capacity ``port_rate`` (bytes/second), matching
    the paper's homogeneous 1 Gbps setting; heterogeneous capacities are
    modelled with dynamics actions —
    :class:`repro.simulator.dynamics.PortDegradation` for host ports, or
    :class:`repro.simulator.dynamics.LinkDegradation` for any link of a
    multi-tier :class:`repro.simulator.topology.Topology` (which wraps a
    fabric with core links and their own capacities).
    """

    num_machines: int
    port_rate: float

    def __post_init__(self) -> None:
        if self.num_machines < 2:
            raise ConfigError(
                f"fabric needs at least 2 machines, got {self.num_machines}"
            )
        if self.port_rate <= 0:
            raise ConfigError(f"port_rate must be positive, got {self.port_rate}")

    # ---- port id scheme ----------------------------------------------------

    def sender_port(self, machine: int) -> int:
        """Sender (uplink) port id of ``machine``."""
        self._check_machine(machine)
        return machine

    def receiver_port(self, machine: int) -> int:
        """Receiver (downlink) port id of ``machine``."""
        self._check_machine(machine)
        return machine + self.num_machines

    def is_sender_port(self, port: int) -> bool:
        return 0 <= port < self.num_machines

    def is_receiver_port(self, port: int) -> bool:
        return self.num_machines <= port < 2 * self.num_machines

    def machine_of(self, port: int) -> int:
        """Machine owning ``port`` (either direction)."""
        if self.is_sender_port(port):
            return port
        if self.is_receiver_port(port):
            return port - self.num_machines
        raise ConfigError(f"port {port} out of range for {self}")

    @property
    def num_ports(self) -> int:
        """Total number of ports (senders + receivers)."""
        return 2 * self.num_machines

    def all_ports(self) -> range:
        return range(self.num_ports)

    def capacity(self, port: int) -> float:
        """Capacity of ``port`` in bytes/second."""
        if not 0 <= port < self.num_ports:
            raise ConfigError(f"port {port} out of range for {self}")
        return self.port_rate

    def _check_machine(self, machine: int) -> None:
        if not 0 <= machine < self.num_machines:
            raise ConfigError(
                f"machine {machine} out of range [0, {self.num_machines})"
            )


class PortLedger:
    """Mutable residual-capacity tracker used while building an allocation.

    Schedulers repeatedly ask "how much is left at this port?" and then
    commit flow rates; the ledger centralises that arithmetic and raises
    :class:`CapacityViolationError` on over-commit, which turns subtle
    scheduler bugs into loud failures.

    The ledger records the set of ports touched since the last
    :meth:`reset`, so clearing it between scheduling rounds costs
    O(changed ports) rather than O(all ports) — the basis of the
    :meth:`~repro.simulator.state.ClusterState.acquire_ledger` reuse path.

    Port ids are dense (machine ``i`` owns sender port ``i`` and receiver
    port ``i + n``), so capacity and usage live in flat ``array('d')``
    buffers indexed by port id; the rate allocators index them directly via
    :attr:`capacity_list` / :attr:`used_list` in their fill loops, and the
    compiled kernels in :mod:`repro._fastcore` address the same buffers as
    contiguous C ``double`` arrays.
    """

    __slots__ = ("_fabric", "_capacity", "_used", "_touched", "_metrics")

    def __init__(self, fabric: Fabric,
                 capacity_override: dict[int, float] | None = None):
        self._fabric = fabric
        #: Optional observability registry counting allocation-primitive
        #: calls (set by the owning ClusterState; None = disabled).
        self._metrics = None
        self._capacity: array = array(
            "d", [fabric.capacity(p) for p in fabric.all_ports()]
        )
        if capacity_override:
            num_ports = fabric.num_ports
            for port, cap in capacity_override.items():
                if not 0 <= port < num_ports:
                    raise ConfigError(
                        f"capacity override for unknown link {port}: "
                        f"big-switch fabric has ports [0, {num_ports}) — "
                        f"core-link overrides need a multi-tier topology"
                    )
                if cap < 0:
                    raise ConfigError(
                        f"capacity override for port {port} must be >= 0"
                    )
                self._capacity[port] = cap
        self._used: array = array("d", bytes(8 * fabric.num_ports))
        #: Ports with a non-zero commitment since the last reset.
        self._touched: set[int] = set()

    @property
    def fabric(self) -> Fabric:
        return self._fabric

    @property
    def capacity_list(self) -> array:
        """Per-port capacity, indexed by port id (read-only by convention)."""
        return self._capacity

    @property
    def used_list(self) -> array:
        """Per-port usage, indexed by port id (read-only by convention)."""
        return self._used

    @property
    def touched_set(self) -> set[int]:
        """Ports committed since the last reset. Allocator fill loops that
        write :attr:`used_list` directly must add the ports they touch, or
        :meth:`reset` will miss them."""
        return self._touched

    def capacity(self, port: int) -> float:
        return self._capacity[port]

    def used(self, port: int) -> float:
        return self._used[port]

    def residual(self, port: int) -> float:
        """Unallocated capacity at ``port`` (never negative)."""
        return max(self._capacity[port] - self._used[port], 0.0)

    def has_capacity(self, port: int, min_rate: float) -> bool:
        """True if ``port`` still has at least ``min_rate`` bytes/s free."""
        return self.residual(port) >= min_rate

    def commit(self, src: int, dst: int, rate: float) -> None:
        """Reserve ``rate`` bytes/s on the sender and receiver of one flow."""
        if rate < 0:
            raise ConfigError(f"rate must be >= 0, got {rate}")
        if rate == 0:
            return
        if self._metrics is not None:
            self._metrics.inc("ledger.commit")
        used = self._used
        capacity = self._capacity
        touched = self._touched
        touched.add(src)
        touched.add(dst)
        # Unrolled src/dst update: this is the hottest ledger operation.
        cap = capacity[src]
        new_used = used[src] + rate
        if new_used > cap * _CAPACITY_TOLERANCE:
            raise CapacityViolationError(str(src), new_used, cap)
        used[src] = new_used if new_used < cap else cap
        cap = capacity[dst]
        new_used = used[dst] + rate
        if new_used > cap * _CAPACITY_TOLERANCE:
            raise CapacityViolationError(str(dst), new_used, cap)
        used[dst] = new_used if new_used < cap else cap

    def fill(self, src: int, dst: int) -> float:
        """Commit and return ``min(residual(src), residual(dst))``.

        The greedy work-conservation primitive: grants whatever the tighter
        of the two ports still has. Returns 0.0 (committing nothing) when
        either port is exhausted. Cannot over-commit by construction, so it
        skips :meth:`commit`'s violation check.
        """
        if self._metrics is not None:
            self._metrics.inc("ledger.fill")
        used = self._used
        capacity = self._capacity
        rate = capacity[src] - used[src]
        rate_dst = capacity[dst] - used[dst]
        if rate_dst < rate:
            rate = rate_dst
        if rate <= 0:
            return 0.0
        used[src] += rate
        used[dst] += rate
        self._touched.add(src)
        self._touched.add(dst)
        return rate

    def reset(self) -> None:
        """Release every commitment in O(ports touched since last reset).

        Only ports named in a :meth:`commit` since the previous reset can
        have non-zero usage, so zeroing exactly those restores a pristine
        ledger without walking the whole fabric.
        """
        used = self._used
        for port in self._touched:
            used[port] = 0.0
        self._touched.clear()

    def snapshot_residuals(self) -> dict[int, float]:
        """Copy of per-port residual capacity (for diagnostics/tests)."""
        return {p: self.residual(p) for p in self._fabric.all_ports()}
