"""Multi-tier fabric topologies: link graphs, paths and the link ledger.

The paper evaluates Saath on a non-blocking big switch (§6), and
:class:`~repro.simulator.fabric.Fabric` models exactly that: congestion can
only occur at host ingress/egress ports. This module generalises the fabric
into a *topology* — a graph of capacitated links — so oversubscribed
datacenter networks become simulable without touching the big-switch
default:

* :class:`Topology` — the abstraction: a host-port :class:`Fabric` plus
  zero or more *core links*, and a mapping from a ``(src port, dst port)``
  pair to the core links its traffic crosses.
* :class:`BigSwitchTopology` — the degenerate case: no core links, every
  path is ``(sender port, receiver port)``. Simulations configured with it
  are byte-identical to the plain-fabric default **by construction** (no
  path machinery engages).
* :class:`LeafSpineTopology` — racks of hosts behind leaf switches, leaves
  connected to every spine, with a configurable oversubscription ratio.
  Rack-local traffic never leaves the leaf; cross-rack traffic crosses one
  leaf→spine uplink and one spine→leaf downlink chosen by a pluggable
  *path selector* (ECMP hash, least-loaded, static).
* :class:`PathMap` — the per-run path assignment: caches the chosen core
  links per ``(src, dst)`` pair and carries the selector's state.
* :class:`LinkLedger` — the residual-capacity ledger over *every* link.
  It extends the dense :class:`~repro.simulator.fabric.PortLedger` columns
  (``capacity_list`` / ``used_list`` / ``touched_set``) to core links and
  overrides the commit/fill primitives to charge a flow's whole path, so
  schedulers that allocate through the ledger see the true bottleneck link
  without knowing the topology.
* :class:`TopologySpec` — a picklable, hashable recipe (kind,
  oversubscription, racks, spines, selector) that the CLI and the sweep
  runner use to rebuild a topology in worker processes and content-hash it
  into result-cache keys.

Link identifiers extend the fabric's dense port-id scheme: host ports keep
ids ``0 .. 2n-1`` and core links occupy ``2n .. num_links-1``, so every
per-link column is a flat list indexed by link id and the existing
port-indexed code paths work unchanged on a :class:`LinkLedger`.
"""

from __future__ import annotations

import abc
import math
from array import array
from dataclasses import dataclass, fields

from ..errors import CapacityViolationError, ConfigError
from .fabric import _CAPACITY_TOLERANCE, Fabric, PortLedger

#: Registered path-selection strategies (see :meth:`PathMap._choose`).
PATH_SELECTORS = ("ecmp", "least-loaded", "static")


class Topology(abc.ABC):
    """A fabric plus a (possibly empty) graph of capacitated core links.

    Concrete topologies define the link-id space above the host ports and
    the candidate core-link paths between two host ports; everything else
    (ledgers, allocators, schedulers) consumes the topology through this
    interface and stays geometry-agnostic.
    """

    #: Path-selector name used when a :class:`PathMap` is built from this
    #: topology (one of :data:`PATH_SELECTORS`).
    path_select: str = "ecmp"

    @property
    @abc.abstractmethod
    def fabric(self) -> Fabric:
        """The host-port fabric this topology is built over."""

    @property
    @abc.abstractmethod
    def num_links(self) -> int:
        """Total number of links: host ports first, then core links."""

    @property
    def num_core_links(self) -> int:
        """Number of links beyond the host ports (0 = big switch)."""
        return self.num_links - self.fabric.num_ports

    def core_links(self) -> range:
        """Ids of the core links (empty for a big switch)."""
        return range(self.fabric.num_ports, self.num_links)

    @abc.abstractmethod
    def link_capacity(self, link: int) -> float:
        """Capacity of ``link`` in bytes/second.

        Raises :class:`~repro.errors.ConfigError` naming the offending
        link id when it is outside ``[0, num_links)``.
        """

    @abc.abstractmethod
    def path_candidates(
        self, src: int, dst: int
    ) -> list[tuple[int, ...]]:
        """Candidate core-link paths from sender port ``src`` to receiver
        port ``dst``, one tuple per choice (e.g. one per spine).

        An empty list means the pair needs no core links (big switch, or
        rack-local traffic) — its path is just ``(src, dst)``.
        """

    def link_name(self, link: int) -> str:
        """Human-readable name of ``link`` (diagnostics and errors)."""
        fabric = self.fabric
        if fabric.is_sender_port(link):
            return f"host{link}-up"
        if fabric.is_receiver_port(link):
            return f"host{fabric.machine_of(link)}-down"
        return f"core{link}"

    def _check_link(self, link: int) -> None:
        if not 0 <= link < self.num_links:
            raise ConfigError(
                f"link {link} out of range [0, {self.num_links}) "
                f"for {type(self).__name__}"
            )


class BigSwitchTopology(Topology):
    """The paper's non-blocking big switch as a topology.

    No core links exist, so every flow's path is exactly its sender and
    receiver port and the simulation is byte-identical to running on the
    bare :class:`~repro.simulator.fabric.Fabric` — the path-aware machinery
    never engages (``num_core_links == 0``).
    """

    def __init__(self, fabric: Fabric):
        self._fabric = fabric

    @property
    def fabric(self) -> Fabric:
        return self._fabric

    @property
    def num_links(self) -> int:
        return self._fabric.num_ports

    def link_capacity(self, link: int) -> float:
        self._check_link(link)
        return self._fabric.capacity(link)

    def path_candidates(self, src: int, dst: int) -> list[tuple[int, ...]]:
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BigSwitchTopology(machines={self._fabric.num_machines})"


class LeafSpineTopology(Topology):
    """An oversubscribed two-tier leaf–spine fabric.

    Machines are packed into ``racks`` contiguous racks (machine ``i``
    lives in rack ``i // ceil(n / racks)``); each rack's leaf switch
    connects to every spine with one uplink and one downlink. A rack with
    ``h`` hosts offers ``h · port_rate`` of edge bandwidth; its total
    fabric bandwidth is that divided by ``oversub``, split equally across
    the ``spines`` uplinks (and, symmetrically, downlinks):

    ``capacity(leaf r ↔ spine s) = rack_size(r) · port_rate / (oversub · spines)``

    ``oversub = 1`` is a rack-level non-blocking fabric (per-spine hash
    collisions can still congest individual uplinks — as in real ECMP
    fabrics); ``oversub = 4`` is the classic 4:1 oversubscribed edge.

    Rack-local flows never touch core links; cross-rack flows cross
    exactly two (uplink at the source rack, downlink at the destination
    rack), both attached to the spine chosen by the path selector.
    """

    def __init__(
        self,
        fabric: Fabric,
        *,
        racks: int | None = None,
        spines: int | None = None,
        oversub: float = 1.0,
        path_select: str = "ecmp",
    ):
        n = fabric.num_machines
        if racks is None:
            racks = min(n, max(2, int(round(math.sqrt(n)))))
        if spines is None:
            spines = 2
        if not 1 <= racks <= n:
            raise ConfigError(
                f"racks must be in [1, {n}] for {n} machines, got {racks}"
            )
        if spines < 1:
            raise ConfigError(f"spines must be >= 1, got {spines}")
        if oversub <= 0:
            raise ConfigError(
                f"oversubscription ratio must be positive, got {oversub}"
            )
        if path_select not in PATH_SELECTORS:
            raise ConfigError(
                f"unknown path selector {path_select!r}; "
                f"known: {PATH_SELECTORS}"
            )
        self._fabric = fabric
        self.racks = racks
        self.spines = spines
        self.oversub = float(oversub)
        self.path_select = path_select
        #: Hosts per rack (last rack may be smaller when n % racks != 0).
        self._rack_stride = math.ceil(n / racks)
        #: Per-rack host count, used to size each rack's fabric bandwidth.
        self._rack_size = [0] * racks
        for machine in range(n):
            self._rack_size[machine // self._rack_stride] += 1
        if 0 in self._rack_size:
            raise ConfigError(
                f"racks={racks} leaves empty racks for {n} machines; "
                f"use at most {math.ceil(n / self._rack_stride)} racks"
            )
        #: Per-(rack, spine) core-link capacity, precomputed.
        rate = fabric.port_rate
        self._core_capacity = [
            self._rack_size[r] * rate / (self.oversub * spines)
            for r in range(racks)
            for _ in range(spines)
        ]
        #: Candidate core-link paths per (src rack, dst rack), one per
        #: spine, built lazily (pair space is racks², typically tiny).
        self._candidates: dict[tuple[int, int], list[tuple[int, int]]] = {}

    # ---- geometry ----------------------------------------------------------

    @property
    def fabric(self) -> Fabric:
        return self._fabric

    @property
    def num_links(self) -> int:
        return self._fabric.num_ports + 2 * self.racks * self.spines

    def rack_of(self, machine: int) -> int:
        """Rack index of ``machine``."""
        self._fabric._check_machine(machine)
        return machine // self._rack_stride

    def rack_size(self, rack: int) -> int:
        """Number of hosts in ``rack``."""
        if not 0 <= rack < self.racks:
            raise ConfigError(
                f"rack {rack} out of range [0, {self.racks})"
            )
        return self._rack_size[rack]

    def uplink(self, rack: int, spine: int) -> int:
        """Link id of the leaf(``rack``) → spine(``spine``) uplink."""
        return (self._fabric.num_ports
                + 2 * (rack * self.spines + spine))

    def downlink(self, rack: int, spine: int) -> int:
        """Link id of the spine(``spine``) → leaf(``rack``) downlink."""
        return self.uplink(rack, spine) + 1

    def link_capacity(self, link: int) -> float:
        self._check_link(link)
        ports = self._fabric.num_ports
        if link < ports:
            return self._fabric.capacity(link)
        return self._core_capacity[(link - ports) // 2]

    def link_name(self, link: int) -> str:
        ports = self._fabric.num_ports
        if link < ports:
            return super().link_name(link)
        pair, down = divmod(link - ports, 2)
        rack, spine = divmod(pair, self.spines)
        if down:
            return f"spine{spine}->leaf{rack}"
        return f"leaf{rack}->spine{spine}"

    def path_candidates(self, src: int, dst: int) -> list[tuple[int, ...]]:
        fabric = self._fabric
        src_rack = self.rack_of(fabric.machine_of(src))
        dst_rack = self.rack_of(fabric.machine_of(dst))
        if src_rack == dst_rack:
            return []
        key = (src_rack, dst_rack)
        candidates = self._candidates.get(key)
        if candidates is None:
            candidates = [
                (self.uplink(src_rack, s), self.downlink(dst_rack, s))
                for s in range(self.spines)
            ]
            self._candidates[key] = candidates
        return candidates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LeafSpineTopology(machines={self._fabric.num_machines}, "
            f"racks={self.racks}, spines={self.spines}, "
            f"oversub={self.oversub}, path_select={self.path_select!r})"
        )


class PathMap:
    """Per-run assignment of core-link paths to ``(src, dst)`` port pairs.

    The map is the mutable companion of an immutable topology: it caches
    the selector's choice per pair (a pair's path is stable for the whole
    run, like a real fabric's per-connection ECMP hash) and carries the
    selector's state (the least-loaded counters). One map belongs to one
    simulation — sharing it across runs would leak selector state. A
    :class:`~repro.simulator.state.ClusterState` queries each pending
    flow's pair when its coflow activates, so stateful selectors see pairs
    in activation order whatever the policy.

    Selectors:

    * ``ecmp`` — a deterministic integer hash of the port pair picks the
      spine, modelling flow-hash load balancing (collisions included);
    * ``least-loaded`` — the candidate whose links carry the fewest
      already-assigned pairs wins (ties to the lowest spine index),
      modelling an adaptive fabric controller;
    * ``static`` — always the first candidate (spine 0): the degenerate
      single-path fabric, useful as a worst-case baseline.
    """

    __slots__ = ("topology", "selector", "_cache", "_assigned", "tracer")

    def __init__(self, topology: Topology, selector: str | None = None):
        self.topology = topology
        self.selector = selector or topology.path_select
        if self.selector not in PATH_SELECTORS:
            raise ConfigError(
                f"unknown path selector {self.selector!r}; "
                f"known: {PATH_SELECTORS}"
            )
        #: (src, dst) -> chosen core-link tuple (possibly empty).
        self._cache: dict[tuple[int, int], tuple[int, ...]] = {}
        #: link -> number of pairs assigned to it (least-loaded state).
        self._assigned: dict[int, int] = {}
        #: Optional observability tracer recording path assignments
        #: (attached by the session; None = disabled).
        self.tracer = None

    def extra_links(self, src: int, dst: int) -> tuple[int, ...]:
        """Core links the ``src → dst`` path crosses (``()`` if none)."""
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            path = self._choose(src, dst)
            self._cache[key] = path
        return path

    def _choose(self, src: int, dst: int) -> tuple[int, ...]:
        candidates = self.topology.path_candidates(src, dst)
        if not candidates:
            return ()
        if len(candidates) == 1 or self.selector == "static":
            chosen = candidates[0]
        elif self.selector == "ecmp":
            # Deterministic pair hash (Knuth multiplicative mixing): the
            # same pair always lands on the same spine, different pairs
            # spread uniformly — and unlike Python's str hash it is stable
            # across processes, so sweep-runner results are reproducible.
            h = (src * 2654435761 + dst * 40503) & 0xFFFFFFFF
            chosen = candidates[h % len(candidates)]
        else:  # least-loaded
            assigned = self._assigned
            chosen = min(
                candidates,
                key=lambda path: max(assigned.get(l, 0) for l in path),
            )
        if self.selector == "least-loaded":
            assigned = self._assigned
            for link in chosen:
                assigned[link] = assigned.get(link, 0) + 1
        tracer = self.tracer
        if tracer is not None:
            # A pair's path is chosen once per run, so this fires
            # O(pairs) times — never inside a hot loop.
            tracer.instant(
                "path_assign", tracer.now, "path",
                {"src": src, "dst": dst, "links": list(chosen),
                 "selector": self.selector},
            )
        return chosen

    def assigned_pairs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Copy of the pair → path assignments made so far (diagnostics)."""
        return dict(self._cache)


class LinkLedger(PortLedger):
    """Residual-capacity ledger over every link of a multi-tier topology.

    Extends the :class:`~repro.simulator.fabric.PortLedger` struct-of-
    arrays layout — ``capacity_list`` / ``used_list`` indexed by link id,
    with touched-set O(changed links) reset — to the topology's core links,
    and overrides the two allocation primitives (:meth:`commit`,
    :meth:`fill`) to charge a flow's *entire path*: the host ports plus the
    core links the attached :class:`PathMap` assigns to the ``(src, dst)``
    pair. The object-form reference allocators in
    :mod:`repro.simulator.ratealloc` go through these primitives and so see
    the true bottleneck link with no topology knowledge; the row forms the
    schedulers call (and their compiled twins) replay the same arithmetic
    directly on the dense lists, reading each flow's core links from the
    flow table's ``link_a`` / ``link_b`` columns.
    """

    __slots__ = ("_topology", "_paths")

    def __init__(
        self,
        topology: Topology,
        paths: PathMap,
        capacity_override: dict[int, float] | None = None,
    ):
        self._fabric = topology.fabric
        self._metrics = None
        self._topology = topology
        self._paths = paths
        num_links = topology.num_links
        self._capacity = array(
            "d", [topology.link_capacity(link) for link in range(num_links)]
        )
        if capacity_override:
            for link, cap in capacity_override.items():
                if not 0 <= link < num_links:
                    raise ConfigError(
                        f"capacity override for unknown link {link}: "
                        f"topology has links [0, {num_links})"
                    )
                if cap < 0:
                    raise ConfigError(
                        f"capacity override for link {link} must be >= 0, "
                        f"got {cap}"
                    )
                self._capacity[link] = cap
        self._used = array("d", bytes(8 * num_links))
        self._touched = set()

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def paths(self) -> PathMap:
        return self._paths

    def extra_links(self, src: int, dst: int) -> tuple[int, ...]:
        """Core links on the ``src → dst`` path (delegates to the map)."""
        return self._paths.extra_links(src, dst)

    # ---- path-charging primitives -----------------------------------------

    def commit(self, src: int, dst: int, rate: float) -> None:
        """Reserve ``rate`` on the sender, the receiver and every core
        link of the pair's path; raises
        :class:`~repro.errors.CapacityViolationError` naming the first
        over-committed link."""
        if rate < 0:
            raise ConfigError(f"rate must be >= 0, got {rate}")
        if rate == 0:
            return
        if self._metrics is not None:
            self._metrics.inc("ledger.commit")
        used = self._used
        capacity = self._capacity
        touched = self._touched
        extras = self._paths.extra_links(src, dst)
        for link in (src, dst, *extras):
            touched.add(link)
            cap = capacity[link]
            new_used = used[link] + rate
            if new_used > cap * _CAPACITY_TOLERANCE:
                raise CapacityViolationError(str(link), new_used, cap)
            used[link] = new_used if new_used < cap else cap

    def fill(self, src: int, dst: int) -> float:
        """Commit and return the smallest residual along the whole path."""
        if self._metrics is not None:
            self._metrics.inc("ledger.fill")
        used = self._used
        capacity = self._capacity
        extras = self._paths.extra_links(src, dst)
        rate = capacity[src] - used[src]
        other = capacity[dst] - used[dst]
        if other < rate:
            rate = other
        for link in extras:
            other = capacity[link] - used[link]
            if other < rate:
                rate = other
        if rate <= 0:
            return 0.0
        touched = self._touched
        for link in (src, dst, *extras):
            used[link] += rate
            touched.add(link)
        return rate

    def snapshot_residuals(self) -> dict[int, float]:
        """Copy of per-link residual capacity (diagnostics/tests)."""
        return {
            link: self.residual(link)
            for link in range(len(self._capacity))
        }


@dataclass(frozen=True)
class TopologySpec:
    """Picklable recipe for a topology, hashable into sweep cache keys.

    ``kind`` is ``"big-switch"`` (the default; every other knob must stay
    at its default) or ``"leaf-spine"``. ``racks`` / ``spines`` of ``None``
    pick :class:`LeafSpineTopology`'s size-derived defaults. The spec is
    *content identity*: :meth:`encode` produces a canonical tuple that the
    sweep runner hashes into :class:`~repro.experiments.runner.RunSpec`
    cache keys — the big-switch default encodes to ``()`` so default run
    keys stay byte-compatible with the pre-topology cache format.
    """

    kind: str = "big-switch"
    oversub: float = 1.0
    racks: int | None = None
    spines: int | None = None
    path_select: str = "ecmp"

    def __post_init__(self) -> None:
        if self.kind not in ("big-switch", "leaf-spine"):
            raise ConfigError(
                f"unknown topology kind {self.kind!r}; "
                f"known: big-switch, leaf-spine"
            )
        if self.oversub <= 0:
            raise ConfigError(
                f"oversubscription ratio must be positive, "
                f"got {self.oversub}"
            )
        if self.path_select not in PATH_SELECTORS:
            raise ConfigError(
                f"unknown path selector {self.path_select!r}; "
                f"known: {PATH_SELECTORS}"
            )
        if self.kind == "big-switch" and (
                self.oversub != 1.0 or self.racks is not None
                or self.spines is not None or self.path_select != "ecmp"):
            raise ConfigError(
                "big-switch topology takes no oversub/racks/spines/"
                "path_select customisation (it has a single path); "
                "use kind='leaf-spine'"
            )

    def build(self, fabric: Fabric) -> Topology:
        """Instantiate the topology over ``fabric``."""
        if self.kind == "big-switch":
            return BigSwitchTopology(fabric)
        return LeafSpineTopology(
            fabric,
            racks=self.racks,
            spines=self.spines,
            oversub=self.oversub,
            path_select=self.path_select,
        )

    def encode(self) -> tuple:
        """Canonical, hashable, JSON-able content identity.

        The big-switch default encodes to ``()``; a leaf-spine spec
        encodes every field as ``(name, value)`` pairs in field order.
        """
        if self.kind == "big-switch":
            return ()
        return tuple(
            (f.name, getattr(self, f.name)) for f in fields(self)
        )

    @staticmethod
    def decode(encoded) -> "TopologySpec":
        """Rebuild a spec from :meth:`encode` output (tuples or the JSON
        list-of-lists round-trip)."""
        if not encoded:
            return TopologySpec()
        return TopologySpec(**{str(k): v for k, v in encoded})
