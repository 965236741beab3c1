"""Cluster state exposed to schedulers, and the flat flow table behind it.

:class:`ClusterState` is the schedulers' *only* window into the simulation:
the set of active (arrived, unfinished) coflows, the fabric geometry, and
per-port capacity overrides from dynamics. Online schedulers must not touch
``Flow.volume`` / ``Flow.remaining`` — the clairvoyant baselines (Varys, SCF,
SRTF, LWTF) are explicitly allowed to, and are marked as offline in their
docstrings.

Incremental scheduling support lives here too:

* :class:`FlowTable` — a struct-of-arrays registry of every *active* flow.
  Each flow is assigned a dense integer row at activation (rows are recycled
  through a free list when a coflow finishes), and the fields the hot loops
  touch (``volume``, ``bytes_sent``, ``rate``, ``finish_time``, ports,
  coflow id) live in parallel lists indexed by that row.
  The engine, the rate allocators and the scheduler projections all operate
  on rows; :class:`~repro.simulator.flows.Flow` objects are thin views.
* :class:`SchedulingDelta` — the dirty set accumulated by the engine between
  scheduler invocations (arrived / completed / progressed coflows), so
  schedulers can update their bookkeeping from the change instead of
  rescanning the world every round;
* per-coflow *pending row* caches, so per-round flow gathering walks only
  unfinished flows instead of every flow ever submitted;
* a reusable :class:`~repro.simulator.fabric.PortLedger` cleared in
  O(changed ports) per round via :meth:`ClusterState.acquire_ledger`;
* per-coflow *flow-group compaction*: ``(src, dst)``-bucketed pending-row
  groups and per-port pending-flow counts maintained incrementally from the
  engine's completion notifications, so rate allocators and admission checks
  work in O(groups)/O(ports) instead of recounting every flow each round
  (:meth:`ClusterState.port_counts`,
  :meth:`ClusterState.pending_port_counts`).

Every :class:`ClusterState` is *table-tracked*: the engine activates each
coflow through :meth:`ClusterState.note_activated`, and a state built by
hand activates the coflows passed in ``active_coflows`` the same way, so
every scheduling round runs on table rows. A coflow lives in one flow table
at a time; give each state or session its own copies
(:func:`~repro.simulator.flows.clone_coflows`).

Multi-tier topologies (see :mod:`repro.simulator.topology`) plug in here:
a :class:`ClusterState` built with a topology that has core links runs in
*path-aware* mode — each flow's path is resolved once, when its coflow
activates, into the table's ``link_a`` / ``link_b`` columns;
:meth:`ClusterState.make_ledger` returns a
:class:`~repro.simulator.topology.LinkLedger`; and
:meth:`ClusterState.port_counts` projects the flow-group compaction onto
whole link paths for admission and equal-rate assignment. The row-form
allocators read the link columns, so every round runs on table rows (and
the compiled kernels) on either fabric. The big-switch default
(``topology=None``) keeps every link column at ``-1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..errors import ConfigError, SimulationError
from .fabric import Fabric, PortLedger
from .flows import CoFlow, Flow
from .topology import LinkLedger, PathMap, Topology


class FlowTable:
    """Struct-of-arrays storage for the mutable state of active flows.

    Layout: parallel lists indexed by *row*. A flow is **adopted** when its
    coflow activates — it receives the lowest-overhead row available (a
    recycled one from the free list, else a fresh append) — and **evicted**
    when its coflow completes, at which point the row's values are copied
    back into the view object's shadow storage and the row returns to the
    free list. Between those two instants the table is the single source of
    truth: the ``Flow`` view's mutable properties read and write these
    arrays, so view readers and row-indexed consumers always agree.

    Index-lifetime rules:

    * a live flow's row never changes (running sets and pending caches can
      hold raw row indices);
    * a finished coflow's rows leave the running set and the per-coflow
      caches before they return to the free list, so no raw index
      outlives its occupant;
    * ``view[row]`` is ``None`` for free rows — the liveness predicate.

    **Memory layout.** The numeric columns are :class:`array.array` buffers
    — ``'d'`` (C ``double``) for the float columns and ``'q'`` (C
    ``int64``) for the id/index columns — so the compiled kernels in
    :mod:`repro._fastcore` can address them as contiguous C arrays through
    the buffer protocol while the Python rows path indexes them exactly as
    it indexed the former plain lists. ``finish_time`` / ``start_time``
    keep ``None`` sentinels ("not finished/started yet") and therefore
    stay object lists, as does ``view``.

    **Core-link columns.** ``link_a`` / ``link_b`` hold the core links a
    flow's path crosses beyond its two host ports, ``-1`` meaning "no
    link"; ``link_b >= 0`` implies ``link_a >= 0``. Two columns suffice
    because a leaf-spine path crosses at most one uplink and one downlink.
    Rows start at ``(-1, -1)`` — the big-switch path ``(src, dst)`` — and
    :class:`ClusterState` fills them from its :class:`PathMap`, so every
    row-form allocator walks ``src, dst, link_a, link_b`` on either fabric.
    """

    __slots__ = (
        "flow_id", "coflow_id", "src", "dst", "link_a", "link_b", "volume",
        "bytes_sent", "rate", "finish_time", "start_time", "available_time",
        "pos", "view", "row_of", "_free", "fastcore",
    )

    def __init__(self) -> None:
        self.flow_id: array = array("q")
        self.coflow_id: array = array("q")
        self.src: array = array("q")
        self.dst: array = array("q")
        self.link_a: array = array("q")
        self.link_b: array = array("q")
        self.volume: array = array("d")
        self.bytes_sent: array = array("d")
        self.rate: array = array("d")
        self.finish_time: list[float | None] = []
        self.start_time: list[float | None] = []
        self.available_time: array = array("d")
        #: Position of the flow within its coflow's ``flows`` list (the
        #: legacy same-instant completion tie-break).
        self.pos: array = array("q")
        #: The view object occupying each row (None = free row).
        self.view: list[Flow | None] = []
        #: flow_id -> row for every live flow.
        self.row_of: dict[int, int] = {}
        #: Recycled rows, LIFO (hot rows stay cache-warm).
        self._free: list[int] = []
        #: When True (set by the session from ``SimulationConfig.fastcore``
        #: if the compiled extension is importable), row-path consumers
        #: dispatch the hot kernels to :mod:`repro._fastcore`. Hand-built
        #: tables default to the pure-Python path.
        self.fastcore: bool = False

    def __setstate__(self, state: tuple[None, dict]) -> None:
        """Unpickle (checkpoints, deep copies), skipping retired columns.

        Checkpoints written while the session kept a completion heap carry
        an ``epoch`` column, which has no slot any more.
        """
        for name, value in state[1].items():
            if name != "epoch":
                setattr(self, name, value)

    def __len__(self) -> int:
        """Number of live (adopted, not yet evicted) flows."""
        return len(self.row_of)

    @property
    def capacity(self) -> int:
        """Total rows ever allocated (live + free)."""
        return len(self.flow_id)

    def adopt(self, flow: Flow, pos: int) -> int:
        """Attach ``flow`` to the table; returns its row index.

        Copies the view's current shadow state into the arrays — adoption is
        transparent to any reader of the flow's properties.
        """
        free = self._free
        if free:
            i = free.pop()
            self.flow_id[i] = flow.flow_id
            self.coflow_id[i] = flow.coflow_id
            self.src[i] = flow.src
            self.dst[i] = flow._dst
            self.link_a[i] = -1
            self.link_b[i] = -1
            self.volume[i] = flow.volume
            self.bytes_sent[i] = flow._bytes_sent
            self.rate[i] = flow._rate
            self.finish_time[i] = flow._finish_time
            self.start_time[i] = flow._start_time
            self.available_time[i] = flow.available_time
            self.pos[i] = pos
        else:
            i = len(self.flow_id)
            self.flow_id.append(flow.flow_id)
            self.coflow_id.append(flow.coflow_id)
            self.src.append(flow.src)
            self.dst.append(flow._dst)
            self.link_a.append(-1)
            self.link_b.append(-1)
            self.volume.append(flow.volume)
            self.bytes_sent.append(flow._bytes_sent)
            self.rate.append(flow._rate)
            self.finish_time.append(flow._finish_time)
            self.start_time.append(flow._start_time)
            self.available_time.append(flow.available_time)
            self.pos.append(pos)
            self.view.append(None)
        self.view[i] = flow
        self.row_of[flow.flow_id] = i
        flow._tbl = self
        flow._row = i
        return i

    def set_links(self, row: int, links: tuple[int, ...]) -> None:
        """Record the core links of ``row``'s path (``()`` = none)."""
        n = len(links)
        if n > 2:
            raise ConfigError(
                f"flow path crosses {n} core links {links}; the flow table "
                f"holds at most two per flow (link_a, link_b)"
            )
        self.link_a[row] = links[0] if n else -1
        self.link_b[row] = links[1] if n == 2 else -1

    def evict(self, row: int) -> None:
        """Detach the flow at ``row``, copying state back into the view."""
        f = self.view[row]
        if f is None:
            return
        f._dst = self.dst[row]
        f._bytes_sent = self.bytes_sent[row]
        f._rate = self.rate[row]
        f._start_time = self.start_time[row]
        f._finish_time = self.finish_time[row]
        f._tbl = None
        f._row = -1
        self.view[row] = None
        del self.row_of[f.flow_id]
        self._free.append(row)

    def adopt_coflow(self, coflow: CoFlow) -> list[int]:
        """Adopt every flow of ``coflow``; rows align with ``flows`` order.

        Raises :class:`~repro.errors.SimulationError` when the coflow is
        live in another table: its rows there mean nothing here.
        """
        if coflow._rows is not None:
            if coflow._table is not self:
                raise SimulationError(
                    f"coflow {coflow.coflow_id} is live in another flow "
                    f"table; give each session or cluster state its own "
                    f"copies (clone_coflows)"
                )
            return coflow._rows
        rows = [self.adopt(f, pos) for pos, f in enumerate(coflow.flows)]
        coflow._table = self
        coflow._rows = rows
        return rows

    def evict_coflow(self, coflow: CoFlow) -> None:
        """Evict every flow of ``coflow`` and detach the coflow itself."""
        rows = coflow._rows
        if rows is None or coflow._table is not self:
            return
        for i in rows:
            self.evict(i)
        coflow._table = None
        coflow._rows = None


@dataclass(slots=True)
class SchedulingDelta:
    """What changed since the scheduler last ran (the engine's dirty set).

    ``full`` forces a from-scratch rebuild of any incremental bookkeeping:
    it is set for the very first round and whenever a dynamics action
    mutates state in ways the delta cannot describe (flow restarts, port
    capacity changes, …). The remaining fields are coflow-id sets:

    * ``arrived`` — became active (arrival or DAG release);
    * ``completed`` — finished entirely and left ``active_coflows``;
    * ``flow_completed`` — still active but lost at least one flow, so
      their port footprint may have shrunk;
    * ``progressed`` — had at least one flow moving bytes, so their queue
      metrics (total / max per-flow bytes sent) may have grown.
    """

    full: bool = True
    arrived: set[int] = field(default_factory=set)
    completed: set[int] = field(default_factory=set)
    flow_completed: set[int] = field(default_factory=set)
    progressed: set[int] = field(default_factory=set)

    def clear(self) -> None:
        """Reset after a scheduler consumed the delta."""
        self.full = False
        self.arrived.clear()
        self.completed.clear()
        self.flow_completed.clear()
        self.progressed.clear()

    def mark_full(self) -> None:
        """Request a from-scratch rebuild on the next scheduling round."""
        self.full = True


@dataclass
class ClusterState:
    """Snapshot handed to :meth:`repro.schedulers.base.Scheduler.schedule`.

    Coflows passed in ``active_coflows`` are activated at construction
    (:meth:`note_activated`), exactly as the engine activates arrivals.
    """

    fabric: Fabric
    #: Active coflows in arrival order (arrived, not yet finished, and with
    #: DAG dependencies satisfied).
    active_coflows: list[CoFlow] = field(default_factory=list)
    #: Per-port capacity overrides (bytes/s) from dynamics events; ports not
    #: listed run at ``fabric.port_rate``.
    capacity_override: dict[int, float] = field(default_factory=dict)
    #: When False, ``schedulable_flows`` ignores data availability — an
    #: availability-*oblivious* coordinator that wastes slots on flows with
    #: no data to send (the §4.3 counterfactual; the engine still refuses
    #: to move unavailable bytes).
    respect_availability: bool = True
    #: Changes since the last scheduling round (maintained by the engine).
    delta: SchedulingDelta = field(default_factory=SchedulingDelta)
    #: Struct-of-arrays hot state of every active flow (see module doc).
    table: FlowTable = field(default_factory=FlowTable)
    #: Fabric topology (``None`` = the classic big switch). A topology
    #: with core links switches the state into *path-aware* mode: ledgers
    #: become :class:`~repro.simulator.topology.LinkLedger`\ s and flow
    #: paths fill the table's core-link columns at activation.
    topology: Topology | None = None
    #: Per-run path assignment (built automatically from ``topology`` when
    #: it has core links; ``None`` on the big-switch default).
    paths: PathMap | None = field(default=None, repr=False)
    #: Optional observability registry (counters/gauges/summaries) shared
    #: with the owning session; ledgers built by this state inherit it so
    #: allocation-primitive calls can be counted. ``None`` = disabled.
    metrics: "object | None" = field(default=None, repr=False)

    # Internal caches; never part of the public snapshot semantics.
    _by_id: dict[int, CoFlow] = field(default_factory=dict, repr=False)
    #: coflow_id -> table rows of not-yet-finished flows (exact: maintained
    #: by live engine notifications, holds no finished flows).
    _pending_rows: dict[int, list[int]] = field(
        default_factory=dict, repr=False
    )
    _cached_ledger: PortLedger | None = field(default=None, repr=False)
    _cached_override: dict[int, float] | None = field(default=None, repr=False)
    #: coflow_id -> {port: number of pending flows touching it} (compaction).
    _port_counts: dict[int, dict[int, int]] = field(
        default_factory=dict, repr=False
    )
    #: coflow_id -> {(src, dst): [pending rows]} (compaction).
    _group_rows: dict[int, dict[tuple[int, int], list[int]]] = field(
        default_factory=dict, repr=False
    )
    #: coflow_id -> max ``available_time`` over its flows (static bound used
    #: to decide when the compaction caches equal the schedulable set).
    _max_avail: dict[int, float] = field(default_factory=dict, repr=False)
    #: coflow_id -> {link: pending flows crossing it} (path-aware twin of
    #: ``_port_counts``: includes the core links of each flow's path).
    _link_counts: dict[int, dict[int, int]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if (self.paths is None and self.topology is not None
                and self.topology.num_core_links):
            self.paths = PathMap(self.topology)
        for coflow in self.active_coflows:
            self.note_activated(coflow)

    # ---- ledgers ----------------------------------------------------------

    def make_ledger(self) -> PortLedger:
        """Fresh residual-capacity ledger honouring dynamic overrides.

        A :class:`~repro.simulator.topology.LinkLedger` over every link in
        path-aware mode, the classic :class:`PortLedger` otherwise.
        """
        if self.paths is not None:
            ledger: PortLedger = LinkLedger(
                self.topology, self.paths,
                capacity_override=self.capacity_override,
            )
        else:
            ledger = PortLedger(
                self.fabric, capacity_override=self.capacity_override
            )
        ledger._metrics = self.metrics
        return ledger

    def set_metrics(self, metrics: "object | None") -> None:
        """(Un)attach an observability registry, patching any cached
        ledger so future rounds count through it immediately."""
        self.metrics = metrics
        if self._cached_ledger is not None:
            self._cached_ledger._metrics = metrics

    def acquire_ledger(self) -> PortLedger:
        """A pristine ledger, reusing the previous round's in O(changed ports).

        Equivalent to :meth:`make_ledger` but clears the cached ledger's
        commitments instead of rebuilding the per-port tables. The cache is
        discarded whenever ``capacity_override`` changed since it was built
        (dynamics events), so overrides are always honoured.
        """
        ledger = self._cached_ledger
        if ledger is None or self._cached_override != self.capacity_override:
            ledger = self.make_ledger()
            self._cached_ledger = ledger
            self._cached_override = dict(self.capacity_override)
        else:
            ledger.reset()
        return ledger

    # ---- flow queries -----------------------------------------------------

    def pending_rows(self, coflow: CoFlow) -> list[int] | None:
        """Table rows of the coflow's pending flows, or ``None`` when the
        coflow is not active.

        The returned list is the live cache — callers must not mutate it.
        """
        return self._pending_rows.get(coflow.coflow_id)

    @property
    def pending_row_map(self) -> dict[int, list[int]]:
        """Live ``coflow_id → pending rows`` mapping of the active coflows
        (read-only by convention): per-round hot loops index it directly
        instead of paying a method call per :meth:`pending_rows` lookup."""
        return self._pending_rows

    def schedulable_rows(self, coflow: CoFlow, now: float) -> list[int]:
        """Table rows of the unfinished flows of active ``coflow`` whose
        data is available at ``now``, in ``flows`` order.

        Models §4.3 "un-availability of the data": the coordinator only
        schedules flows that have accumulated data to send (local agents
        piggyback availability onto their periodic flow statistics).

        Availability-clean coflows get the *live* pending-row cache —
        callers must treat the result as read-only and use it within the
        current scheduling round (the cache shrinks on the next completion).
        """
        cid = coflow.coflow_id
        rows = self._pending_rows[cid]
        # Inlined max_available_time (this runs once per coflow per round
        # across every scheduler): most workloads have no pipelined data,
        # so the static bound resolves the gate without a per-row pass.
        bound = self._max_avail.get(cid)
        if bound is None:
            bound = max((f.available_time for f in coflow.flows), default=0.0)
            self._max_avail[cid] = bound
        if bound <= now or not self.respect_availability:
            return rows
        avail = self.table.available_time
        return [i for i in rows if avail[i] <= now]

    def schedulable_flows(self, coflow: CoFlow, now: float) -> list[Flow]:
        """The :class:`Flow` views of :meth:`schedulable_rows`."""
        view = self.table.view
        return [view[i] for i in self.schedulable_rows(coflow, now)]

    def max_available_time(self, coflow: CoFlow) -> float:
        """Latest ``available_time`` across the coflow's flows (static).

        Once ``now`` passes this bound the schedulable set equals the
        pending set, which makes the compaction caches exact.
        """
        bound = self._max_avail.get(coflow.coflow_id)
        if bound is None:
            bound = max((f.available_time for f in coflow.flows), default=0.0)
            self._max_avail[coflow.coflow_id] = bound
        return bound

    def port_counts(self, coflow: CoFlow, now: float) -> dict[int, int] | None:
        """Per-link pending-flow counts, when exact for the schedulable set.

        Returns ``{link: count}`` over the coflow's pending flows — the
        counts :func:`~repro.simulator.ratealloc.equal_rate_for_coflow` and
        all-or-none admission would otherwise rebuild per round — or
        ``None`` when some pending flow is still unavailable at ``now`` (the
        schedulable set is then a strict subset and callers must recount).
        The links are the host ports, plus every core link of the flows'
        paths on a path-aware state.
        """
        if self.respect_availability and self.max_available_time(coflow) > now:
            return None
        if self.paths is not None:
            return self._pending_link_counts(coflow)
        return self.pending_port_counts(coflow)

    def pending_port_counts(self, coflow: CoFlow) -> dict[int, int]:
        """Per-port pending-flow counts, regardless of availability.

        Projection of the flow-group compaction onto ports. Availability
        never moves a flow's ports, so consumers that only need the
        *footprint* of the unfinished flows (contention indexing) can use
        this without the availability gate that :meth:`port_counts` applies.
        """
        counts = self._port_counts.get(coflow.coflow_id)
        if counts is None:
            counts = {}
            get = counts.get
            for (src, dst), rows in self._buckets(coflow).items():
                n = len(rows)
                counts[src] = get(src, 0) + n
                counts[dst] = get(dst, 0) + n
            self._port_counts[coflow.coflow_id] = counts
        return counts

    def _pending_link_counts(self, coflow: CoFlow) -> dict[int, int]:
        """Per-link pending-flow counts over whole paths (cached; kept
        exact by completion notifications, dropped after dynamics)."""
        extra_links = self.paths.extra_links
        cached = self._link_counts.get(coflow.coflow_id)
        if cached is None:
            cached = {}
            get = cached.get
            for (src, dst), rows in self._buckets(coflow).items():
                n = len(rows)
                cached[src] = get(src, 0) + n
                cached[dst] = get(dst, 0) + n
                for link in extra_links(src, dst):
                    cached[link] = get(link, 0) + n
            self._link_counts[coflow.coflow_id] = cached
        return cached

    def _buckets(self, coflow: CoFlow) -> dict[tuple[int, int], list[int]]:
        """Pending rows bucketed by ``(src, dst)``. Built lazily;
        maintained incrementally by the engine's completion notifications;
        dropped after dynamics (which may move flows across ports)."""
        cid = coflow.coflow_id
        buckets = self._group_rows.get(cid)
        if buckets is None:
            buckets = {}
            t = self.table
            src, dst = t.src, t.dst
            for i in self._pending_rows[cid]:
                buckets.setdefault((src[i], dst[i]), []).append(i)
            self._group_rows[cid] = buckets
        return buckets

    def coflow(self, coflow_id: int) -> CoFlow:
        """Active coflow by id (maintained by the engine notifications)."""
        return self._by_id[coflow_id]

    def port_capacity(self, port: int) -> float:
        return self.capacity_override.get(port, self.fabric.capacity(port))

    # ---- engine notifications --------------------------------------------

    def note_activated(self, coflow: CoFlow) -> None:
        """A coflow joined ``active_coflows`` (arrival or DAG release).

        Adopts the coflow's flows into the flow table, builds the exact
        pending-row cache and, on a path-aware state, resolves every
        pending flow's path into the table's core-link columns. Resolving
        here, in activation order, makes stateful selectors
        (``least-loaded``) assign the same paths under every policy.
        """
        self._by_id[coflow.coflow_id] = coflow
        rows = self.table.adopt_coflow(coflow)
        ft = self.table.finish_time
        pending = [i for i in rows if ft[i] is None]
        self._pending_rows[coflow.coflow_id] = pending
        self._resolve_links(pending)
        self.delta.arrived.add(coflow.coflow_id)

    def restore_link_columns(self) -> None:
        """Add the core-link columns to a flow table unpickled from a
        checkpoint that predates them, resolving the pending rows' paths
        (a no-op on current tables)."""
        t = self.table
        if hasattr(t, "link_a"):
            return
        t.link_a = array("q", [-1]) * t.capacity
        t.link_b = array("q", [-1]) * t.capacity
        for rows in self._pending_rows.values():
            self._resolve_links(rows)

    def _resolve_links(self, rows: list[int]) -> None:
        """Fill the core-link columns of ``rows`` from the path map (no-op
        on a big switch, whose rows keep ``-1``)."""
        paths = self.paths
        if paths is None:
            return
        t = self.table
        src, dst = t.src, t.dst
        extra_links = paths.extra_links
        set_links = t.set_links
        for i in rows:
            set_links(i, extra_links(src[i], dst[i]))

    def note_flow_finished(self, flow: Flow) -> None:
        """One flow of an active coflow completed."""
        cid = flow.coflow_id
        row = flow._row
        rows = self._pending_rows.get(cid)
        if rows is not None:
            try:
                rows.remove(row)
            except ValueError:
                pass
        t = self.table
        src, dst = t.src[row], t.dst[row]
        buckets = self._group_rows.get(cid)
        if buckets is not None:
            bucket = buckets.get((src, dst))
            if bucket is not None:
                try:
                    bucket.remove(row)
                except ValueError:
                    pass
                if not bucket:
                    del buckets[(src, dst)]
        counts = self._port_counts.get(cid)
        if counts is not None:
            for port in (src, dst):
                left = counts.get(port, 0) - 1
                if left > 0:
                    counts[port] = left
                else:
                    counts.pop(port, None)
        if self.paths is not None:
            lcounts = self._link_counts.get(cid)
            if lcounts is not None:
                for link in (src, dst, *self.paths.extra_links(src, dst)):
                    left = lcounts.get(link, 0) - 1
                    if left > 0:
                        lcounts[link] = left
                    else:
                        lcounts.pop(link, None)
        self.delta.flow_completed.add(cid)

    def note_coflow_finished(self, coflow_id: int) -> None:
        """A coflow completed entirely and left ``active_coflows``.

        Evicts the coflow's rows from the flow table (final values are
        copied back into the view objects, so results and analysis read the
        same state as before) and drops every per-coflow cache.
        """
        coflow = self._by_id.pop(coflow_id, None)
        if coflow is not None:
            self.table.evict_coflow(coflow)
        self._pending_rows.pop(coflow_id, None)
        self._port_counts.pop(coflow_id, None)
        self._link_counts.pop(coflow_id, None)
        self._group_rows.pop(coflow_id, None)
        self._max_avail.pop(coflow_id, None)
        self.delta.completed.add(coflow_id)
        self.delta.flow_completed.discard(coflow_id)
        self.delta.arrived.discard(coflow_id)
        self.delta.progressed.discard(coflow_id)

    def note_dynamics(self) -> None:
        """A dynamics action mutated state arbitrarily: rebuild everything.

        Dynamics may restart flows (reverting progress), move a flow to a
        new receiver, or change port capacities — none of which the delta
        vocabulary describes, so incremental consumers start over. Pending
        caches stay valid (dynamics never resurrect a *finished* flow; a
        restarted flow writes through its view into the same table row),
        but the cached ledger is dropped in case capacities changed, and
        the flow-group compaction caches are dropped in case a restart
        moved a flow to a new receiver port (``available_time`` is static,
        so the availability bounds survive). For the same reason the
        pending rows' core-link columns are re-resolved.
        """
        self.delta.mark_full()
        self._cached_ledger = None
        self._cached_override = None
        self._port_counts.clear()
        self._link_counts.clear()
        self._group_rows.clear()
        if self.paths is not None:
            for rows in self._pending_rows.values():
                self._resolve_links(rows)
