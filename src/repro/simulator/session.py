"""The simulation session: a resumable fluid-flow discrete-event kernel.

:class:`SimulationSession` advances a cluster of coflows through a
big-switch fabric under the control of a
:class:`~repro.schedulers.base.Scheduler`. Between events every flow moves
at a constant allocated rate, so the session only needs to visit:

* external events — coflow arrivals and dynamics actions, pulled lazily
  from the attached :class:`~repro.simulator.scenario.Scenario`,
* flow completions under the current allocation,
* scheduler wakeups — queue-threshold crossings and starvation deadlines,
* (sync mode) δ-grid boundaries at which new schedules take effect.

**The external-event spine.** All outside input arrives through one
time-ordered stream: the scenario is pulled one event ahead of simulated
time, and due events are fed through the session's stable event queue
together with the *derived* external events the session generates itself
(data-availability wakeups; DAG releases fire inline at the completion that
unblocks them). Because the spine is pulled lazily, a generator-backed
scenario never materialises its future: an open-loop workload of a million
coflows holds only the active flows (plus O(1) lookahead) in memory — pair
with ``sink=`` to stop the result from retaining finished coflows. The one
deliberately O(total) structure is the finished-coflow *id set* (plain
ints, ~60 bytes each), kept for DAG-dependency release and duplicate-id
detection; it is orders of magnitude smaller than the flow objects the
streaming path avoids.

**Lifecycle.** A session is explicitly steppable: :meth:`step` processes
the next instant, :meth:`run_until` pauses the session at a simulated time
bound, :meth:`run` drives it to completion, and :meth:`snapshot` /
:meth:`restore` checkpoint and revive the *entire* kernel state — flow
table, ledgers, scheduler bookkeeping, event queue, epoch machinery — for
mid-run forking and warm-started what-if comparisons. A paused session sits
*between instants*: it never advances the fluid state to a non-event time,
so resumed runs replay the exact float arithmetic of an uninterrupted run
(the equivalence suite asserts byte-identical results).

**Coordinator timing model (§5).** With ``sync_interval == 0`` the
scheduler reacts instantly to every event (the idealised coordinator used
for the main simulation results). With ``δ = sync_interval > 0``, state
changes are only *acted on* at the next multiple of δ: a coflow arriving at
``t`` is first scheduled at ``ceil(t/δ)·δ``, and bandwidth freed by a
completion stays idle until that boundary — exactly the staleness that
Fig. 14(c) measures. Because rates are constant between state changes,
recomputing at every grid point would yield identical schedules, so the
session only recomputes at grid points *following* a state change; this is
an exact optimisation, not an approximation.

**Flat flow table.** All hot per-flow state lives in the cluster state's
:class:`~repro.simulator.state.FlowTable` — parallel lists indexed by a
dense integer *row* assigned at activation. Every loop below (byte
accounting, completion lookout, allocation application) walks plain lists
with integer indices; ``Flow`` objects are views used only at the
object-facing edges (scheduler callbacks, results, dynamics). The running
set is a row-keyed insertion-ordered dict.

**Allocation epochs.** Each applied allocation opens an *epoch*. A *full*
apply rebuilds the running set and its per-coflow counts from every pending
flow and keeps the round's raw ``flow_id → rate`` map as the baseline; every
later round is applied as a *diff* against that map, touching only flows
whose rate changed, while the running set is maintained in place.

**Completion lookout.** Between events the session needs one number: the
next flow completion under the current rates. One scan of the running set
finds it (:meth:`SimulationSession._earliest_completion`, compiled twin
``scan_completions``). The same scan records the earliest instant any
completion window can open, so the advance that follows moves bytes
branchlessly and the completion pass skips its own scan.

Full applies happen on the first round and after dynamics. They happen on
*every* round in two cases: under a ``rate_perturbation`` hook (testbed
mode redraws each flow's achieved rate at every application, so no diff
baseline exists), and under ``config.incremental=False``. The latter is the
reference oracle: full scheduler recompute and full apply, with the same
completion scan as production. The equivalence suite asserts that it
produces byte-identical :class:`SimulationResult`\\ s.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
from copy import deepcopy
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Protocol

from .. import _fastcore as _fc
from ..config import SimulationConfig
from ..errors import CheckpointError, ConfigError, SimulationError
from ..observability import MetricsRegistry, PhaseTimers, Tracer
from ..schedulers.base import Allocation, Scheduler
from .events import Event, EventKind, EventQueue
from .fabric import Fabric
from .flows import CoFlow, Flow
from .scenario import Scenario
from .state import ClusterState
from .topology import Topology


class DynamicsAction(Protocol):
    """Dynamics events (failures, stragglers, …) applied at their instant."""

    time: float

    def apply(self, sim: "SimulationSession", now: float) -> None:
        """Mutate session state; the kernel reschedules afterwards."""
        ...  # pragma: no cover - protocol


class ScheduleObserver(Protocol):
    """Telemetry hook notified after every schedule application."""

    def on_schedule(self, state: ClusterState, allocation: Allocation,
                    now: float) -> None:
        ...  # pragma: no cover - protocol


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    #: Every coflow that finished, in completion order (empty when the
    #: session streams finished coflows to a ``sink`` instead).
    coflows: list[CoFlow] = field(default_factory=list)
    #: Number of schedule computations performed.
    reschedules: int = 0
    #: Simulated time at which the last coflow finished.
    makespan: float = 0.0
    #: Observability registry of the run (``None`` unless ``metrics=`` was
    #: passed to the session). Excluded from equality so instrumented and
    #: uninstrumented results compare equal on simulation content.
    metrics: "MetricsRegistry | None" = field(
        default=None, repr=False, compare=False
    )
    #: Lazily-built ``coflow_id → CoFlow`` index backing :meth:`cct` and
    #: :meth:`coflow`, which analysis code calls in per-coflow loops.
    _by_id: dict[int, CoFlow] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _index(self) -> dict[int, CoFlow]:
        by_id = self._by_id
        if len(by_id) != len(self.coflows):
            by_id.clear()
            for c in self.coflows:
                by_id[c.coflow_id] = c
        return by_id

    def cct(self, coflow_id: int) -> float:
        try:
            return self._index()[coflow_id].cct()
        except KeyError:
            raise KeyError(f"coflow {coflow_id} not in result") from None

    def ccts(self) -> dict[int, float]:
        """coflow_id → CCT for every finished coflow."""
        return {c.coflow_id: c.cct() for c in self.coflows}

    def average_cct(self) -> float:
        if not self.coflows:
            return 0.0
        return sum(c.cct() for c in self.coflows) / len(self.coflows)

    def coflow(self, coflow_id: int) -> CoFlow:
        try:
            return self._index()[coflow_id]
        except KeyError:
            raise KeyError(f"coflow {coflow_id} not in result") from None


#: Session attributes that hold the live scenario stream. They are the one
#: part of a session that cannot be deep-copied (a generator has no value
#: semantics), so snapshots exclude them and store the scenario's
#: not-yet-consumed remainder instead (:meth:`Scenario.tail`); restore
#: re-creates the stream by iterating that tail.
_STREAM_ATTRS = frozenset({"_source", "_source_iter", "_lookahead"})

#: Sentinel for :meth:`SimulationSession.restore`'s ``sink`` parameter:
#: "keep the donor's sink" (``None`` means "clear it — retain coflows").
_KEEP_SINK = object()


#: On-disk checkpoint format version. Bump on any change to the snapshot
#: payload layout that old readers cannot interpret; :meth:`load` refuses
#: mismatched versions with a clear error instead of unpickling garbage.
CHECKPOINT_FORMAT = 1

_CHECKPOINT_MAGIC = "repro-checkpoint"


@dataclass
class SessionSnapshot:
    """Opaque checkpoint of a paused :class:`SimulationSession`.

    Holds a deep copy of the full kernel state (flow table, ledgers,
    scheduler bookkeeping, event queue, RNG-free epoch machinery) plus the
    scenario cursor. One snapshot can be restored any number of times —
    every :meth:`SimulationSession.restore` call deep-copies the payload
    again, so restored sessions never share mutable state with each other
    or with the snapshot.

    Snapshots are also *durable*: :meth:`save` writes a self-describing
    checkpoint file (JSON header with a format version and a content
    checksum, then the pickled snapshot) and :meth:`load` revives it,
    refusing truncated, corrupted or version-incompatible files with a
    :class:`~repro.errors.CheckpointError`. Because a restored session
    replays the exact float arithmetic of an uninterrupted run, a
    save → load → run round-trip is byte-identical to never stopping.
    """

    #: Simulated time at which the snapshot was taken.
    time: float
    #: Registry name of the donor session's scheduler (for what-if sweeps
    #: that want to know which branch continues the donor's policy).
    policy: str
    cls: type = field(repr=False)
    payload: dict = field(repr=False)
    #: The not-yet-consumed remainder of the scenario, insulated from the
    #: donor session's future mutations (see :meth:`Scenario.tail`).
    scenario: Scenario = field(repr=False)

    def save(self, path: str | Path) -> Path:
        """Write this snapshot as a durable checkpoint file.

        Layout: one JSON header line (magic, format version, policy,
        simulated time, SHA-256 and byte length of the body) followed by
        the pickled snapshot. The write is atomic (temp file + rename), so
        a crash mid-save leaves any previous checkpoint intact.
        """
        path = Path(path)
        try:
            body = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"snapshot cannot be pickled for a durable checkpoint: "
                f"{exc}; sessions carrying closures (sink=, observer=, "
                f"rate_perturbation= lambdas) can be snapshotted in memory "
                f"but not saved to disk"
            ) from exc
        header = json.dumps({
            "magic": _CHECKPOINT_MAGIC,
            "format": CHECKPOINT_FORMAT,
            "policy": self.policy,
            "time": self.time,
            "sha256": hashlib.sha256(body).hexdigest(),
            "length": len(body),
        }, sort_keys=True).encode("ascii")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(header + b"\n" + body)
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SessionSnapshot":
        """Read a checkpoint written by :meth:`save`, verifying integrity.

        Every failure mode gets its own :class:`CheckpointError` message:
        unreadable file, foreign/garbled header, format-version mismatch,
        truncation (length short of the header's promise) and checksum
        mismatch are all detected *before* the body is unpickled.
        """
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        head, sep, body = blob.partition(b"\n")
        if not sep:
            raise CheckpointError(
                f"checkpoint {path} is truncated: missing header/body "
                f"separator"
            )
        try:
            header = json.loads(head.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path} has an unreadable header: {exc}"
            ) from exc
        if (not isinstance(header, dict)
                or header.get("magic") != _CHECKPOINT_MAGIC):
            raise CheckpointError(
                f"{path} is not a session checkpoint (bad magic)"
            )
        fmt = header.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} uses format version {fmt!r}; this "
                f"build reads version {CHECKPOINT_FORMAT}"
            )
        if header.get("length") != len(body):
            raise CheckpointError(
                f"checkpoint {path} is truncated: header promises "
                f"{header.get('length')} body bytes, found {len(body)}"
            )
        digest = hashlib.sha256(body).hexdigest()
        if header.get("sha256") != digest:
            raise CheckpointError(
                f"checkpoint {path} failed its content checksum "
                f"(expected {header.get('sha256')}, got {digest}); the "
                f"file was corrupted after it was written"
            )
        try:
            snap = pickle.loads(body)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {path} passed its checksum but its body "
                f"does not unpickle: {exc}"
            ) from exc
        if not isinstance(snap, cls):
            raise CheckpointError(
                f"checkpoint {path} does not contain a {cls.__name__}"
            )
        return snap


class SimulationSession:
    """Drives one scheduler over one scenario on one fabric.

    Parameters
    ----------
    scenario:
        The external-event spine to drive (see
        :mod:`repro.simulator.scenario`). May be omitted at construction
        and supplied later via :meth:`attach` — the legacy
        :class:`~repro.simulator.engine.Simulator` façade does exactly
        that from its ``run(coflows)`` adapter.
    sink:
        Optional callable receiving each finished coflow *instead of*
        retaining it in ``result.coflows`` — the O(active-flows) memory
        mode for open-loop scenarios. ``result.makespan`` and
        ``result.reschedules`` are still maintained.
    """

    def __init__(
        self,
        fabric: Fabric,
        scheduler: Scheduler,
        config: SimulationConfig,
        *,
        scenario: Scenario | None = None,
        topology: "Topology | None" = None,
        rate_perturbation: Callable[[Flow, float], float] | None = None,
        observer: "ScheduleObserver | None" = None,
        sink: Callable[[CoFlow], None] | None = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        timers: "PhaseTimers | None" = None,
    ):
        self.fabric = fabric
        self.scheduler = scheduler
        self.config = config
        #: Fabric topology (None = the classic big switch). Must be built
        #: over a fabric with the same geometry as ``fabric``.
        if topology is not None and (
                topology.fabric.num_machines != fabric.num_machines
                or topology.fabric.port_rate != fabric.port_rate):
            raise ConfigError(
                f"topology fabric {topology.fabric} does not match the "
                f"session fabric {fabric}"
            )
        self.topology = topology
        #: Optional testbed-mode hook mapping (flow, allocated rate) to the
        #: *achieved* rate — models imperfect rate enforcement (§7 setup).
        self._rate_perturbation = rate_perturbation
        #: Optional telemetry observer notified after every schedule
        #: application (see repro.analysis.telemetry.TelemetryRecorder).
        self._observer = observer
        if observer is not None and hasattr(observer, "bind_scheduler"):
            observer.bind_scheduler(scheduler)
        #: Finished-coflow consumer for O(active) streaming runs.
        self._sink = sink

        self.state = ClusterState(fabric=fabric, topology=topology)
        #: The cluster state's struct-of-arrays flow registry; every hot
        #: loop below indexes its columns by row.
        self._table = self.state.table
        #: Observability hooks — all default None, each hot-path use is a
        #: single ``is not None`` attribute check (the zero-overhead
        #: contract; see docs/ARCHITECTURE.md "Observability layer").
        self._tracer: "Tracer | None" = None
        self._metrics: "MetricsRegistry | None" = None
        self._timers: "PhaseTimers | None" = None
        self.attach_instrumentation(
            tracer=tracer, metrics=metrics, timers=timers
        )
        #: Compiled hot-loop kernels (repro._fastcore): on when the config
        #: requests them *and* the extension is built. Results are
        #: bit-identical either way (fuzz firewall), so a missing build
        #: only costs speed — loudly, via a one-time RuntimeWarning.
        want_fastcore = bool(getattr(config, "fastcore", True))
        self._fastcore = want_fastcore and _fc.AVAILABLE
        if want_fastcore and not _fc.AVAILABLE:
            _fc.warn_fallback_once()
        self._table.fastcore = self._fastcore
        #: Per-flow efficiency factors (< 1 for straggling flows, §4.3).
        self.flow_efficiency: dict[int, float] = {}
        #: Per-machine efficiency factors (sender-port keyed) set by
        #: :class:`~repro.simulator.dynamics.StragglerEvent`: a straggling
        #: *worker machine* slows every flow it sends, including flows that
        #: arrive while the episode lasts (see :meth:`_activate`). Empty in
        #: the default path, so untouched runs stay byte-identical.
        self.machine_efficiency: dict[int, float] = {}

        self._events = EventQueue()
        self._now = 0.0
        self._next_sync: float | None = None
        self._waiting_dag: dict[int, CoFlow] = {}
        #: Dependency index (coflow_id → still-unmet dependency ids) and its
        #: inverse (dependency id → waiting coflows, arrival order), so a
        #: coflow completion releases dependents in O(dependents) instead of
        #: rescanning every DAG-blocked coflow.
        self._unmet_deps: dict[int, set[int]] = {}
        self._dep_waiters: dict[int, list[CoFlow]] = {}
        self._finished_ids: set[int] = set()
        self._result = SimulationResult()
        #: Last coflow finish instant (completion times are monotone, so
        #: this equals the makespan without retaining the coflows).
        self._max_finish = 0.0
        #: Rows with a positive rate under the current allocation, as a
        #: row-keyed insertion-ordered dict: rebuilt by a full apply,
        #: maintained in place by a diff. Only these rows can change state
        #: between events — keeping the hot loops off the full active set is
        #: the kernel's main optimisation.
        self._running: dict[int, None] = {}
        #: Coflow ids with at least one running flow, precomputed at
        #: allocation time so time advancement can mark "progressed"
        #: coflows in the scheduling delta with one set union.
        self._running_cids: frozenset[int] = frozenset()
        self._maybe_done: list[tuple[int, CoFlow]] = []
        self._coflow_of: dict[int, CoFlow] = {}
        #: Lower bound (absolute time) before which no running flow can
        #: satisfy the completion predicate; lets _process_completions skip
        #: its scan on pure arrival / sync steps. Maintained by
        #: _earliest_completion; -inf means "unknown, always scan".
        self._no_completion_before: float = -math.inf
        #: Rows whose completion predicate fired during the last time
        #: advance (collected while moving bytes, so the completion pass
        #: walks only these instead of rescanning every running flow).
        self._completion_candidates: list[int] = []
        #: True when the current step advanced time, i.e. the candidate
        #: list above is authoritative. Zero-width steps (several events at
        #: one instant) and dynamics fall back to the full scan.
        self._advanced_this_step = False
        #: True once ``delta.progressed`` already contains the current
        #: ``_running_cids`` — the per-advance union is a no-op until the
        #: delta is cleared, the running set changes, or a completion
        #: removes ids from the progressed set.
        self._progressed_synced = False

        # ---- allocation-epoch state ----------------------------------------
        #: Raw flow_id → rate map of the previously applied allocation.
        self._prev_rates: dict[int, float] = {}
        #: row → running-flow count per coflow backing ``_running_cids``.
        self._running_count: dict[int, int] = {}
        #: Rows whose raw rate is positive but whose data is not yet
        #: available (§4.3): re-evaluated on every diffed application.
        self._gated: dict[int, None] = {}
        #: coflow_id → index in ``state.active_coflows`` (candidate order).
        self._active_pos: dict[int, int] = {}
        #: Next application must be a full rebuild: the first round, after
        #: dynamics, and every round under rate perturbation or
        #: ``incremental=False`` (see :meth:`_apply_allocation`).
        self._full_apply_pending = True

        # ---- scenario stream (the external-event spine) ------------------
        #: Attached scenario, its live iterator, and the one pulled-but-not-
        #: yet-due event (the spine's lookahead).
        self._source: Scenario | None = None
        self._source_iter = None
        self._lookahead: Event | None = None
        #: Events already pushed from the stream into the queue (the
        #: snapshot cursor).
        self._consumed = 0
        #: Largest event time pulled so far (ordering guard for scenarios
        #: that bypass StreamScenario's own check).
        self._last_pulled = 0.0
        #: Memoised next-instant from a boundary probe (run_until) that the
        #: following step() consumes instead of scanning again.
        self._pending_instant: float | None = None

        if scenario is not None:
            self.attach(scenario)

    # ---- public API -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (the last processed instant)."""
        return self._now

    @property
    def done(self) -> bool:
        """True when nothing can ever happen again: the scenario stream is
        exhausted, no external events are queued, and no coflow is active
        or DAG-blocked."""
        return self._exhausted()

    @property
    def result(self) -> SimulationResult:
        """The (possibly still accumulating) simulation result."""
        return self._result

    @property
    def scenario(self) -> Scenario | None:
        return self._source

    def attach(self, scenario: Scenario) -> "SimulationSession":
        """Bind the external-event spine; a session drives one scenario."""
        if self._source is not None:
            raise SimulationError(
                "a scenario is already attached to this session"
            )
        self._source = scenario
        self._source_iter = scenario.events()
        self._pull_lookahead()
        return self

    def attach_instrumentation(
        self,
        *,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        timers: "PhaseTimers | None" = None,
    ) -> "SimulationSession":
        """(Re)attach observability hooks to this live session.

        Wires the tracer/registry/timers into the session, the scheduler
        (and its queue tracker), the cluster state's ledgers and the path
        map. Passing ``None`` for a hook detaches it. Hooks are
        attachments of the *live* session: :meth:`snapshot` payloads drop
        tracers and timers (deep copies of both are ``None``) while the
        metrics registry — plain data — is deep-copied along, so a
        restored branch keeps counting into its own copy.
        """
        self._tracer = tracer
        self._metrics = metrics
        self._timers = timers
        self.state.set_metrics(metrics)
        self.scheduler.bind_instrumentation(tracer, metrics)
        if self.state.paths is not None:
            self.state.paths.tracer = tracer
        return self

    @property
    def tracer(self) -> "Tracer | None":
        return self._tracer

    @property
    def metrics(self) -> "MetricsRegistry | None":
        return self._metrics

    @property
    def timers(self) -> "PhaseTimers | None":
        return self._timers

    def run(
        self,
        *,
        checkpoint_every: float | None = None,
        checkpoint_path: "str | Path | None" = None,
        on_checkpoint: "Callable[[SessionSnapshot], None] | None" = None,
    ) -> SimulationResult:
        """Drive the attached scenario to completion.

        Scenarios that know their coflow count stop the instant the last
        coflow completes (exactly like the classic batch ``run(coflows)``,
        which never drained events scheduled after the final completion);
        unbounded streams run until the spine and the cluster are empty.

        ``checkpoint_every`` (simulated seconds) snapshots the session each
        time the clock crosses a cadence boundary, writing to
        ``checkpoint_path`` (each save atomically replaces the previous —
        the file always holds the latest durable checkpoint) and/or handing
        the snapshot to ``on_checkpoint``. Snapshots are taken between
        instants, so checkpointing never perturbs the event sequence: the
        run's result is byte-identical with checkpointing on or off, and a
        run resumed from any checkpoint finishes byte-identical too.
        Requires a replayable scenario (see :meth:`snapshot`).
        """
        if self._source is None:
            raise SimulationError(
                "no scenario attached; pass scenario= at construction, "
                "call attach(), or use the Simulator.run(coflows) façade"
            )
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ConfigError(
                    f"checkpoint_every must be positive (simulated "
                    f"seconds), got {checkpoint_every}"
                )
            if checkpoint_path is None and on_checkpoint is None:
                raise ConfigError(
                    "checkpoint_every needs a destination: pass "
                    "checkpoint_path= and/or on_checkpoint="
                )
        next_ckpt = checkpoint_every
        if self._timers is not None:
            self._timers.start()

        def maybe_checkpoint() -> None:
            nonlocal next_ckpt
            if next_ckpt is None or self._now < next_ckpt:
                return
            while next_ckpt <= self._now:
                next_ckpt += checkpoint_every
            snap = self.snapshot()
            if self._metrics is not None:
                self._metrics.inc("session.checkpoints")
            if self._tracer is not None:
                self._tracer.instant(
                    "checkpoint", self._now, "session",
                    {"time": self._now},
                )
            if checkpoint_path is not None:
                snap.save(checkpoint_path)
            if on_checkpoint is not None:
                on_checkpoint(snap)

        expected = self._source.total_coflows
        if expected is None:
            while self.step():
                maybe_checkpoint()
        else:
            while len(self._finished_ids) < expected:
                if not self.step():
                    raise SimulationError(
                        f"scenario promised {expected} coflows but the "
                        f"stream ended after "
                        f"{len(self._finished_ids)} completed; nothing "
                        f"left to simulate"
                    )
                maybe_checkpoint()
        return self._finalize()

    def step(self) -> bool:
        """Process the next instant (events, completions, rescheduling).

        Returns ``False`` — without side effects — once the simulation is
        finished (see :attr:`done`); raises
        :class:`~repro.errors.SimulationError` when no future instant
        exists but unfinished coflows remain (a stalled simulation).
        """
        if self._exhausted():
            return False
        timers = self._timers
        t_next = self._pending_instant
        if t_next is None:
            if timers is None:
                t_next = self._next_instant()
            else:
                _t0 = perf_counter_ns()
                t_next = self._next_instant()
                timers.add("lookout", perf_counter_ns() - _t0)
        else:
            self._pending_instant = None
        if math.isinf(t_next):
            self._raise_stuck()
        if t_next > self.config.max_sim_time:
            raise SimulationError(
                f"simulation exceeded max_sim_time="
                f"{self.config.max_sim_time}; likely a livelock"
            )
        if timers is None:
            self._advance_to(t_next)
            changed = self._process_completions()
            changed |= self._process_external_events()
        else:
            _t0 = perf_counter_ns()
            self._advance_to(t_next)
            _t1 = perf_counter_ns()
            timers.add("advance", _t1 - _t0)
            changed = self._process_completions()
            _t2 = perf_counter_ns()
            timers.add("completions", _t2 - _t1)
            changed |= self._process_external_events()
            timers.add("events", perf_counter_ns() - _t2)
        if changed:
            self._request_resync(self._now)

        if self._next_sync is not None and self._next_sync <= self._now:
            self._recompute_schedule()
        return True

    def run_until(self, t: float) -> "SimulationSession":
        """Process every instant up to and including simulated time ``t``.

        The session pauses *between instants*: ``now`` is left at the last
        processed instant ≤ ``t`` (never advanced to ``t`` itself), so the
        fluid state's float arithmetic is untouched by the pause and a
        subsequent :meth:`run` replays an uninterrupted run byte for byte.
        Returns ``self`` for chaining (``session.run_until(5.0).snapshot()``).
        """
        if self._source is None:
            raise SimulationError("no scenario attached")
        while not self._exhausted():
            nxt = self._peek_instant()
            if math.isinf(nxt):
                # Nothing can ever happen again, yet work remains: raise
                # the stall diagnostic here rather than letting a
                # `while not session.done: run_until(...)` driver spin.
                self._raise_stuck()
            if nxt > t:
                break
            self.step()
        return self

    def _peek_instant(self) -> float:
        """Next instant without stepping. ``_next_instant`` only reads the
        paused state (its one write, ``_no_completion_before``, comes out
        the same on a rerun), so the memo just spares the step() that
        follows a second completion scan."""
        if self._pending_instant is None:
            self._pending_instant = self._next_instant()
        return self._pending_instant

    def _exhausted(self) -> bool:
        return (
            self._lookahead is None
            and not self._events
            and not self.state.active_coflows
            and not self._waiting_dag
        )

    def _finalize(self) -> SimulationResult:
        result = self._result
        if self._timers is not None:
            self._timers.stop()
        result.metrics = self._metrics
        if self._sink is None:
            result.makespan = max(
                (c.finish_time or 0.0 for c in result.coflows), default=0.0
            )
        else:
            result.makespan = self._max_finish
        return result

    # ---- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        """Checkpoint the paused session.

        Requires a replayable scenario (list-backed, or a factory-backed
        stream): the snapshot stores the scenario's not-yet-consumed tail
        (:meth:`Scenario.tail` — pristine clones for materialised
        scenarios, a skip cursor for deterministic generators). Everything
        else (flow table, ledgers, scheduler state, event queue, epoch
        machinery) is deep-copied, so the live session can keep running
        unaffected.
        """
        source = self._source
        if source is None:
            raise SimulationError("no scenario attached; nothing to snapshot")
        if not source.replayable:
            raise SimulationError(
                "scenario is not replayable: snapshot() needs a list-backed "
                "scenario or a factory-backed stream "
                "(Scenario.from_stream(lambda: ...))"
            )
        if self._metrics is not None:
            self._metrics.inc("session.snapshots")
        if self._tracer is not None:
            self._tracer.instant(
                "snapshot", self._now, "session",
                {"consumed": self._consumed},
            )
        memo: dict[int, object] = {}
        payload = {
            k: deepcopy(v, memo)
            for k, v in self.__dict__.items()
            if k not in _STREAM_ATTRS
        }
        return SessionSnapshot(
            time=self._now,
            policy=self.scheduler.name,
            cls=type(self),
            payload=payload,
            scenario=source.tail(self._consumed),
        )

    @staticmethod
    def restore(
        snap: SessionSnapshot,
        *,
        scheduler: Scheduler | None = None,
        sink: "Callable[[CoFlow], None] | None | object" = _KEEP_SINK,
    ) -> "SimulationSession":
        """Revive a session from a snapshot.

        The payload is deep-copied again, so one snapshot supports any
        number of independent restores (mid-run forking). Passing
        ``scheduler`` swaps the policy for a what-if branch: the new
        scheduler's arrival hooks are replayed for every live coflow and
        the next round is forced to a full rebuild — results then follow
        the *new* policy and are naturally not byte-identical to the
        donor's. Passing ``sink`` rebinds the finished-coflow consumer
        (forks usually want their own aggregator — note that functions are
        copied by reference, so inheriting a donor's sink means feeding
        the donor's aggregator); ``sink=None`` clears it, so the branch
        retains finished coflows in its result.
        """
        session: SimulationSession = object.__new__(snap.cls)
        memo: dict[int, object] = {}
        for k, v in snap.payload.items():
            setattr(session, k, deepcopy(v, memo))
        # Instrumentation attachments: tracers and phase timers deep-copy
        # to None (live handles), the metrics registry — plain data — is
        # revived from the payload; pre-observability checkpoints carry
        # none of the three and restore with instrumentation off.
        for attr in ("_tracer", "_metrics", "_timers"):
            if not hasattr(session, attr):
                setattr(session, attr, None)
        if session._metrics is not None:
            session._metrics.inc("session.restores")
        session.state.restore_link_columns()
        # Older checkpoints hold a row list here when their run applied
        # every round in full (rate perturbation, or the removed
        # ``epochs=False`` engine). Those sessions never cleared
        # ``_full_apply_pending``, so the next round rebuilds this dict.
        if isinstance(session._running, list):
            session._running = dict.fromkeys(session._running)
        # Re-gate the compiled kernels on *this* environment: a snapshot
        # from a fastcore build restores cleanly where the extension is
        # absent (and vice versa) — results are bit-identical either way.
        session._fastcore = (
            bool(getattr(session.config, "fastcore", True)) and _fc.AVAILABLE
        )
        session._table.fastcore = session._fastcore
        session._source = snap.scenario
        session._source_iter = snap.scenario.events()
        session._consumed = 0
        session._lookahead = None
        session._pull_lookahead()
        if sink is not _KEEP_SINK:
            session._sink = sink
        if scheduler is not None:
            session.scheduler = scheduler
            observer = session._observer
            if observer is not None and hasattr(observer, "bind_scheduler"):
                observer.bind_scheduler(scheduler)
            scheduler.bind_instrumentation(
                session._tracer, session._metrics
            )
            # Warm the new policy exactly as if it had witnessed the live
            # coflows arrive, then rebuild all incremental bookkeeping.
            for c in session.state.active_coflows:
                scheduler.on_coflow_arrival(c, c.arrival_time)
            session.state.delta.mark_full()
            session._full_apply_pending = True
            session._request_resync(session._now)
            # Any memoised next-instant predates the forced resync.
            session._pending_instant = None
        return session

    def fork(self) -> "SimulationSession":
        """Snapshot + restore in one call: an independent what-if branch."""
        return self.restore(self.snapshot())

    # ---- the spine --------------------------------------------------------------

    def _pull_lookahead(self) -> None:
        """Advance the scenario stream by one event."""
        try:
            event = next(self._source_iter)
        except StopIteration:
            self._lookahead = None
            return
        if event.time < self._last_pulled:
            raise SimulationError(
                f"scenario events out of order: t={event.time} after "
                f"t={self._last_pulled}"
            )
        self._last_pulled = event.time
        self._lookahead = event

    # ---- main loop -------------------------------------------------------------

    def _next_instant(self) -> float:
        """Earliest of: external event, flow completion, pending sync."""
        candidates: list[float] = []
        head = self._events.peek_time()
        lookahead = self._lookahead
        if lookahead is not None and (head is None or lookahead.time < head):
            head = lookahead.time
        if head is not None:
            candidates.append(head)
        if self._next_sync is not None:
            candidates.append(self._next_sync)
        completion = self._earliest_completion()
        if completion is not None:
            candidates.append(completion)
        if not candidates:
            return math.inf
        return max(min(candidates), self._now)

    def _earliest_completion(self) -> float | None:
        """Next completion instant under the current rates (None = none).

        The one completion lookout, run by production and by the
        ``incremental=False`` oracle alike: a scan of the running set over
        the table columns (integer indexing, no per-flow dispatch; the
        compiled twin is ``scan_completions``). It also sets
        ``_no_completion_before``, the earliest instant any running flow's
        completion predicate can fire, from which the next advance and
        completion pass know they may skip their predicate checks.

        The predicate has a rate-relative guard. An absolute byte tolerance
        alone is not enough: a fast flow can be left with ``remaining`` just
        above ``epsilon_bytes`` whose transfer time (< 1e-12 s) underflows
        float64 time addition, freezing the clock. Anything needing less
        than ~10 ns at its current rate (``remaining <= rate * 1e-8``) is
        complete.
        """
        if self._maybe_done:
            self._no_completion_before = self._now
            return self._now
        t = self._table
        if self._fastcore:
            if self._metrics is not None:
                self._metrics.inc("kernel.scan_completions.fastcore")
            ret, self._no_completion_before = _fc.core.scan_completions(
                self._running, t.volume, t.bytes_sent, t.rate,
                t.finish_time, self.config.epsilon_bytes, self._now,
            )
            return ret
        if self._metrics is not None:
            self._metrics.inc("kernel.scan_completions.python")
        vol = t.volume
        bs = t.bytes_sent
        rt = t.rate
        ft = t.finish_time
        eps = self.config.epsilon_bytes
        best = math.inf
        pred_min = math.inf
        now = self._now
        for i in self._running:
            if ft[i] is not None:
                continue
            remaining = vol[i] - bs[i]
            rate = rt[i]
            if remaining <= eps or (rate > 0 and remaining <= rate * 1e-8):
                self._no_completion_before = now
                return now
            if rate > 0:
                ttc = remaining / rate
                if ttc < best:
                    best = ttc
                # Earliest instant the completion predicate can start
                # firing for this flow: its tolerance window opens
                # max(eps, rate*1e-8) bytes before the exact finish.
                slack = eps if eps > rate * 1e-8 else rate * 1e-8
                pred = (remaining - slack) / rate
                if pred < pred_min:
                    pred_min = pred
        # Conservative margin (a few ulps) so float noise can only make us
        # scan unnecessarily, never miss a completion.
        self._no_completion_before = (
            now + pred_min - abs(pred_min) * 1e-12 - 1e-15
            if math.isfinite(pred_min) else math.inf
        )
        return now + best if math.isfinite(best) else None

    def _advance_to(self, t: float) -> None:
        dt = t - self._now
        if dt < 0:
            raise SimulationError(f"time went backwards: {self._now} -> {t}")
        if dt > 0:
            # Byte accounting over the table columns (same semantics as the
            # old inlined Flow.advance), collecting rows whose completion
            # predicate fires so the completion pass needn't rescan the
            # whole running set.
            tbl = self._table
            vol = tbl.volume
            bs = tbl.bytes_sent
            rt = tbl.rate
            candidates = self._completion_candidates
            candidates.clear()
            if self._metrics is not None:
                self._metrics.inc(
                    "kernel.advance.fastcore" if self._fastcore
                    else "kernel.advance.python"
                )
            if t < self._no_completion_before:
                # The pre-advance lookout proved no completion window opens
                # by ``t``: the predicate below is false for every row, so
                # this step only moves bytes — branchlessly. Zero-rate rows
                # (completed mid-window, or silenced) write back their own
                # bytes (``x + 0.0·dt == x`` for the non-negative bytes
                # column), and finished rows sit clamped at volume, so the
                # unconditional write is exact for every row.
                if self._fastcore:
                    _fc.core.advance_running(self._running, vol, bs, rt, dt)
                else:
                    for i in self._running:
                        sent = bs[i] + rt[i] * dt
                        volume = vol[i]
                        bs[i] = sent if sent < volume else volume
            elif self._fastcore:
                _fc.core.advance_collect(
                    self._running, vol, bs, rt, tbl.finish_time, dt,
                    self.config.epsilon_bytes, candidates,
                )
            else:
                ft = tbl.finish_time
                eps = self.config.epsilon_bytes
                for i in self._running:
                    rate = rt[i]
                    if rate > 0 and ft[i] is None:
                        volume = vol[i]
                        sent = bs[i] + rate * dt
                        if sent > volume:
                            sent = volume
                        bs[i] = sent
                        remaining = volume - sent
                        if remaining <= eps or remaining <= rate * 1e-8:
                            candidates.append(i)
            if not self._progressed_synced:
                self.state.delta.progressed |= self._running_cids
                self._progressed_synced = True
            self._advanced_this_step = True
        else:
            self._advanced_this_step = False
        self._now = t
        if self._tracer is not None:
            self._tracer.now = t

    # ---- event processing ---------------------------------------------------------

    def _process_completions(self) -> bool:
        if not self._maybe_done and self._now < self._no_completion_before:
            # The pre-advance scan proved no flow can have completed yet
            # (this step stops strictly before any completion window).
            return False
        tbl = self._table
        vol = tbl.volume
        bs = tbl.bytes_sent
        rt = tbl.rate
        ft = tbl.finish_time
        eps = self.config.epsilon_bytes
        raw: list[int]
        if self._advanced_this_step:
            # The advance loop already found every row whose completion
            # predicate fired; no second scan over the running set needed.
            raw = self._completion_candidates
            self._completion_candidates = []
        else:
            # Zero-width step (events piling up at one instant): rates may
            # have changed since the last advance, so scan everything —
            # exactly what the original per-event pass did.
            if self._fastcore:
                if self._metrics is not None:
                    self._metrics.inc("kernel.scan_candidates.fastcore")
                raw = _fc.core.scan_candidates(
                    self._running, vol, bs, rt, ft, eps
                )
            else:
                if self._metrics is not None:
                    self._metrics.inc("kernel.scan_candidates.python")
                raw = []
                for i in self._running:
                    if ft[i] is not None:
                        continue
                    remaining = vol[i] - bs[i]
                    if remaining <= eps or (
                            rt[i] > 0 and remaining <= rt[i] * 1e-8):
                        raw.append(i)
        if len(raw) > 1:
            # A diff maintains the running set in place, so its iteration
            # order drifts from the full rebuild's; restore that order
            # (active-coflow position, then flow position) so same-instant
            # completions are recorded identically on every apply path.
            active_pos = self._active_pos
            cid = tbl.coflow_id
            pos = tbl.pos
            raw.sort(key=lambda i: (active_pos[cid[i]], pos[i]))
        coflow_of = self._coflow_of
        cid = tbl.coflow_id
        candidates = [(i, coflow_of[cid[i]]) for i in raw]
        if self._maybe_done:
            candidates.extend(self._maybe_done)
            self._maybe_done = []

        view = tbl.view
        touched: dict[int, CoFlow] = {}
        metrics = self._metrics
        for i, coflow in candidates:
            if ft[i] is not None:
                continue
            remaining = vol[i] - bs[i]
            if remaining > eps and not (
                    rt[i] > 0 and remaining <= rt[i] * 1e-8):
                continue  # predicate no longer holds (rates changed)
            bs[i] = vol[i]
            rt[i] = 0.0
            ft[i] = self._now
            f = view[i]
            self.state.note_flow_finished(f)
            self.scheduler.on_flow_completion(f, coflow, self._now)
            touched[coflow.coflow_id] = coflow
            if metrics is not None:
                metrics.inc("flows.completed")
        if not touched:
            return False

        done: set[int] = set()
        tracer = self._tracer
        for coflow in touched.values():
            if coflow.all_flows_finished():
                coflow.finish_time = self._now
                self._finished_ids.add(coflow.coflow_id)
                self._max_finish = self._now
                if metrics is not None:
                    metrics.inc("coflows.completed")
                    metrics.observe("coflow.cct", coflow.cct())
                if tracer is not None:
                    tracer.instant(
                        "coflow_complete", self._now, "session",
                        {"coflow": coflow.coflow_id,
                         "cct": coflow.cct()},
                    )
                if self._sink is None:
                    self._result.coflows.append(coflow)
                else:
                    self._sink(coflow)
                self.scheduler.on_coflow_completion(coflow, self._now)
                done.add(coflow.coflow_id)
                del self._coflow_of[coflow.coflow_id]
                self._evict_coflow(coflow)
        if done:
            # note_coflow_finished discards finished ids from the
            # progressed set below; the next advance must re-union so the
            # delta equals a union at every advance (finished ids reappear
            # while they remain in _running_cids).
            self._progressed_synced = False
            self.state.active_coflows = [
                c for c in self.state.active_coflows
                if c.coflow_id not in done
            ]
            self._active_pos = {
                c.coflow_id: i
                for i, c in enumerate(self.state.active_coflows)
            }
            for coflow_id in done:
                self.state.note_coflow_finished(coflow_id)
                self._release_dependents_of(coflow_id)
        return True

    def _evict_coflow(self, coflow: CoFlow) -> None:
        """Drop a finished coflow's rows from the allocation bookkeeping.

        The table rows themselves are evicted (values copied back into the
        view objects, row recycled) by
        :meth:`ClusterState.note_coflow_finished`, which runs right after
        this cleanup. ``_running_count`` is updated so future
        ``_running_cids`` rebuilds are correct, but the current frozenset is
        left untouched: a finished coflow's id stays in the progressed
        mark-set until the next allocation is applied.
        """
        rows = coflow._rows
        if rows is None:
            return
        running = self._running
        counts = self._running_count
        gated = self._gated
        cid = coflow.coflow_id
        for i in rows:
            gated.pop(i, None)
            if i in running:
                del running[i]
                left = counts.get(cid, 0) - 1
                if left > 0:
                    counts[cid] = left
                else:
                    counts.pop(cid, None)

    def _process_external_events(self) -> bool:
        # Feed the spine: push every stream event due at this instant into
        # the queue (the queue's (time, kind, insertion) order then merges
        # them with derived events exactly as the batch path always did).
        lookahead = self._lookahead
        if lookahead is not None:
            bound = self._now + 1e-15
            while lookahead is not None and lookahead.time <= bound:
                self._events.push(lookahead)
                self._consumed += 1
                self._pull_lookahead()
                lookahead = self._lookahead
        changed = False
        while True:
            head = self._events.peek_time()
            if head is None or head > self._now + 1e-15:
                break
            event = self._events.pop()
            if event.kind is EventKind.COFLOW_ARRIVAL:
                self._handle_arrival(event.payload)
                changed = True
            elif event.kind is EventKind.DYNAMICS:
                event.payload.apply(self, self._now)
                if not isinstance(event.payload, _DataAvailable):
                    if self._metrics is not None:
                        self._metrics.inc("dynamics.actions")
                    if self._tracer is not None:
                        self._tracer.instant(
                            "dynamics", self._now, "dynamics",
                            {"action": type(event.payload).__name__},
                        )
                    # Arbitrary mutation (restarts, capacity changes, …):
                    # incremental bookkeeping must rebuild from scratch.
                    # Data-availability wakeups change nothing the delta
                    # vocabulary tracks, so they stay incremental.
                    self.state.note_dynamics()
                    # Rates/ports may have been rewritten under the diff
                    # baseline's feet (dynamics write through the views
                    # into the table): rebuild the baseline at the next
                    # round.
                    self._full_apply_pending = True
                changed = True
            else:  # SYNC markers never enter the external queue
                raise SimulationError(f"unexpected event kind {event.kind}")
        return changed

    def _handle_arrival(self, coflow: CoFlow) -> None:
        cid = coflow.coflow_id
        if (cid in self._coflow_of or cid in self._waiting_dag
                or cid in self._finished_ids):
            # Batch scenarios catch this up front (validate_workload);
            # streaming scenarios cannot enumerate the future, so the id
            # check happens lazily at arrival.
            raise SimulationError(f"duplicate coflow id {cid}")
        unmet = {d for d in coflow.depends_on if d not in self._finished_ids}
        if unmet:
            self._waiting_dag[cid] = coflow
            self._unmet_deps[cid] = unmet
            for dep in unmet:
                self._dep_waiters.setdefault(dep, []).append(coflow)
            return
        self._activate(coflow)

    def _activate(self, coflow: CoFlow) -> None:
        # Batch scenarios validate flow-id uniqueness up front; streams
        # cannot, and a duplicate *live* flow id would silently corrupt
        # the flow table (adoption overwrites ``row_of``, so allocations
        # keyed by flow id land on the wrong row). Catch it here, with the
        # batch validator's error text. Reusing a *finished* flow's id is
        # allowed for streams (an unbounded generator cannot keep every id
        # unique forever without O(total) memory) — but the epoch diff's
        # previous-rate map is keyed by flow id and outlives eviction, so
        # purge the predecessor's entry or the diff would mistake the
        # newcomer's first allocation for "unchanged" and never write its
        # rate. Rates only enter the map for *arrived* flows, and batch
        # workloads are globally unique, so the pop never fires outside
        # id-reusing streams (bit-identical no-op). ``flow_efficiency`` is
        # deliberately NOT purged: efficiency is an id-keyed property of
        # the simulation that dynamics may pre-register before the flow
        # arrives (inject_stragglers does), and it follows a reused id
        # until StragglerRecovery clears it.
        row_of = self._table.row_of
        prev_rates = self._prev_rates
        for f in coflow.flows:
            fid = f.flow_id
            if fid in row_of:
                raise SimulationError(f"duplicate flow id {fid}")
            if prev_rates:
                prev_rates.pop(fid, None)
        # DAG-released stages start counting CCT from their release instant.
        coflow.arrival_time = max(coflow.arrival_time, self._now)
        self._active_pos[coflow.coflow_id] = len(self.state.active_coflows)
        self.state.active_coflows.append(coflow)
        # Adopts the coflow's flows into the flow table (rows in ``flows``
        # order, which is the same-instant completion tie-break order).
        self.state.note_activated(coflow)
        self._coflow_of[coflow.coflow_id] = coflow
        if self._metrics is not None:
            self._metrics.inc("coflows.activated")
        if self._tracer is not None:
            self._tracer.instant(
                "coflow_arrival", self._now, "session",
                {"coflow": coflow.coflow_id, "width": coflow.width},
            )
        if self.machine_efficiency:
            # Flows arriving at a straggling machine inherit its efficiency
            # for the rest of the episode (StragglerEvent semantics).
            fe = self.flow_efficiency
            for f in coflow.flows:
                eff = self.machine_efficiency.get(f.src)
                if eff is not None:
                    fe[f.flow_id] = eff
        self.scheduler.on_coflow_arrival(coflow, self._now)
        tbl = self._table
        vol = tbl.volume
        bs = tbl.bytes_sent
        avail = tbl.available_time
        eps = self.config.epsilon_bytes
        now = self._now
        for i in coflow._rows:
            # Wake the scheduler when pipelined data becomes available
            # (§4.3), and catch zero-volume flows that are born complete.
            if avail[i] > now:
                self._events.push(
                    Event(avail[i], EventKind.DYNAMICS,
                          _DataAvailable(avail[i]))
                )
            if vol[i] - bs[i] <= eps:
                self._maybe_done.append((i, coflow))

    def _release_dependents_of(self, finished_id: int) -> None:
        waiters = self._dep_waiters.pop(finished_id, None)
        if not waiters:
            return
        for c in waiters:
            unmet = self._unmet_deps.get(c.coflow_id)
            if unmet is None:
                continue  # already released via another dependency list
            unmet.discard(finished_id)
            if not unmet:
                del self._unmet_deps[c.coflow_id]
                del self._waiting_dag[c.coflow_id]
                self._activate(c)

    # ---- scheduling ------------------------------------------------------------------

    def _request_resync(self, t: float) -> None:
        """Ask for a schedule recomputation, quantised to the δ grid."""
        delta = self.config.sync_interval
        if delta > 0:
            t = math.ceil((t - 1e-12) / delta) * delta
        if self._next_sync is None or t < self._next_sync:
            self._next_sync = t

    def _recompute_schedule(self) -> None:
        self._next_sync = None
        timers = self._timers
        if timers is None:
            allocation = self.scheduler.schedule(self.state, self._now)
            self.state.delta.clear()
            self._apply_allocation(allocation)
        else:
            _t0 = perf_counter_ns()
            allocation = self.scheduler.schedule(self.state, self._now)
            _t1 = perf_counter_ns()
            timers.add("schedule", _t1 - _t0)
            self.state.delta.clear()
            self._apply_allocation(allocation)
            timers.add("apply", perf_counter_ns() - _t1)
        self._result.reschedules += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.inc("schedule.rounds")
            metrics.inc("admission.scheduled",
                        len(allocation.scheduled_coflows))
            metrics.inc("admission.work_conserved",
                        len(allocation.work_conserved_coflows))
            metrics.observe("schedule.flows_rated", len(allocation.rates))
        if self._tracer is not None:
            self._trace_round(allocation)
        if self._observer is not None:
            self._observer.on_schedule(self.state, allocation, self._now)
        wakeup = self.scheduler.next_wakeup(self.state, allocation, self._now)
        # Sub-nanosecond wakeups cannot advance float64 time at realistic
        # clock values; dropping them avoids reschedule storms.
        if wakeup is not None and wakeup > self._now + 1e-9:
            self._request_resync(wakeup)

    def _trace_round(self, allocation: Allocation) -> None:
        """Emit the per-round trace events (read-only over engine state)."""
        tracer = self._tracer
        now = self._now
        tracer.now = now
        tracer.instant(
            "schedule", now, "schedule",
            {"round": self._result.reschedules,
             "active": len(self.state.active_coflows),
             "scheduled": len(allocation.scheduled_coflows),
             "work_conserved": len(allocation.work_conserved_coflows),
             "flows_rated": len(allocation.rates)},
        )
        if tracer.wants("port"):
            self._trace_utilisation(tracer, now)

    def _trace_utilisation(self, tracer: "Tracer", now: float) -> None:
        """Per-port utilisation / link-saturation counters for one round.

        Walks the *applied* rates of the running rows — a pure read of the
        table columns after the allocation landed, so tracing can never
        perturb the allocation itself. In path-aware mode, link usage only
        reads the path map's existing cache (every granted flow's pair was
        assigned during allocation); it never triggers a path choice.
        """
        tbl = self._table
        rt = tbl.rate
        srcs = tbl.src
        dsts = tbl.dst
        usage: dict[int, float] = {}
        for i in self._running:
            r = rt[i]
            if r > 0.0:
                s = srcs[i]
                d = dsts[i]
                usage[s] = usage.get(s, 0.0) + r
                usage[d] = usage.get(d, 0.0) + r
        override = self.state.capacity_override
        port_rate = self.fabric.port_rate
        total_util = 0.0
        peak = 0.0
        saturated = 0
        for p, u in usage.items():
            cap = override.get(p, port_rate)
            util = u / cap if cap > 0.0 else 1.0
            total_util += util
            if util > peak:
                peak = util
            if util >= 0.999:
                saturated += 1
        n = len(usage)
        tracer.counter(
            "port_utilisation", now, "port",
            {"ports_active": n,
             "mean_util": total_util / n if n else 0.0,
             "peak_util": peak,
             "saturated": saturated},
        )
        if self._metrics is not None and n:
            self._metrics.observe("port.peak_util", peak)
            self._metrics.observe("port.mean_util", total_util / n)
        paths = self.state.paths
        if paths is None:
            return
        cache_get = paths._cache.get
        link_usage: dict[int, float] = {}
        for i in self._running:
            r = rt[i]
            if r > 0.0:
                for link in cache_get((srcs[i], dsts[i]), ()):
                    link_usage[link] = link_usage.get(link, 0.0) + r
        topology = self.state.topology
        sat_links = 0
        peak_link = 0.0
        for link, u in link_usage.items():
            cap = override.get(link)
            if cap is None:
                cap = topology.link_capacity(link)
            util = u / cap if cap > 0.0 else 1.0
            if util > peak_link:
                peak_link = util
            if util >= 0.999:
                sat_links += 1
        tracer.counter(
            "link_saturation", now, "port",
            {"links_active": len(link_usage),
             "peak_util": peak_link,
             "saturated": sat_links},
        )

    def _apply_allocation(self, allocation: Allocation) -> None:
        # The delta was just cleared and/or the running set may change:
        # the next advance must re-union progressed coflow ids.
        self._progressed_synced = False
        if self._full_apply_pending:
            self._full_apply_pending = (
                self._rate_perturbation is not None
                or not self.config.incremental
            )
            self._apply_full_epoch(allocation)
        else:
            self._apply_diff(allocation)

    def _apply_full_epoch(self, allocation: Allocation) -> None:
        """Full rebuild opening a fresh epoch baseline.

        Runs on the first round, after dynamics mutated state in ways a
        diff cannot describe, and on every round under rate perturbation
        or ``incremental=False``. The perturbation hook is called in
        active-coflow then flow order, after efficiency scaling, and only
        for an available flow with a positive rate: a stateful hook such as
        :class:`~repro.simulator.testbed.RateJitter` draws in that order.
        """
        running = self._running
        running.clear()  # kept: same dict object
        counts: dict[int, int] = {}
        gated: dict[int, None] = {}
        rates_get = allocation.rates.get
        efficiency = self.flow_efficiency
        perturb = self._rate_perturbation
        state = self.state
        now = self._now
        tbl = self._table
        fid = tbl.flow_id
        cidc = tbl.coflow_id
        ft = tbl.finish_time
        rt = tbl.rate
        st = tbl.start_time
        avail = tbl.available_time
        view = tbl.view
        for coflow in state.active_coflows:
            rows = state.pending_rows(coflow)
            if rows is None:  # pragma: no cover - engine states always track
                rows = []
            for i in rows:
                if ft[i] is not None:
                    continue
                rate = rates_get(fid[i], 0.0)
                if rate > 0:
                    if avail[i] > now:
                        # §4.3: data not yet produced cannot be sent. A
                        # scheduler that allocates here (availability-
                        # oblivious) has reserved the ports for nothing —
                        # the slot is wasted, which is the behaviour the
                        # data-unavailability experiment measures.
                        rate = 0.0
                        gated[i] = None
                    else:
                        if efficiency:
                            rate *= efficiency.get(fid[i], 1.0)
                        if perturb is not None and rate > 0:
                            rate = perturb(view[i], rate)
                rate = rate if rate > 0.0 else 0.0
                rt[i] = rate
                if rate > 0:
                    running[i] = None
                    cid = cidc[i]
                    counts[cid] = counts.get(cid, 0) + 1
                    if st[i] is None:
                        st[i] = now
        self._running_count = counts
        self._running_cids = frozenset(counts)
        self._gated = gated
        self._prev_rates = allocation.rates
        if self._metrics is not None:
            self._metrics.inc("epoch.full")
        if self._tracer is not None:
            self._tracer.instant(
                "epoch_full", now, "epoch",
                {"running": len(running)},
            )

    def _apply_diff(self, allocation: Allocation) -> None:
        """Apply an allocation as a diff against the previous epoch.

        Only flows whose raw rate changed — plus availability-gated flows,
        whose effective rate can change with time alone — are touched;
        everyone else keeps rate and membership. The diff is found with
        C-level dict-view set operations over the raw ``flow_id → rate``
        maps, then applied through the table columns (one ``flow_id → row``
        lookup per changed flow), so a quiet round costs O(changed) instead
        of O(active flows).
        """
        new = allocation.rates
        prev = self._prev_rates
        dropped = prev.keys() - new.keys()
        # Changed entries by direct probe: an int-keyed dict get plus a
        # float compare per entry beats hashing every (flow_id, rate) tuple
        # of both maps into item-view sets, especially for policies that
        # rewrite every rate every round. (A missing key probes as None,
        # which never equals a float rate, so additions are caught too.)
        fastcore = self._fastcore
        changed: list[tuple[int, float]]
        if fastcore:
            changed = _fc.core.diff_changed(new, prev)
        else:
            prev_get = prev.get
            changed = []
            changed_append = changed.append
            for item in new.items():
                if prev_get(item[0]) != item[1]:
                    changed_append(item)
        gated = self._gated
        running = self._running
        counts = self._running_count
        if self._metrics is not None:
            self._metrics.inc("epoch.diff")
            self._metrics.observe("epoch.churn", len(dropped) + len(changed))
        if self._tracer is not None:
            self._tracer.instant(
                "rate_diff", self._now, "epoch",
                {"changed": len(changed), "dropped": len(dropped),
                 "running": len(running)},
            )

        tbl = self._table
        if fastcore:
            if self._metrics is not None:
                self._metrics.inc("kernel.apply_diff.fastcore")
            members_changed = _fc.core.apply_diff(
                dropped, changed, new, tbl.row_of, tbl.flow_id,
                tbl.coflow_id, tbl.finish_time, tbl.rate, tbl.start_time,
                tbl.available_time, running, counts, gated,
                self.flow_efficiency, self._now,
            )
            self._prev_rates = new
            if members_changed:
                self._running_cids = frozenset(counts)
            return
        if self._metrics is not None:
            self._metrics.inc("kernel.apply_diff.python")
        row_of_get = tbl.row_of.get
        fid = tbl.flow_id
        cidc = tbl.coflow_id
        ft = tbl.finish_time
        rt = tbl.rate
        st = tbl.start_time
        avail = tbl.available_time
        efficiency = self.flow_efficiency
        now = self._now
        members_changed = False

        for dropped_fid in dropped:
            i = row_of_get(dropped_fid)
            if i is None:
                continue  # evicted with its finished coflow
            if ft[i] is None and rt[i] != 0.0:
                rt[i] = 0.0
            if i in running:
                del running[i]
                members_changed = True
                cid = cidc[i]
                left = counts[cid] - 1
                if left > 0:
                    counts[cid] = left
                else:
                    del counts[cid]
            if gated:
                gated.pop(i, None)

        if gated:
            # Unchanged raw rate, but the availability window may have
            # opened since the last round: always re-evaluate. Snapshot
            # (by flow id) before the changed-entry pass below mutates
            # ``gated``, as a full apply decides every row from the state
            # before the round.
            new_get = new.get
            gated_pairs = [(fid[i], new_get(fid[i], 0.0)) for i in gated]
            pairs = chain(changed, gated_pairs)
        else:
            # ``changed`` is iterated directly: an intermediate (row, rate)
            # list would cost a tuple per flow on policies that rewrite
            # every rate every round.
            pairs = changed
        for changed_fid, raw in pairs:
            i = row_of_get(changed_fid)
            if i is None:
                continue  # evicted with its finished coflow
            if ft[i] is not None:
                continue
            rate = raw
            if rate > 0:
                if avail[i] > now:
                    rate = 0.0
                    gated[i] = None
                else:
                    if gated:
                        gated.pop(i, None)
                    if efficiency:
                        rate *= efficiency.get(fid[i], 1.0)
            if rate <= 0.0:
                rate = 0.0
            if rate != rt[i]:
                rt[i] = rate
                if rate > 0:
                    if i not in running:
                        running[i] = None
                        members_changed = True
                        cid = cidc[i]
                        counts[cid] = counts.get(cid, 0) + 1
                    if st[i] is None:
                        st[i] = now
                else:
                    if i in running:
                        del running[i]
                        members_changed = True
                        cid = cidc[i]
                        left = counts[cid] - 1
                        if left > 0:
                            counts[cid] = left
                        else:
                            del counts[cid]
        self._prev_rates = new
        if members_changed:
            self._running_cids = frozenset(counts)

    # ---- diagnostics --------------------------------------------------------------------

    def _raise_stuck(self) -> None:
        stuck = [
            c.coflow_id
            for c in self.state.active_coflows
            if not c.all_flows_finished()
        ]
        waiting = sorted(self._waiting_dag)
        raise SimulationError(
            f"simulation stalled at t={self._now}: no future events, "
            f"active coflows {stuck}, DAG-blocked coflows {waiting}. "
            f"This usually means the scheduler allocated zero rate to every "
            f"remaining flow, or a DAG dependency cycle exists."
        )


@dataclass
class _DataAvailable:
    """Internal no-op dynamics action: wakes the scheduler when pipelined
    data becomes available (§4.3)."""

    time: float

    def apply(self, sim: SimulationSession, now: float) -> None:
        """No state change needed — the reschedule itself is the effect."""
