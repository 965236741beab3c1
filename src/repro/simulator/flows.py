"""Flow and CoFlow data model (the CoFlow abstraction, §2.1).

A :class:`Flow` is a point-to-point transfer between one sender port and one
receiver port with a known byte volume (volumes are used by the *simulator*
to know when a flow completes; online schedulers such as Saath and Aalo never
read them — they only see bytes sent so far).

A :class:`CoFlow` is a set of semantically-related flows; its completion time
(CCT) is the time from its arrival until its **last** flow finishes.

**Flow-table views.** During a simulation the mutable hot state of every
active flow (``bytes_sent``, ``rate``, ``finish_time``, ``start_time``,
``dst``) lives in the struct-of-arrays
:class:`~repro.simulator.state.FlowTable`, and the :class:`Flow` object is a
thin *view*: the fields above are properties that read/write the table row
the flow was adopted into. Detached flows (before activation, or after
their coflow completes) carry the same state in shadow slots, so the object
behaves identically either way. Attachment is an
engine-internal lifecycle (see ``FlowTable.adopt`` / ``evict``); policy and
analysis code never needs to know which mode a flow is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import ConfigError


class Flow:
    """One flow of a coflow.

    Mutable simulation state (``bytes_sent``, ``rate``, timestamps) lives on
    the object while detached and in the owning
    :class:`~repro.simulator.state.FlowTable` row while attached; static
    description (ports, volume) is set at construction.
    """

    __slots__ = (
        "flow_id", "coflow_id", "src", "volume", "available_time",
        "_dst", "_bytes_sent", "_rate", "_start_time", "_finish_time",
        "_tbl", "_row",
    )

    def __init__(
        self,
        flow_id: int,
        coflow_id: int,
        src: int,
        dst: int,
        volume: float,
        bytes_sent: float = 0.0,
        rate: float = 0.0,
        start_time: float | None = None,
        finish_time: float | None = None,
        available_time: float = 0.0,
    ):
        if volume < 0:
            raise ConfigError(f"flow volume must be >= 0, got {volume}")
        if src == dst:
            raise ConfigError(
                f"flow {flow_id}: src and dst ports must differ "
                f"(got port {src} for both)"
            )
        self.flow_id = flow_id
        self.coflow_id = coflow_id
        self.src = src
        self.volume = volume
        #: Time at which the flow's data becomes available to send (§4.3,
        #: pipelined frameworks). 0 = available from coflow arrival.
        self.available_time = available_time
        self._dst = dst
        self._bytes_sent = bytes_sent
        self._rate = rate
        self._start_time = start_time
        self._finish_time = finish_time
        #: Owning flow table and row index while attached (engine lifetime).
        self._tbl = None
        self._row = -1

    # ---- table-backed fields ----------------------------------------------

    @property
    def dst(self) -> int:
        t = self._tbl
        return self._dst if t is None else t.dst[self._row]

    @dst.setter
    def dst(self, value: int) -> None:
        t = self._tbl
        if t is None:
            self._dst = value
        else:
            t.dst[self._row] = value

    @property
    def bytes_sent(self) -> float:
        t = self._tbl
        return self._bytes_sent if t is None else t.bytes_sent[self._row]

    @bytes_sent.setter
    def bytes_sent(self, value: float) -> None:
        t = self._tbl
        if t is None:
            self._bytes_sent = value
        else:
            t.bytes_sent[self._row] = value

    @property
    def rate(self) -> float:
        """Current allocated rate, bytes/second."""
        t = self._tbl
        return self._rate if t is None else t.rate[self._row]

    @rate.setter
    def rate(self, value: float) -> None:
        t = self._tbl
        if t is None:
            self._rate = value
        else:
            t.rate[self._row] = value

    @property
    def start_time(self) -> float | None:
        """First instant with rate > 0 (None until scheduled)."""
        t = self._tbl
        return self._start_time if t is None else t.start_time[self._row]

    @start_time.setter
    def start_time(self, value: float | None) -> None:
        t = self._tbl
        if t is None:
            self._start_time = value
        else:
            t.start_time[self._row] = value

    @property
    def finish_time(self) -> float | None:
        t = self._tbl
        return self._finish_time if t is None else t.finish_time[self._row]

    @finish_time.setter
    def finish_time(self, value: float | None) -> None:
        t = self._tbl
        if t is None:
            self._finish_time = value
        else:
            t.finish_time[self._row] = value

    # ---- derived state -----------------------------------------------------

    @property
    def remaining(self) -> float:
        """Bytes still to send."""
        return max(self.volume - self.bytes_sent, 0.0)

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    def advance(self, duration: float) -> None:
        """Progress the flow at its current rate for ``duration`` seconds."""
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        if self.rate > 0 and not self.finished:
            self.bytes_sent = min(self.volume, self.bytes_sent + self.rate * duration)

    def time_to_completion(self) -> float:
        """Seconds until this flow finishes at the current rate (inf if idle)."""
        if self.finished:
            return math.inf
        if self.rate <= 0:
            return math.inf
        return self.remaining / self.rate

    def fct(self, coflow_arrival: float) -> float:
        """Flow completion time measured from the coflow arrival instant."""
        if self.finish_time is None:
            raise ValueError(f"flow {self.flow_id} has not finished")
        return self.finish_time - coflow_arrival

    # ---- value semantics (mirrors the former dataclass) --------------------

    def _astuple(self) -> tuple:
        return (
            self.flow_id, self.coflow_id, self.src, self.dst, self.volume,
            self.bytes_sent, self.rate, self.start_time, self.finish_time,
            self.available_time,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Flow:
            return self._astuple() == other._astuple()  # type: ignore[union-attr]
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable value type

    def __repr__(self) -> str:
        return (
            f"Flow(flow_id={self.flow_id!r}, coflow_id={self.coflow_id!r}, "
            f"src={self.src!r}, dst={self.dst!r}, volume={self.volume!r}, "
            f"bytes_sent={self.bytes_sent!r}, rate={self.rate!r}, "
            f"start_time={self.start_time!r}, "
            f"finish_time={self.finish_time!r}, "
            f"available_time={self.available_time!r})"
        )


@dataclass(slots=True)
class CoFlow:
    """A coflow: a set of flows plus online bookkeeping.

    Scheduler-owned fields (``queue``, ``deadline``, ``queue_entry_time``)
    are kept here for convenience; they carry no meaning until a scheduler
    sets them.
    """

    coflow_id: int
    arrival_time: float
    flows: list[Flow] = field(default_factory=list)

    #: Current priority-queue index (0 = highest priority).
    queue: int = 0
    #: Absolute starvation deadline (§4.2 D5); +inf until assigned.
    deadline: float = math.inf
    #: Instant the coflow last changed queue (deadline bookkeeping).
    queue_entry_time: float = 0.0
    finish_time: float | None = None
    #: Optional DAG metadata: ids of coflows (stages) this one depends on.
    depends_on: tuple[int, ...] = ()
    #: Optional job association (for JCT accounting, §7.2).
    job_id: int | None = None
    #: Flow-table attachment (engine lifetime): the owning table and this
    #: coflow's row indices, aligned with ``flows`` order.
    _table: "object | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _rows: "list[int] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for f in self.flows:
            if f.coflow_id != self.coflow_id:
                raise ConfigError(
                    f"flow {f.flow_id} has coflow_id {f.coflow_id}, "
                    f"expected {self.coflow_id}"
                )

    # ---- static structure -------------------------------------------------

    @property
    def width(self) -> int:
        """Number of flows (the paper's *width*)."""
        return len(self.flows)

    @property
    def total_volume(self) -> float:
        """Sum of flow volumes in bytes (the paper's *size*)."""
        return sum(f.volume for f in self.flows)

    @property
    def max_flow_volume(self) -> float:
        return max((f.volume for f in self.flows), default=0.0)

    def sender_ports(self) -> set[int]:
        return {f.src for f in self.flows}

    def receiver_ports(self) -> set[int]:
        return {f.dst for f in self.flows}

    def ports(self) -> set[int]:
        """All sender and receiver ports this coflow touches.

        Sender and receiver port id spaces are disjoint (see
        :mod:`repro.simulator.fabric`), so a plain union is correct.
        """
        return self.sender_ports() | self.receiver_ports()

    def flows_at_sender(self, port: int) -> list[Flow]:
        return [f for f in self.flows if f.src == port]

    def flows_at_receiver(self, port: int) -> list[Flow]:
        return [f for f in self.flows if f.dst == port]

    # ---- dynamic state ----------------------------------------------------

    @property
    def bytes_sent(self) -> float:
        """Total bytes sent across all flows (Aalo's queue metric)."""
        # List comprehension + C-level sum: same accumulation order and
        # floats as the generator form, without the frame switching. The
        # attached path reads the flow-table column directly (rows are in
        # ``flows`` order, so the accumulation order is unchanged).
        rows = self._rows
        if rows is not None:
            bs = self._table.bytes_sent
            return sum([bs[i] for i in rows])
        return sum([f.bytes_sent for f in self.flows])

    @property
    def max_flow_bytes_sent(self) -> float:
        """Bytes sent by the longest-progress flow (Saath's ``m_c``, D3)."""
        rows = self._rows
        if rows is not None:
            if not rows:
                return 0.0
            bs = self._table.bytes_sent
            return max([bs[i] for i in rows])
        if not self.flows:
            return 0.0
        return max([f.bytes_sent for f in self.flows])

    @property
    def remaining(self) -> float:
        return sum(f.remaining for f in self.flows)

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    def unfinished_flows(self) -> list[Flow]:
        return [f for f in self.flows if not f.finished]

    def finished_flows(self) -> list[Flow]:
        return [f for f in self.flows if f.finished]

    def all_flows_finished(self) -> bool:
        return all(f.finished for f in self.flows)

    def cct(self) -> float:
        """CoFlow completion time: last flow finish minus arrival."""
        if self.finish_time is None:
            raise ValueError(f"coflow {self.coflow_id} has not finished")
        return self.finish_time - self.arrival_time

    # ---- clairvoyant metrics (offline schedulers only) ---------------------

    def bottleneck_remaining_bytes(self) -> float:
        """Largest per-port remaining byte load (SEBF's Γ numerator).

        Considers both sender-side and receiver-side aggregation, as Varys's
        effective-bottleneck computation does.
        """
        load: dict[int, float] = {}
        for f in self.flows:
            if f.finished:
                continue
            load[f.src] = load.get(f.src, 0.0) + f.remaining
            load[f.dst] = load.get(f.dst, 0.0) + f.remaining
        return max(load.values(), default=0.0)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self.flows)


def make_coflow(
    coflow_id: int,
    arrival_time: float,
    transfers: Iterable[tuple[int, int, float]],
    *,
    flow_id_start: int = 0,
    depends_on: tuple[int, ...] = (),
    job_id: int | None = None,
) -> CoFlow:
    """Convenience constructor from ``(src, dst, volume_bytes)`` triples.

    Flow ids are assigned sequentially from ``flow_id_start``; they only
    need to be unique within one simulation, and trace loaders guarantee it
    by spacing the start values.
    """
    flows = [
        Flow(flow_id=flow_id_start + i, coflow_id=coflow_id,
             src=src, dst=dst, volume=vol)
        for i, (src, dst, vol) in enumerate(transfers)
    ]
    if not flows:
        raise ConfigError(f"coflow {coflow_id} must have at least one flow")
    return CoFlow(
        coflow_id=coflow_id,
        arrival_time=arrival_time,
        flows=flows,
        depends_on=depends_on,
        job_id=job_id,
    )


def clone_coflows(coflows: Iterable[CoFlow]) -> list[CoFlow]:
    """Deep-copy a workload so it can be replayed under another scheduler.

    Simulation runs mutate flow state (bytes sent, finish times); comparing
    policies on the same workload therefore requires fresh copies. Only the
    static description is carried over — all dynamic state resets.
    """
    fresh: list[CoFlow] = []
    new = Flow.__new__
    for c in coflows:
        flows = []
        for f in c.flows:
            # Direct slot initialisation: the source flow already passed
            # construction validation, and experiment sweeps clone whole
            # workloads once per (policy, trace) run.
            g = new(Flow)
            g.flow_id = f.flow_id
            g.coflow_id = f.coflow_id
            g.src = f.src
            g.volume = f.volume
            g.available_time = f.available_time
            g._dst = f.dst
            g._bytes_sent = 0.0
            g._rate = 0.0
            g._start_time = None
            g._finish_time = None
            g._tbl = None
            g._row = -1
            flows.append(g)
        fresh.append(
            CoFlow(
                coflow_id=c.coflow_id,
                arrival_time=c.arrival_time,
                flows=flows,
                depends_on=c.depends_on,
                job_id=c.job_id,
            )
        )
    return fresh
