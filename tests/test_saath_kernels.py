"""Saath's compiled kernels against their Python twins, on hand-built states.

* ``saath_round`` (:meth:`SaathScheduler._round_compiled`) against the
  Python round (:meth:`SaathScheduler._round_rows`): all-or-none
  admission, D2 equal rates and work conservation over coflows in a given
  order. Random states on the big switch and on a multi-rack 4:1
  leaf-spine whose core links saturate, with availability-gated rows,
  capacity overrides (0 included), a pre-loaded ledger and work
  conservation on and off. Both rounds must agree on the rates (bits and
  dict order), both coflow sets, the ledger's usage and its touched set.
* ``per_flow_transitions`` (:meth:`QueueTracker.earliest_transition`)
  against the per-coflow loop over :meth:`QueueTracker.next_transition_time`
  in Python, including coflows in the last queue, immediate crossings,
  unreachable thresholds and, over every row, finished flows.
* ``max_bytes_sent`` (:meth:`QueueTracker.metric_values`) against
  :attr:`CoFlow.max_flow_bytes_sent`.

Every compiled leg skips when the extension is not built.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _fastcore
from repro.config import QueueConfig, SimulationConfig
from repro.core.saath import SaathScheduler
from repro.errors import SchedulerError
from repro.schedulers.base import Allocation
from repro.schedulers.queues import QueueTracker
from repro.simulator.fabric import Fabric
from repro.simulator.flows import CoFlow, Flow
from repro.simulator.state import ClusterState
from repro.simulator.topology import LeafSpineTopology

needs_core = pytest.mark.skipif(
    not _fastcore.AVAILABLE, reason="repro._fastcore extension not built"
)

MACHINES = 8
NOW = 1.0
QUEUES = QueueConfig(num_queues=4, start_threshold=1e3, growth_factor=10.0)


def _random_coflows(rng: random.Random) -> list[CoFlow]:
    """2–9 coflows of 1–8 flows: partly sent, some finished, some with
    data available only later (or exactly at ``NOW``)."""
    coflows = []
    fid = 0
    for cid in range(1, rng.randrange(3, 11)):
        flows = []
        for _ in range(rng.randrange(1, 9)):
            src = rng.randrange(MACHINES)
            dst = rng.randrange(MACHINES)
            if dst == src:
                dst = (dst + 1) % MACHINES
            f = Flow(flow_id=fid, coflow_id=cid, src=src,
                     dst=dst + MACHINES,
                     volume=rng.choice([0.0, 300.0, 2e3, 5e4, 1e6,
                                        1e6 * rng.random()]))
            f.bytes_sent = f.volume * rng.choice([0.0, rng.random(), 1.0])
            if rng.random() < 0.15:
                f.bytes_sent = f.volume
                f.finish_time = 0.5
            if rng.random() < 0.2:
                f.available_time = NOW + rng.choice([0.0, 0.5])
            flows.append(f)
            fid += 1
        coflows.append(CoFlow(coflow_id=cid, arrival_time=0.0, flows=flows))
    return coflows


def _random_state(rng: random.Random, fabric_kind: str) -> ClusterState:
    fabric = Fabric(num_machines=MACHINES, port_rate=1e6)
    topology = None
    num_links = fabric.num_ports
    if fabric_kind == "leafspine":
        topology = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)
        num_links = topology.num_links
    overrides = {
        link: rng.choice([0.0, 0.5, 2e5, 3e6])
        for link in rng.sample(range(num_links), rng.randrange(0, 4))
    }
    return ClusterState(
        fabric=fabric, active_coflows=_random_coflows(rng),
        capacity_override=overrides, topology=topology,
        respect_availability=rng.random() < 0.8,
    )


def _preload(state: ClusterState, ledger, rng: random.Random) -> None:
    """Commit random load on a few host pairs' whole paths."""
    for _ in range(rng.randrange(0, 5)):
        src = rng.randrange(MACHINES)
        dst = MACHINES + rng.randrange(MACHINES)
        if dst - MACHINES == src:
            continue
        extra = state.paths.extra_links(src, dst) if state.paths else ()
        room = min(ledger.residual(link) for link in (src, dst, *extra))
        if room > 0:
            ledger.commit(src, dst, room * rng.choice([0.3, 1.0]))


@needs_core
@pytest.mark.parametrize("fabric_kind", ["bigswitch", "leafspine"])
def test_compiled_round_matches_python_round(fabric_kind):
    rng = random.Random(1717)
    seen = {"scheduled": 0, "conserved": 0, "gated": 0, "core_full": 0}
    for trial in range(300):
        state = _random_state(rng, fabric_kind)
        cfg = SimulationConfig(port_rate=1e6, queues=QUEUES,
                               min_rate=rng.choice([1.0, 1e3, 1e5]))
        saath = SaathScheduler(cfg, work_conservation=rng.random() < 0.75)
        order = list(state.active_coflows)
        rng.shuffle(order)
        load_seed = rng.random()
        out = {}
        for name, round_ in (("python", saath._round_rows),
                             ("compiled", saath._round_compiled)):
            ledger = state.make_ledger()
            _preload(state, ledger, random.Random(load_seed))
            allocation = Allocation()
            round_(state, NOW, order, ledger, allocation)
            out[name] = (
                [(fid, rate.hex()) for fid, rate in allocation.rates.items()],
                allocation.scheduled_coflows,
                allocation.work_conserved_coflows,
                [used.hex() for used in ledger.used_list],
                ledger.touched_set,
            )
        assert out["compiled"] == out["python"], f"trial {trial}"
        rates, scheduled, conserved, used, _ = out["python"]
        seen["scheduled"] += bool(scheduled)
        seen["conserved"] += bool(conserved)
        seen["gated"] += any(
            state.respect_availability and f.finish_time is None
            and f.available_time > NOW
            for c in order for f in c.flows
        )
        if state.topology is not None:
            cap = state.make_ledger().capacity_list
            seen["core_full"] += any(
                float.fromhex(used[link]) >= cap[link]
                for link in state.topology.core_links()
            )
    # The trials really reach every branch.
    assert all(seen[k] > 20 for k in ("scheduled", "conserved", "gated"))
    if fabric_kind == "leafspine":
        assert seen["core_full"] > 20


def _tracked(rng: random.Random):
    """A random state whose coflows sit in random queues (the last one
    included), plus random rates over their flows."""
    state = _random_state(rng, rng.choice(["bigswitch", "leafspine"]))
    tracker = QueueTracker(SimulationConfig(queues=QUEUES), metric="perflow")
    for c in state.active_coflows:
        tracker.admit(c, 0.0)
        tracker.force_queue(c, rng.randrange(QUEUES.num_queues), 0.0)
    rates = {}
    for c in state.active_coflows:
        for f in c.flows:
            if rng.random() < 0.8:
                rates[f.flow_id] = rng.choice([0.0, 1.0, 5e3,
                                               1e6 * rng.random()])
    return state, tracker, rates


@needs_core
def test_batched_wakeup_matches_per_coflow_loop():
    rng = random.Random(99)
    immediate = finite = 0
    for trial in range(400):
        state, tracker, rates = _tracked(rng)
        coflows = list(state.active_coflows)
        rng.shuffle(coflows)
        state.table.fastcore = False
        one_by_one = [
            tracker.next_transition_time(c, rates,
                                         pending_rows=state.pending_rows(c))
            for c in coflows
        ]
        expected = min(one_by_one, default=math.inf)
        # Saath's wakeup instant, as the per-coflow loop formed it.
        instant = math.inf
        for dt in one_by_one:
            if dt < math.inf:
                instant = min(instant, NOW + max(dt, 0.0))
        state.table.fastcore = True
        got = tracker.earliest_transition(state, coflows, rates)
        assert got.hex() == expected.hex(), f"trial {trial}"
        assert (NOW + max(got, 0.0) if got < math.inf else math.inf) == instant
        # The pending rows never hold a finished flow; over every row the
        # kernel must skip those as the Python scan does.
        qcfg = tracker.config.queues
        pairs = [(c._rows, qcfg.hi_threshold(q) / c.width) for c in coflows
                 if (q := tracker.queue_of(c)) < qcfg.num_queues - 1]
        table = state.table
        every_row = _fastcore.core.per_flow_transitions(
            pairs, table.flow_id, table.finish_time, table.volume,
            table.bytes_sent, rates,
        )
        assert every_row.hex() == min(
            (tracker.next_transition_time(c, rates) for c in coflows),
            default=math.inf,
        ).hex(), f"trial {trial}"
        immediate += expected == 0.0
        finite += 0.0 < expected < math.inf
    assert immediate > 20 and finite > 20


@needs_core
def test_batched_refresh_metric_matches_per_coflow_metric():
    rng = random.Random(5)
    for trial in range(300):
        state, tracker, _ = _tracked(rng)
        coflows = list(state.active_coflows)
        rng.shuffle(coflows)
        expected = [c.max_flow_bytes_sent.hex() for c in coflows]
        state.table.fastcore = True
        got = tracker.metric_values(coflows, state.table)
        assert [m.hex() for m in got] == expected, f"trial {trial}"


@pytest.mark.parametrize("fastcore", [False, True],
                         ids=["python", "fastcore"])
def test_untracked_coflow_still_raises(fastcore):
    if fastcore and not _fastcore.AVAILABLE:
        pytest.skip("repro._fastcore extension not built")
    fabric = Fabric(num_machines=4, port_rate=100.0)
    c = CoFlow(coflow_id=7, arrival_time=0.0,
               flows=[Flow(flow_id=0, coflow_id=7, src=0, dst=5,
                           volume=1e3)])
    state = ClusterState(fabric=fabric, active_coflows=[c])
    state.table.fastcore = fastcore
    saath = SaathScheduler(SimulationConfig(port_rate=100.0))
    with pytest.raises(SchedulerError, match="coflow 7 is not tracked"):
        saath.schedule(state, 0.0)
    with pytest.raises(SchedulerError, match="coflow 7 is not tracked"):
        saath.tracker.earliest_transition(state, [c], {0: 10.0})
