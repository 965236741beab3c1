"""Golden allocation fingerprints for hand-built cluster states.

The engine guards (``test_golden_leafspine.py``, ``test_golden_testbed.py``
and the fuzz suite) pin whole simulations. This guard pins single
scheduling rounds on a :class:`~repro.simulator.state.ClusterState` built
by hand, the way unit tests and ``experiments/table2_overhead.py`` build
one: every registered policy gets one ``schedule()`` call on each of 50
seeded random states. The states mix the big switch with four-rack
leaf-spine fabrics at 1:1 and 4:1 (``ecmp`` and ``static`` paths), flows
that are finished, partly sent or still waiting for their data, and
capacity overrides on host ports and core links (some set to 0). Each
cell must reproduce the committed fingerprint with the compiled core on
and off.

Regenerate the fixture (only when a change is *meant* to move results):

    PYTHONPATH=src python tests/test_golden_handbuilt.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.fabric import Fabric
from repro.simulator.flows import CoFlow, Flow
from repro.simulator.state import ClusterState
from repro.simulator.topology import LeafSpineTopology
from repro.units import GBPS, MB
from test_golden_leafspine import write_fixture

FIXTURE = Path(__file__).with_name("golden_handbuilt.json")
#: Fabric kinds: the big switch, or ``ls-<oversub>-<path selector>``.
FABRICS = ("bigswitch", "ls-1-ecmp", "ls-1-static", "ls-4-ecmp",
           "ls-4-static")
STATES_PER_FABRIC = 10


def _random_state(kind: str, seed: int):
    """One seeded random hand-built state: ``(state, coflows, now)``."""
    rng = random.Random(f"{kind}/{seed}")
    machines = rng.choice((8, 12, 16))
    fabric = Fabric(num_machines=machines, port_rate=GBPS)
    topology = None
    if kind != "bigswitch":
        _, oversub, selector = kind.split("-")
        topology = LeafSpineTopology(fabric, racks=4, spines=2,
                                     oversub=float(oversub),
                                     path_select=selector)
    now = rng.uniform(0.5, 5.0)
    arrivals = sorted(rng.uniform(0.0, now)
                      for _ in range(rng.randrange(1, 9)))
    ids = rng.sample(range(40), len(arrivals))
    coflows = []
    next_flow = 0
    for cid, arrival in zip(ids, arrivals):
        flows = []
        for _ in range(rng.randrange(1, 10)):
            src = rng.randrange(machines)
            dst = (src + rng.randrange(1, machines)) % machines
            volume = rng.choice((rng.uniform(1e5, 5 * MB),
                                 rng.uniform(10 * MB, 200 * MB)))
            f = Flow(flow_id=next_flow, coflow_id=cid, src=src,
                     dst=fabric.receiver_port(dst), volume=volume)
            next_flow += 1
            roll = rng.random()
            if roll < 0.15:
                f.bytes_sent = volume
                f.finish_time = rng.uniform(arrival, now)
            elif roll < 0.55:
                f.bytes_sent = volume * rng.random()
            if rng.random() < 0.2:
                f.available_time = now + rng.uniform(0.0, 1.0)
            flows.append(f)
        if all(f.finish_time is not None for f in flows):
            flows[0].bytes_sent = 0.0
            flows[0].finish_time = None
        coflows.append(CoFlow(coflow_id=cid, arrival_time=arrival,
                              flows=flows))
    links = list(range(fabric.num_ports))
    if topology is not None:
        links += list(topology.core_links())
    override = {
        link: rng.choice((0.0, 0.25 * GBPS, 0.5 * GBPS, 1.5 * GBPS))
        for link in rng.sample(links, rng.choice((0, 0, 1, 3)))
    }
    state = ClusterState(
        fabric=fabric, active_coflows=coflows, capacity_override=override,
        respect_availability=rng.random() < 0.9, topology=topology,
    )
    return state, coflows, now


def fingerprint(allocation) -> str:
    """SHA-256 of the rates in insertion order plus the sorted scheduled
    and work-conserved coflow ids."""
    body = repr((
        [(fid, rate.hex()) for fid, rate in allocation.rates.items()],
        sorted(allocation.scheduled_coflows),
        sorted(allocation.work_conserved_coflows),
    ))
    return hashlib.sha256(body.encode()).hexdigest()


def cells() -> list[str]:
    """Cell names: ``<fabric>/<policy>``."""
    return [f"{kind}/{p}" for kind in FABRICS for p in available_policies()]


def run_cell(name: str, *, fastcore: bool) -> str:
    """One digest over the cell's per-state :func:`fingerprint`\\ s."""
    kind, policy = name.split("/")
    prints = []
    for seed in range(STATES_PER_FABRIC):
        state, coflows, now = _random_state(kind, seed)
        state.table.fastcore = fastcore
        scheduler = make_scheduler(policy, SimulationConfig())
        for c in coflows:
            scheduler.on_coflow_arrival(c, c.arrival_time)
        prints.append(fingerprint(scheduler.schedule(state, now)))
    return hashlib.sha256("".join(prints).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(cells())


@pytest.mark.parametrize("name", cells())
def test_handbuilt_cell_matches_golden(name, golden):
    assert run_cell(name, fastcore=False) == golden[name]
    if _fastcore.AVAILABLE:
        assert run_cell(name, fastcore=True) == golden[name]


if __name__ == "__main__":
    write_fixture(FIXTURE, cells(), run_cell, __doc__)
