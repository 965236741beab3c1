"""Golden CCT fingerprints for cross-rack leaf-spine runs.

The fuzz suite pins leaf-spine runs only on a *single* rack, where no flow
crosses a core link. This guard pins the multi-rack case: every registered
policy on an FB-like trace over a 4:1 oversubscribed four-rack leaf-spine,
once per deterministic path selector (``ecmp`` and ``static``), plus a
four-rack collective DAG workload. Each cell must reproduce the committed
fingerprint with the compiled core on and off.

Regenerate the fixture (only when a change is *meant* to move results):

    PYTHONPATH=src python tests/test_golden_leafspine.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.experiments.runner import collective_jobs_for, collective_spec
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy
from repro.simulator.flows import clone_coflows
from repro.simulator.topology import LeafSpineTopology
from repro.units import MB
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec

FIXTURE = Path(__file__).with_name("golden_leafspine.json")
SELECTORS = ("ecmp", "static")


def _fb_trace():
    spec = fb_like_spec(num_machines=32, num_coflows=60)
    fabric = spec.make_fabric()
    return fabric, WorkloadGenerator(spec, seed=7).generate_coflows(fabric)


def _dag_trace():
    spec = collective_spec(
        machines=16, pattern="ring", workers=8, iterations=2, volume=8 * MB,
        jobs=2, racks=4, placement="spread", arrival_gap=0.05, seed=7,
    )
    fabric, jobs = collective_jobs_for(spec)
    return fabric, [c for job in jobs for c in job]


def digest(result) -> str:
    """SHA-256 of a result's CCT bits, completion order, reschedule count
    and makespan."""
    body = repr((
        sorted((cid, cct.hex()) for cid, cct in result.ccts().items()),
        [c.coflow_id for c in result.coflows],
        result.reschedules,
        result.makespan.hex(),
    ))
    return hashlib.sha256(body.encode()).hexdigest()


def write_fixture(fixture: Path, names, run_cell, usage: str) -> None:
    """The ``--write`` entry point: regenerate ``fixture`` from every cell's
    pure-Python run."""
    if sys.argv[1:] != ["--write"]:
        sys.exit(usage)
    fixture.write_text(json.dumps(
        {name: run_cell(name, fastcore=False) for name in names},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {fixture}")


def cells() -> list[str]:
    """Cell names: ``<trace>/<selector>/<policy>``."""
    names = [f"fb/{sel}/{p}" for sel in SELECTORS
             for p in available_policies()]
    names += [f"dag/ecmp/{p}" for p in available_policies()]
    return names


def run_cell(name: str, *, fastcore: bool) -> str:
    """The :func:`digest` of one cell's run."""
    trace, selector, policy = name.split("/")
    fabric, coflows = _fb_trace() if trace == "fb" else _dag_trace()
    topology = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0,
                                 path_select=selector)
    cfg = SimulationConfig(sync_interval=8e-3, fastcore=fastcore)
    return digest(run_policy(make_scheduler(policy, cfg),
                             clone_coflows(coflows), fabric, cfg,
                             topology=topology))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(cells())


@pytest.mark.parametrize("name", cells())
def test_leafspine_cell_matches_golden(name, golden):
    assert run_cell(name, fastcore=False) == golden[name]
    if _fastcore.AVAILABLE:
        assert run_cell(name, fastcore=True) == golden[name]


if __name__ == "__main__":
    write_fixture(FIXTURE, cells(), run_cell, __doc__)
