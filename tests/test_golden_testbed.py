"""Golden CCT fingerprints for testbed-mode runs.

Testbed mode (§7) redraws every flow's achieved rate through
:class:`~repro.simulator.testbed.RateJitter` at each schedule application,
on top of the coordinator's δ = 8 ms staleness. This guard pins every
registered policy on a small FB-like trace under that model, with
straggler slowdowns, flow restarts and late data availability on top. Each
policy runs with the default config and with ``incremental=False``, each
with the compiled core on and off; all four legs must reproduce the one
committed fingerprint per policy. Because the jitter draws from one RNG
stream in application order, any change to which flows are perturbed, or
in what order, moves the fingerprint.

Regenerate the fixture (only when a change is *meant* to move results):

    PYTHONPATH=src python tests/test_golden_testbed.py --write
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.rng import make_rng
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import inject_failures, inject_stragglers
from repro.simulator.engine import run_policy
from repro.simulator.testbed import RateJitter
from repro.workloads.synthetic import (
    WorkloadGenerator,
    add_pipelined_availability,
    fb_like_spec,
)
from test_golden_leafspine import digest, write_fixture

FIXTURE = Path(__file__).with_name("golden_testbed.json")


def _testbed_trace():
    spec = fb_like_spec(num_machines=16, num_coflows=40)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=7).generate_coflows(fabric)
    rng = make_rng(5)
    add_pipelined_availability(coflows, rng, fraction=0.2, max_delay=0.2)
    dynamics = (inject_stragglers(coflows, rng, fraction=0.05)
                + inject_failures(coflows, rng, fraction=0.05))
    return fabric, coflows, dynamics


def cells() -> list[str]:
    """Cell names: ``fb/<policy>``."""
    return [f"fb/{p}" for p in available_policies()]


def run_cell(name: str, *, fastcore: bool, incremental: bool = True) -> str:
    """The :func:`digest` of one cell's run under ``RateJitter(seed=3)``."""
    policy = name.split("/")[1]
    fabric, coflows, dynamics = _testbed_trace()
    cfg = SimulationConfig(sync_interval=8e-3, fastcore=fastcore,
                           incremental=incremental)
    return digest(run_policy(make_scheduler(policy, cfg), coflows, fabric,
                             cfg, dynamics=dynamics,
                             rate_perturbation=RateJitter(seed=3)))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(cells())


@pytest.mark.parametrize("name", cells())
@pytest.mark.parametrize("incremental", [True, False])
def test_testbed_cell_matches_golden(name, incremental, golden):
    assert run_cell(name, fastcore=False,
                    incremental=incremental) == golden[name]
    if _fastcore.AVAILABLE:
        assert run_cell(name, fastcore=True,
                        incremental=incremental) == golden[name]


if __name__ == "__main__":
    write_fixture(FIXTURE, cells(), run_cell, __doc__)
