"""Golden CCT fingerprints for big-switch runs.

The big switch is the default fabric, and the fuzz suite pins its engine
paths only against each other: a change every path shares (the completion
lookout, say) moves them all together and goes unnoticed there. This guard
pins them absolutely: every registered policy on an FB-like trace (32
machines, 60 coflows, seed 7) with an instant coordinator (δ = 0) and with
δ = 8 ms. Each cell must reproduce the committed fingerprint with the
compiled core off and on; the compiled legs skip when the core is not
built.

Regenerate the fixture (only when a change is *meant* to move results):

    PYTHONPATH=src python tests/test_golden_bigswitch.py --write
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy
from test_golden_leafspine import _fb_trace, digest, write_fixture

FIXTURE = Path(__file__).with_name("golden_bigswitch.json")
#: Coordinator sync intervals δ, in milliseconds.
SYNC_MS = (0, 8)


def cells() -> list[str]:
    """Cell names: ``fb/<δ>ms/<policy>``."""
    return [f"fb/{ms}ms/{p}" for ms in SYNC_MS for p in available_policies()]


def run_cell(name: str, *, fastcore: bool) -> str:
    """The :func:`digest` of one cell's run."""
    _, sync, policy = name.split("/")
    fabric, coflows = _fb_trace()
    cfg = SimulationConfig(sync_interval=int(sync[:-2]) / 1000,
                           fastcore=fastcore)
    return digest(run_policy(make_scheduler(policy, cfg), coflows, fabric,
                             cfg))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(cells())


@pytest.mark.parametrize("fastcore", [False, True],
                         ids=["python", "fastcore"])
@pytest.mark.parametrize("name", cells())
def test_bigswitch_cell_matches_golden(name, fastcore, golden):
    if fastcore and not _fastcore.AVAILABLE:
        pytest.skip("compiled core not built (python tools/build_fastcore.py)")
    assert run_cell(name, fastcore=fastcore) == golden[name]


if __name__ == "__main__":
    write_fixture(FIXTURE, cells(), run_cell, __doc__)
