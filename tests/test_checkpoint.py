"""Durable-checkpoint tests: save/load round-trips, integrity, resume.

The contract under test: a session checkpointed to disk mid-run and
resumed finishes byte-identical to an uninterrupted run — for every
registered policy — and every way a checkpoint file can be damaged is
detected before the body is unpickled.
"""

from __future__ import annotations

import json
from array import array

import pytest

from repro.config import SimulationConfig
from repro.errors import CheckpointError, ConfigError
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.scenario import Scenario
from repro.simulator.session import (
    CHECKPOINT_FORMAT,
    SessionSnapshot,
    SimulationSession,
)
from repro.simulator.state import FlowTable
from repro.simulator.testbed import RateJitter
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec

CONFIG = SimulationConfig()


def _workload(seed=3, machines=10, coflows=12):
    spec = fb_like_spec(num_machines=machines, num_coflows=coflows)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=seed).generate_coflows(fabric)
    return fabric, coflows


def _session(policy, fabric, coflows, **kw):
    return SimulationSession(
        fabric, make_scheduler(policy, CONFIG), CONFIG,
        scenario=Scenario.from_coflows(coflows), **kw,
    )


def _fingerprint(result):
    return (result.ccts(), result.makespan, result.reschedules)


def _mid_checkpoint(policy, tmp_path, fabric, coflows):
    """Run to roughly mid-workload, save a checkpoint, return its path."""
    session = _session(policy, fabric, coflows)
    arrivals = sorted(c.arrival_time for c in coflows)
    session.run_until(arrivals[len(arrivals) // 2])
    return session.snapshot().save(tmp_path / f"{policy}.ckpt")


# ---- the headline guarantee ------------------------------------------------


@pytest.mark.parametrize("policy", available_policies())
def test_save_load_resume_is_byte_identical(policy, tmp_path):
    fabric, coflows = _workload()
    full = _fingerprint(_session(policy, fabric, coflows).run())

    fabric2, coflows2 = _workload()
    path = _mid_checkpoint(policy, tmp_path, fabric2, coflows2)
    snap = SessionSnapshot.load(path)
    assert snap.policy == policy
    resumed = _fingerprint(SimulationSession.restore(snap).run())
    assert resumed == full


def test_one_checkpoint_supports_many_restores(tmp_path):
    fabric, coflows = _workload()
    full = _fingerprint(_session("saath", fabric, coflows).run())
    path = _mid_checkpoint("saath", tmp_path, *_workload())
    snap = SessionSnapshot.load(path)
    a = _fingerprint(SimulationSession.restore(snap).run())
    b = _fingerprint(SimulationSession.restore(snap).run())
    assert a == full
    assert b == full


# ---- checkpoint_every on run() ---------------------------------------------


def test_checkpoint_every_does_not_perturb_the_run(tmp_path):
    fabric, coflows = _workload()
    plain = _fingerprint(_session("saath", fabric, coflows).run())

    path = tmp_path / "rolling.ckpt"
    seen = []
    fabric2, coflows2 = _workload()
    checkpointed = _fingerprint(_session("saath", fabric2, coflows2).run(
        checkpoint_every=0.5, checkpoint_path=path,
        on_checkpoint=seen.append,
    ))
    assert checkpointed == plain
    assert path.exists()
    assert seen, "expected at least one checkpoint during the run"
    assert all(isinstance(s, SessionSnapshot) for s in seen)
    # cadence: snapshots fire at the first instant past each crossed
    # boundary, so their times are strictly increasing and each lands in
    # a distinct 0.5 s window
    times = [s.time for s in seen]
    assert times == sorted(times)
    windows = [int(t / 0.5) for t in times]
    assert len(set(windows)) == len(windows)


def test_resume_from_rolling_checkpoint_matches_full_run(tmp_path):
    fabric, coflows = _workload()
    full = _fingerprint(_session("saath", fabric, coflows).run())

    snaps = []
    fabric2, coflows2 = _workload()
    _session("saath", fabric2, coflows2).run(
        checkpoint_every=0.5, on_checkpoint=snaps.append)
    assert snaps
    # resume from an intermediate (not final) checkpoint
    snap = snaps[0]
    resumed = _fingerprint(SimulationSession.restore(snap).run())
    assert resumed == full


def test_checkpoint_every_validation():
    fabric, coflows = _workload()
    session = _session("saath", fabric, coflows)
    with pytest.raises(ConfigError, match="checkpoint_every must be "
                                          "positive"):
        session.run(checkpoint_every=0.0, checkpoint_path="x.ckpt")
    with pytest.raises(ConfigError, match="needs a destination"):
        session.run(checkpoint_every=1.0)


# ---- checkpoints from before the engine toggle was removed -----------------


def _as_pre_epoch_engine(payload, *, toggled):
    """Rewrite a snapshot payload into the shape the removed pre-epoch engine
    saved: the running set as a row list, its engine flag, none of the diff
    or heap bookkeeping, a full apply pending and, when the engine was
    picked by the config toggle, that field in the pickled config."""
    payload["_running"] = list(payload["_running"])
    payload["_epochs_engine"] = False
    payload.update(
        _running_count={}, _gated={}, _prev_rates={}, _heap=[],
        _unheaped={}, _heap_live=False, _seed_pending=False,
        _full_apply_pending=True,
    )
    if toggled:
        payload["config"].__dict__["epochs"] = False


@pytest.mark.parametrize("perturbed", [False, True])
def test_pre_epoch_engine_checkpoint_resumes_byte_identical(perturbed,
                                                            tmp_path):
    """Runs with rate perturbation, or with the removed ``epochs=False``
    engine, checkpointed before that engine was removed must still resume
    to the uninterrupted run's result."""
    def jitter():
        return {"rate_perturbation": RateJitter(seed=3)} if perturbed else {}

    full = _fingerprint(_session("saath", *_workload(), **jitter()).run())
    fabric, coflows = _workload()
    session = _session("saath", fabric, coflows, **jitter())
    arrivals = sorted(c.arrival_time for c in coflows)
    session.run_until(arrivals[len(arrivals) // 2])
    snap = session.snapshot()
    _as_pre_epoch_engine(snap.payload, toggled=not perturbed)
    resumed = SimulationSession.restore(
        SessionSnapshot.load(snap.save(tmp_path / "pre-epoch.ckpt"))
    )
    assert isinstance(resumed._running, dict)
    assert _fingerprint(resumed.run()) == full


# ---- checkpoints from before the completion heap was removed ---------------


@pytest.mark.parametrize("policy", ["saath", "uc-tcp"])
def test_pre_heap_removal_checkpoint_resumes_byte_identical(policy, tmp_path,
                                                            monkeypatch):
    """Checkpoints saved while the session kept a lazy completion heap
    carry a ``FlowTable.epoch`` column and the heap's session attributes;
    they must still load and resume to the uninterrupted run's result."""
    full = _fingerprint(_session(policy, *_workload()).run())
    fabric, coflows = _workload()
    session = _session(policy, fabric, coflows)
    arrivals = sorted(c.arrival_time for c in coflows)
    session.run_until(arrivals[len(arrivals) // 2])
    snap = session.snapshot()
    snap.payload.update(_heap=[], _unheaped={}, _heap_live=False,
                        _seed_pending=True, _events_since_apply=0)

    def with_epoch(table):
        slots = {name: getattr(table, name) for name in FlowTable.__slots__}
        slots["epoch"] = array("q", [0] * table.capacity)
        return None, slots

    monkeypatch.setattr(FlowTable, "__getstate__", with_epoch)
    path = snap.save(tmp_path / "pre-heap-removal.ckpt")
    monkeypatch.undo()
    assert b"epoch" in path.read_bytes()
    resumed = SimulationSession.restore(SessionSnapshot.load(path))
    assert not hasattr(resumed._table, "epoch")
    assert _fingerprint(resumed.run()) == full


# ---- file-format integrity -------------------------------------------------


def _saved(tmp_path):
    return _mid_checkpoint("saath", tmp_path, *_workload())


def test_load_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        SessionSnapshot.load(tmp_path / "nope.ckpt")


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "foreign.ckpt"
    path.write_bytes(b'{"magic": "something-else"}\nbody')
    with pytest.raises(CheckpointError, match="bad magic"):
        SessionSnapshot.load(path)


def test_load_rejects_garbled_header(tmp_path):
    path = tmp_path / "garbled.ckpt"
    path.write_bytes(b"\xff\xfe not json\nbody")
    with pytest.raises(CheckpointError, match="unreadable header"):
        SessionSnapshot.load(path)


def test_load_rejects_headerless_file(tmp_path):
    path = tmp_path / "flat.ckpt"
    path.write_bytes(b"no newline anywhere")
    with pytest.raises(CheckpointError, match="missing header/body"):
        SessionSnapshot.load(path)


def test_load_rejects_future_format_version(tmp_path):
    path = _saved(tmp_path)
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header["format"] = CHECKPOINT_FORMAT + 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(CheckpointError, match="format version"):
        SessionSnapshot.load(path)


def test_load_detects_truncation(tmp_path):
    path = _saved(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 100])
    with pytest.raises(CheckpointError, match="truncated"):
        SessionSnapshot.load(path)


def test_load_detects_corruption(tmp_path):
    path = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a body byte; length stays right
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        SessionSnapshot.load(path)


def test_save_is_atomic_over_a_previous_checkpoint(tmp_path):
    path = _saved(tmp_path)
    first = path.read_bytes()
    session = SimulationSession.restore(SessionSnapshot.load(path))
    session.run()
    session2 = _session("saath", *_workload())
    session2.run_until(1.0)
    session2.snapshot().save(path)
    assert path.read_bytes() != first  # replaced…
    SessionSnapshot.load(path)         # …and still loadable
    assert not list(tmp_path.glob("*.tmp"))  # no temp debris


def test_unpicklable_session_raises_checkpoint_error(tmp_path):
    fabric, coflows = _workload()
    sink = lambda c: None  # noqa: E731 - deliberately unpicklable closure
    session = SimulationSession(
        fabric, make_scheduler("saath", CONFIG), CONFIG,
        scenario=Scenario.from_coflows(coflows), sink=sink,
    )
    session.run_until(1.0)
    snap = session.snapshot()  # in-memory snapshot is fine
    with pytest.raises(CheckpointError, match="cannot be pickled"):
        snap.save(tmp_path / "bad.ckpt")
