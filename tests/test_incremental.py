"""Equivalence tests: incremental vs full-recompute scheduling paths.

The incremental core (dirty-set deltas, the contention tracker, reusable
ledgers, restricted queue refreshes) is designed to be *exactly* equivalent
to rebuilding everything each round. These tests assert that equivalence —
identical ``SimulationResult``s, not merely statistically close ones — for
every registered scheduler, on the paper's toy scenarios, on a synthetic
trace, and under dynamics / DAG / availability edge cases.
"""

from __future__ import annotations

import pytest

from repro.config import QueueConfig, SimulationConfig
from repro.core.contention import ContentionTracker, contention_counts
from repro.experiments.toy import ALL_SCENARIOS, PORT_RATE, UNIT_BYTES
from repro.rng import make_rng
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import (
    FlowRestart,
    FlowSlowdown,
    PortDegradation,
    PortRecovery,
    inject_stragglers,
)
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import clone_coflows, make_coflow
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec


def _toy_config(**kw) -> dict:
    base = dict(
        port_rate=PORT_RATE,
        queues=QueueConfig(num_queues=6, start_threshold=100 * UNIT_BYTES,
                           growth_factor=10.0),
        min_rate=1e-3,
    )
    base.update(kw)
    return base


#: The scheduling/engine paths that must produce byte-identical results:
#: the default (incremental bookkeeping, diffed applies) and the reference
#: oracle (``--no-incremental``: full recompute, full applies).
_PATHS = (
    dict(incremental=True),
    dict(incremental=False),
)


def _run_both(policy, coflows, fabric, *, dynamics=(), **cfg_kw):
    """Run a policy over every engine/scheduler path; return all results."""
    results = []
    for path in _PATHS:
        cfg = SimulationConfig(**path, **cfg_kw)
        result = run_policy(
            make_scheduler(policy, cfg), clone_coflows(coflows), fabric, cfg,
            dynamics=list(dynamics),
        )
        results.append(result)
    return results


def _assert_identical(a, *others, context=""):
    for b in others:
        assert a.ccts() == b.ccts(), f"CCTs diverged {context}"
        assert a.reschedules == b.reschedules, \
            f"reschedules diverged {context}"
        assert a.makespan == b.makespan, f"makespan diverged {context}"
        assert [c.coflow_id for c in a.coflows] == [
            c.coflow_id for c in b.coflows
        ], f"completion order diverged {context}"


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("scenario_name", sorted(ALL_SCENARIOS))
def test_toy_scenarios_equivalent(policy, scenario_name):
    scenario = ALL_SCENARIOS[scenario_name]()
    results = _run_both(
        policy, scenario.coflows, scenario.fabric, **_toy_config()
    )
    _assert_identical(*results, context=f"({policy} on {scenario.name})")


@pytest.mark.parametrize("policy", available_policies())
def test_synthetic_trace_equivalent(policy):
    spec = fb_like_spec(num_machines=20, num_coflows=60)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=3).generate_coflows(fabric)
    results = _run_both(policy, coflows, fabric)
    _assert_identical(*results, context=f"({policy} on fb-like)")


@pytest.mark.parametrize("policy", ["saath", "aalo"])
@pytest.mark.parametrize("sync_ms", [0.0, 8.0])
def test_sync_interval_equivalent(policy, sync_ms):
    spec = fb_like_spec(num_machines=16, num_coflows=40)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=11).generate_coflows(fabric)
    results = _run_both(
        policy, coflows, fabric, sync_interval=sync_ms * 1e-3
    )
    _assert_identical(*results, context=f"({policy}, delta={sync_ms}ms)")


@pytest.mark.parametrize("policy", ["saath", "aalo", "uc-tcp"])
def test_dynamics_force_full_resync_equivalent(policy):
    """Restarts, stragglers and port capacity changes must not desync."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=5).generate_coflows(fabric)
    some_flow = coflows[2].flows[0].flow_id
    dynamics = [
        FlowSlowdown(time=0.05, flow_id=some_flow, efficiency=0.4),
        FlowRestart(time=0.2, flow_id=coflows[4].flows[0].flow_id),
        PortDegradation(time=0.3, port=0, factor=0.5),
        PortRecovery(time=0.8, port=0),
    ]
    dynamics += inject_stragglers(coflows, make_rng(9), fraction=0.05,
                                  efficiency=0.3)
    results = _run_both(policy, coflows, fabric, dynamics=dynamics)
    _assert_identical(*results, context=f"({policy} with dynamics)")


def test_saath_dynamics_promotion_equivalent():
    """§4.3 promotion interacts with both trackers; both paths must agree."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=13).generate_coflows(fabric)
    results = _run_both(
        "saath", coflows, fabric, enable_dynamics_promotion=True
    )
    _assert_identical(*results, context="(saath, dynamics promotion)")


def test_saath_queue_scoped_contention_equivalent():
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=17).generate_coflows(fabric)
    results = _run_both(
        "saath", coflows, fabric, contention_scope="queue",
        enable_dynamics_promotion=True,
    )
    _assert_identical(*results, context="(saath, queue-scoped contention)")


def test_dag_release_equivalent():
    """DAG-released stages exercise mid-simulation activations."""
    fabric = Fabric(num_machines=4, port_rate=PORT_RATE)
    rcv = fabric.receiver_port
    stage1 = make_coflow(1, 0.0, [(0, rcv(1), UNIT_BYTES)], flow_id_start=0)
    stage2 = make_coflow(2, 0.0, [(1, rcv(2), UNIT_BYTES)],
                         flow_id_start=10, depends_on=(1,))
    stage3 = make_coflow(3, 0.0, [(2, rcv(3), UNIT_BYTES)],
                         flow_id_start=20, depends_on=(2,))
    for policy in ("saath", "aalo"):
        results = _run_both(
            policy, [stage1, stage2, stage3], fabric, **_toy_config()
        )
        _assert_identical(*results, context=f"({policy}, DAG)")


def test_validate_incremental_mode_passes():
    """The built-in equivalence assertion stays silent on a clean run."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=21).generate_coflows(fabric)
    cfg = SimulationConfig(incremental=True, validate_incremental=True)
    result = run_policy(
        make_scheduler("saath", cfg), clone_coflows(coflows), fabric, cfg
    )
    assert result.coflows  # ran to completion with assertions enabled


def test_contention_tracker_matches_full_recompute():
    """Unit-level: random add/shrink/remove sequences match the one-shot."""
    spec = fb_like_spec(num_machines=10, num_coflows=25)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=2).generate_coflows(fabric)
    tracker = ContentionTracker("all")
    active: list = []
    rng = make_rng(4)
    for c in coflows:
        active.append(c)
        tracker.add(c)
        # Finish a random flow of a random active coflow now and then.
        if len(active) % 3 == 0:
            victim = active[int(rng.integers(len(active)))]
            unfinished = [f for f in victim.flows if f.finish_time is None]
            if unfinished:
                unfinished[0].finish_time = 1.0
                tracker.refresh_ports(victim)
        if len(active) % 5 == 0:
            gone = active.pop(0)
            tracker.remove(gone.coflow_id)
        assert tracker.counts() == contention_counts(active)
