"""Allocation-epoch engine tests: rate diffing, the completion scan,
flow-group compaction, and the satellite fixes that ride along.

The default engine applies allocations as rate diffs; it must be *exactly*
equivalent to the reference oracle (``incremental=False``), which applies
every allocation in full: identical ``SimulationResult``s and an identical
running set after every allocation application. These tests assert that
white-box invariant directly, exercise the edge cases the diffing logic must
preserve (rate perturbation, dynamics rebuilds, δ > 0 sync, zero-volume
arrivals, DAG releases), and unit-test the completion scan and the
``max_min_fair`` rewrite against a reference implementation.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.config import QueueConfig, SimulationConfig
from repro.schedulers.base import Allocation
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import (
    FlowRestart,
    FlowSlowdown,
    PortDegradation,
    PortRecovery,
)
from repro.simulator.engine import SimulationResult, Simulator, run_policy
from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.flows import CoFlow, Flow, clone_coflows, make_coflow
from repro.simulator.ratealloc import max_min_fair
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec


class _RecordingSimulator(Simulator):
    """Records the (time, running set) sequence after every application."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.applied: list[tuple[float, tuple[tuple[int, float], ...]]] = []

    def _apply_allocation(self, allocation):
        super()._apply_allocation(allocation)
        tbl = self._table
        running = tuple(sorted(
            (tbl.flow_id[i], tbl.rate[i]) for i in self._running
        ))
        self.applied.append((self._now, running))


def _run_recorded(policy, coflows, fabric, *, incremental, dynamics=(),
                  rate_perturbation=None, **cfg_kw):
    cfg = SimulationConfig(incremental=incremental, **cfg_kw)
    sim = _RecordingSimulator(
        fabric, make_scheduler(policy, cfg), cfg, dynamics=list(dynamics),
        rate_perturbation=rate_perturbation,
    )
    result = sim.run(clone_coflows(coflows))
    return result, sim.applied


def _assert_same_result(a: SimulationResult, b: SimulationResult, ctx=""):
    assert a.ccts() == b.ccts(), f"CCTs diverged {ctx}"
    assert a.reschedules == b.reschedules, f"reschedules diverged {ctx}"
    assert a.makespan == b.makespan, f"makespan diverged {ctx}"
    assert [c.coflow_id for c in a.coflows] == [
        c.coflow_id for c in b.coflows
    ], f"completion order diverged {ctx}"


@pytest.mark.parametrize("policy", ["saath", "aalo", "varys-sebf", "uc-tcp"])
@pytest.mark.parametrize("sync_ms", [0.0, 8.0])
def test_diffed_apply_matches_full_running_sets(policy, sync_ms):
    """After every application the diffed engine holds the exact running
    set (flow ids *and* rates) the full rebuild would have produced."""
    spec = fb_like_spec(num_machines=16, num_coflows=40)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=23).generate_coflows(fabric)
    res_e, applied_e = _run_recorded(
        policy, coflows, fabric, incremental=True,
        sync_interval=sync_ms * 1e-3,
    )
    res_f, applied_f = _run_recorded(
        policy, coflows, fabric, incremental=False,
        sync_interval=sync_ms * 1e-3,
    )
    _assert_same_result(res_e, res_f, f"({policy}, delta={sync_ms}ms)")
    assert applied_e == applied_f, (
        f"running sets diverged ({policy}, delta={sync_ms}ms)"
    )


@pytest.mark.parametrize("policy", ["saath", "aalo", "uc-tcp"])
def test_rate_perturbation_equivalent(policy):
    """A rate-perturbation hook rewrites every rate per application, so the
    engine applies every round in full — on the default path and on the
    oracle alike, with identical running sets after every application."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=29).generate_coflows(fabric)

    def perturb(flows, rates):
        # Deterministic, flow-dependent enforcement error (§7 setup).
        return [rate * (0.9 + 0.05 * (flow.flow_id % 3))
                for flow, rate in zip(flows, rates)]

    res_e, applied_e = _run_recorded(
        policy, coflows, fabric, incremental=True, rate_perturbation=perturb,
    )
    res_f, applied_f = _run_recorded(
        policy, coflows, fabric, incremental=False, rate_perturbation=perturb,
    )
    _assert_same_result(res_e, res_f, f"({policy}, perturbation)")
    assert applied_e == applied_f


@pytest.mark.parametrize("policy", ["saath", "aalo", "uc-tcp"])
def test_dynamics_rebuild_equivalent(policy):
    """Dynamics mutate rates/ports under the epoch engine's feet; the forced
    full rebuild must restore exact agreement, running sets included."""
    spec = fb_like_spec(num_machines=12, num_coflows=30)
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=31).generate_coflows(fabric)
    dynamics = [
        FlowSlowdown(time=0.04, flow_id=coflows[1].flows[0].flow_id,
                     efficiency=0.5),
        FlowRestart(time=0.15, flow_id=coflows[3].flows[0].flow_id),
        PortDegradation(time=0.25, port=2, factor=0.3),
        PortRecovery(time=0.6, port=2),
    ]
    res_e, applied_e = _run_recorded(
        policy, coflows, fabric, incremental=True, dynamics=dynamics,
        sync_interval=8e-3,
    )
    res_f, applied_f = _run_recorded(
        policy, coflows, fabric, incremental=False, dynamics=dynamics,
        sync_interval=8e-3,
    )
    _assert_same_result(res_e, res_f, f"({policy}, dynamics)")
    assert applied_e == applied_f


def test_zero_volume_arrivals_equivalent():
    """Flows born complete ride the _maybe_done path, not the diff."""
    fabric = Fabric(num_machines=4, port_rate=1e6)
    rcv = fabric.receiver_port
    coflows = [
        make_coflow(1, 0.0, [(0, rcv(1), 0.0), (1, rcv(2), 5e5)],
                    flow_id_start=0),
        make_coflow(2, 0.1, [(2, rcv(3), 0.0)], flow_id_start=10),
        make_coflow(3, 0.1, [(0, rcv(3), 3e5), (3, rcv(0), 0.0)],
                    flow_id_start=20),
    ]
    for policy in ("saath", "aalo", "uc-tcp"):
        results = []
        for incremental in (True, False):
            cfg = SimulationConfig(incremental=incremental)
            results.append(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows), fabric,
                cfg,
            ))
        _assert_same_result(*results, ctx=f"({policy}, zero-volume)")
        assert set(results[0].ccts()) == {1, 2, 3}


def test_dag_multi_dependency_release_order():
    """The dependency index must release same-instant dependents in the
    arrival order the linear scan used, and only once all deps are met."""
    fabric = Fabric(num_machines=4, port_rate=1e6)
    rcv = fabric.receiver_port
    v = 1e5
    root_a = make_coflow(1, 0.0, [(0, rcv(1), v)], flow_id_start=0)
    root_b = make_coflow(2, 0.0, [(1, rcv(2), v)], flow_id_start=10)
    # Arrives before joint, depends on one root.
    early = make_coflow(3, 0.0, [(2, rcv(3), v)], flow_id_start=20,
                        depends_on=(1,))
    # Depends on both roots: must wait for the later one.
    joint = make_coflow(4, 0.0, [(3, rcv(0), v)], flow_id_start=30,
                        depends_on=(1, 2))
    coflows = [root_a, root_b, early, joint]
    for policy in ("saath", "aalo"):
        results = []
        for incremental in (True, False):
            cfg = SimulationConfig(incremental=incremental)
            results.append(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows), fabric,
                cfg,
            ))
        _assert_same_result(*results, ctx=f"({policy}, multi-dep DAG)")
        ccts = results[0].ccts()
        assert set(ccts) == {1, 2, 3, 4}


def _hand_simulator(num_machines=2, **cfg_kw):
    cfg = SimulationConfig(**cfg_kw)
    fabric = Fabric(num_machines=num_machines, port_rate=1e3)
    sim = Simulator(fabric, make_scheduler("uc-tcp", cfg), cfg)
    return sim, fabric


def test_completion_scan_matches_exact_arithmetic_after_progress():
    """The completion scan must replay the exact per-event arithmetic at
    later instants too."""
    sim, fabric = _hand_simulator()
    rcv = fabric.receiver_port
    coflow = make_coflow(1, 0.0, [(0, rcv(1), 100.0), (1, rcv(0), 400.0)],
                         flow_id_start=0)
    sim._activate(coflow)
    sim._apply_allocation(Allocation(rates={0: 10.0, 1: 10.0}))
    sim._apply_allocation(Allocation(rates={0: 10.0, 1: 10.0}))
    assert sim._earliest_completion() == 10.0
    sim._advance_to(4.0)
    # Exact scan value at t=4: 4 + (100 - 40)/10 and 4 + (400 - 40)/10.
    expected = 4.0 + (100.0 - 40.0) / 10.0
    assert sim._earliest_completion() == expected


def test_simulation_result_lookup_index():
    """cct()/coflow() are dict-backed (they used to be linear scans called
    in loops by analysis code) and still raise KeyError on misses."""
    flows = [Flow(flow_id=1, coflow_id=7, src=0, dst=2, volume=10.0)]
    done = CoFlow(coflow_id=7, arrival_time=1.0, flows=flows)
    done.finish_time = 3.5
    result = SimulationResult(coflows=[done])
    assert result.cct(7) == 2.5
    assert result.coflow(7) is done
    with pytest.raises(KeyError):
        result.cct(99)
    with pytest.raises(KeyError):
        result.coflow(99)
    # The index follows later appends (coflows finish during the run).
    flows2 = [Flow(flow_id=2, coflow_id=8, src=1, dst=3, volume=10.0)]
    late = CoFlow(coflow_id=8, arrival_time=2.0, flows=flows2)
    late.finish_time = 6.0
    result.coflows.append(late)
    assert result.cct(8) == 4.0


# ---- max_min_fair: rewrite vs the original reference ----------------------


def _reference_max_min_fair(flows, ledger, *, rate_cap=None, commit=True):
    """The pre-optimisation implementation (quadratic clamp included),
    kept verbatim as the behavioural reference."""
    active = {f.flow_id: f for f in flows if not f.finished}
    rates = {fid: 0.0 for fid in active}
    if not active:
        return rates
    residual: dict[int, float] = {}
    port_flows: dict[int, set[int]] = {}
    live_count: dict[int, int] = {}
    for f in active.values():
        for port in (f.src, f.dst):
            if port not in residual:
                residual[port] = ledger.residual(port)
                live_count[port] = 0
                port_flows[port] = set()
            port_flows[port].add(f.flow_id)
            live_count[port] += 1
    frozen: set[int] = set()
    if rate_cap is not None and rate_cap <= 0:
        return rates
    while len(frozen) < len(active):
        best_port = None
        best_share = math.inf
        for port, count in live_count.items():
            if count == 0:
                continue
            share = residual[port] / count
            if share < best_share:
                best_share = share
                best_port = port
        if best_port is None:
            break
        if rate_cap is not None and rate_cap < best_share:
            for fid in [f for f in active if f not in frozen]:
                rates[fid] = rate_cap
                flow = active[fid]
                residual[flow.src] -= rate_cap
                residual[flow.dst] -= rate_cap
                live_count[flow.src] -= 1
                live_count[flow.dst] -= 1
                frozen.add(fid)
            break
        newly = [fid for fid in port_flows[best_port] if fid not in frozen]
        drained = {best_port}
        for fid in newly:
            rates[fid] = best_share
            flow = active[fid]
            residual[flow.src] -= best_share
            residual[flow.dst] -= best_share
            live_count[flow.src] -= 1
            live_count[flow.dst] -= 1
            drained.add(flow.src)
            drained.add(flow.dst)
            frozen.add(fid)
        for port in drained:
            if live_count.get(port) == 0:
                del live_count[port]
        for port in residual:
            if residual[port] < 0:
                residual[port] = 0.0
    if commit:
        for fid, rate in rates.items():
            if rate > 0:
                flow = active[fid]
                ledger.commit(flow.src, flow.dst, rate)
    return rates


def test_max_min_fair_matches_reference():
    """Rates *and* resulting ledger state are bit-identical to the original
    implementation across random instances, caps, and finished flows."""
    rng = random.Random(17)
    machines = 12
    fabric = Fabric(num_machines=machines, port_rate=1e9)
    for trial in range(200):
        flows = []
        for i in range(rng.randrange(1, 50)):
            src = rng.randrange(machines)
            dst = rng.randrange(machines) + machines
            f = Flow(flow_id=i, coflow_id=i % 5, src=src, dst=dst,
                     volume=1e6)
            if rng.random() < 0.15:
                f.finish_time = 1.0
            flows.append(f)
        cap = rng.choice([None, None, 0.0, 1e3, 5e7, 2e9])
        commit = rng.random() < 0.5
        ref_ledger = PortLedger(fabric)
        new_ledger = PortLedger(fabric)
        expected = _reference_max_min_fair(
            flows, ref_ledger, rate_cap=cap, commit=commit
        )
        got = max_min_fair(flows, new_ledger, rate_cap=cap, commit=commit)
        assert got == expected, f"trial {trial} (cap={cap})"
        assert (new_ledger.snapshot_residuals()
                == ref_ledger.snapshot_residuals()), f"trial {trial}"


def test_max_min_fair_rate_cap_semantics():
    """Cap below every fair share caps all flows; cap of zero zeroes all."""
    fabric = Fabric(num_machines=2, port_rate=1e3)
    flows = [
        Flow(flow_id=0, coflow_id=0, src=0, dst=2, volume=10.0),
        Flow(flow_id=1, coflow_id=0, src=1, dst=3, volume=10.0),
    ]
    rates = max_min_fair(flows, PortLedger(fabric), rate_cap=10.0)
    assert rates == {0: 10.0, 1: 10.0}
    rates = max_min_fair(flows, PortLedger(fabric), rate_cap=0.0)
    assert rates == {0: 0.0, 1: 0.0}


def test_flow_group_compaction_cache_consistency():
    """ClusterState's groups/counts stay exact across completion
    notifications, and the availability gate withholds the cache until the
    last pending flow's data exists."""
    from repro.simulator.state import ClusterState

    fabric = Fabric(num_machines=4, port_rate=1e6)
    rcv = fabric.receiver_port
    coflow = make_coflow(
        1, 0.0,
        [(0, rcv(1), 10.0), (0, rcv(1), 10.0), (1, rcv(2), 10.0)],
        flow_id_start=0,
    )
    coflow.flows[2].available_time = 5.0
    state = ClusterState(fabric=fabric)
    state.active_coflows.append(coflow)
    state.note_activated(coflow)

    # Gated while a pending flow's data is still in the future...
    assert state.port_counts(coflow, now=0.0) is None
    # ... exact once every flow is available.
    counts = state.port_counts(coflow, now=5.0)
    assert counts == {0: 2, rcv(1): 2, 1: 1, rcv(2): 1}
    t = state.table

    def bucket_sizes():
        groups: dict[tuple[int, int], int] = {}
        for i in state.pending_rows(coflow):
            key = (t.src[i], t.dst[i])
            groups[key] = groups.get(key, 0) + 1
        return sorted(groups.values())

    assert bucket_sizes() == [1, 2]

    # A completion shrinks the bucket and the counts in lockstep.
    victim = coflow.flows[0]
    victim.finish_time = 1.0
    state.note_flow_finished(victim)
    assert state.port_counts(coflow, now=5.0) == {
        0: 1, rcv(1): 1, 1: 1, rcv(2): 1
    }
    assert bucket_sizes() == [1, 1]
    # Counts always mirror a fresh recount of the pending set.
    recount: dict[int, int] = {}
    for i in state.pending_rows(coflow):
        for port in (t.src[i], t.dst[i]):
            recount[port] = recount.get(port, 0) + 1
    assert recount == state.pending_port_counts(coflow)
