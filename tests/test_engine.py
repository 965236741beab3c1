"""Simulation engine: event ordering, completions, DAG, sync mode."""

import math

import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.schedulers.base import Allocation, Scheduler
from repro.simulator.dynamics import FlowRestart, FlowSlowdown, PortDegradation
from repro.simulator.engine import Simulator, run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import make_coflow
from repro.schedulers.uctcp import UcTcpScheduler


def _fabric(machines=4, rate=100.0):
    return Fabric(num_machines=machines, port_rate=rate)


def _cfg(**kw):
    return SimulationConfig(port_rate=100.0, min_rate=1e-3, **kw)


class GreedyScheduler(Scheduler):
    """Deterministic test scheduler: arrival-order greedy fill."""

    name = "test-greedy"

    def schedule(self, state, now):
        ledger = state.make_ledger()
        allocation = Allocation()
        for coflow in sorted(state.active_coflows,
                             key=lambda c: (c.arrival_time, c.coflow_id)):
            for f in state.schedulable_flows(coflow, now):
                rate = min(ledger.residual(f.src), ledger.residual(f.dst))
                if rate > 0:
                    ledger.commit(f.src, f.dst, rate)
                    allocation.rates[f.flow_id] = rate
        return allocation


def _drops_one(flows, rates):
    return rates[1:]


class _Doubler:
    def __call__(self, flows, rates):
        return rates * 2


class TestBasicCompletion:
    def test_single_flow_finishes_at_expected_time(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 200.0)])
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        assert res.cct(0) == pytest.approx(2.0)
        assert res.makespan == pytest.approx(2.0)

    def test_cct_measured_from_arrival(self):
        fab = _fabric()
        c = make_coflow(0, 5.0, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        assert res.cct(0) == pytest.approx(1.0)
        assert res.coflow(0).finish_time == pytest.approx(6.0)

    def test_two_coflows_share_port_serially(self):
        fab = _fabric()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=0)
        b = make_coflow(1, 0.0, [(0, fab.receiver_port(2), 100.0)],
                        flow_id_start=10)
        res = run_policy(GreedyScheduler(_cfg()), [a, b], fab, _cfg())
        # Greedy serves arrival order: a gets the port 1s, then b runs 1s.
        assert res.cct(0) == pytest.approx(1.0)
        assert res.cct(1) == pytest.approx(2.0)

    def test_zero_volume_flow_completes_instantly(self):
        fab = _fabric()
        c = make_coflow(0, 1.0, [(0, fab.receiver_port(1), 0.0)])
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        assert res.cct(0) == pytest.approx(0.0)

    def test_flow_start_time_recorded(self):
        fab = _fabric()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=0)
        b = make_coflow(1, 0.0, [(0, fab.receiver_port(2), 100.0)],
                        flow_id_start=10)
        res = run_policy(GreedyScheduler(_cfg()), [a, b], fab, _cfg())
        assert res.coflow(0).flows[0].start_time == pytest.approx(0.0)
        assert res.coflow(1).flows[0].start_time == pytest.approx(1.0)

    def test_fresh_arrival_preempts_capacity_share(self):
        fab = _fabric()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=0)
        # Arrives halfway through; greedy still favours earlier arrival.
        b = make_coflow(1, 0.5, [(0, fab.receiver_port(2), 50.0)],
                        flow_id_start=10)
        res = run_policy(GreedyScheduler(_cfg()), [a, b], fab, _cfg())
        assert res.cct(0) == pytest.approx(1.0)
        assert res.cct(1) == pytest.approx(1.0)  # waits 0.5, runs 0.5


class TestResultApi:
    def test_ccts_map(self):
        fab = _fabric()
        cs = [
            make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=0),
            make_coflow(1, 0.0, [(1, fab.receiver_port(2), 100.0)],
                        flow_id_start=10),
        ]
        res = run_policy(GreedyScheduler(_cfg()), cs, fab, _cfg())
        assert set(res.ccts()) == {0, 1}
        assert res.average_cct() == pytest.approx(1.0)

    def test_unknown_coflow_raises(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        with pytest.raises(KeyError):
            res.cct(99)
        with pytest.raises(KeyError):
            res.coflow(99)


class TestWorkloadValidation:
    def test_duplicate_coflow_ids_rejected(self):
        fab = _fabric()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)],
                        flow_id_start=0)
        b = make_coflow(0, 0.0, [(1, fab.receiver_port(2), 1.0)],
                        flow_id_start=10)
        with pytest.raises(SimulationError):
            run_policy(GreedyScheduler(_cfg()), [a, b], fab, _cfg())

    def test_duplicate_flow_ids_rejected(self):
        fab = _fabric()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)],
                        flow_id_start=0)
        b = make_coflow(1, 0.0, [(1, fab.receiver_port(2), 1.0)],
                        flow_id_start=0)
        with pytest.raises(SimulationError):
            run_policy(GreedyScheduler(_cfg()), [a, b], fab, _cfg())

    def test_unknown_dependency_rejected(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 1.0)],
                        depends_on=(42,))
        with pytest.raises(SimulationError):
            run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())


class TestDag:
    def test_dependent_stage_waits_for_parent(self):
        fab = _fabric()
        parent = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                             flow_id_start=0)
        child = make_coflow(1, 0.0, [(1, fab.receiver_port(2), 100.0)],
                            flow_id_start=10, depends_on=(0,))
        res = run_policy(GreedyScheduler(_cfg()), [parent, child], fab, _cfg())
        assert res.coflow(1).finish_time == pytest.approx(2.0)
        # Child CCT counts from its release at t=1, not submission at t=0.
        assert res.cct(1) == pytest.approx(1.0)

    def test_fan_in_waits_for_all_parents(self):
        fab = _fabric()
        p1 = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                         flow_id_start=0)
        p2 = make_coflow(1, 0.0, [(1, fab.receiver_port(2), 200.0)],
                         flow_id_start=10)
        child = make_coflow(2, 0.0, [(2, fab.receiver_port(3), 100.0)],
                            flow_id_start=20, depends_on=(0, 1))
        res = run_policy(GreedyScheduler(_cfg()), [p1, p2, child], fab, _cfg())
        assert res.coflow(2).finish_time == pytest.approx(3.0)

    def test_chain_of_three(self):
        fab = _fabric()
        cs = [
            make_coflow(i, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=10 * i,
                        depends_on=(i - 1,) if i else ())
            for i in range(3)
        ]
        res = run_policy(GreedyScheduler(_cfg()), cs, fab, _cfg())
        assert res.coflow(2).finish_time == pytest.approx(3.0)


class TestSyncMode:
    def test_arrival_waits_for_sync_boundary(self):
        fab = _fabric()
        cfg = _cfg(sync_interval=0.5)
        c = make_coflow(0, 0.2, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(GreedyScheduler(cfg), [c], fab, cfg)
        # First schedule at t=0.5; flow needs 1s; CCT = 0.5-0.2 + 1.0.
        assert res.cct(0) == pytest.approx(1.3)

    def test_arrival_on_boundary_not_delayed(self):
        fab = _fabric()
        cfg = _cfg(sync_interval=0.5)
        c = make_coflow(0, 1.0, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(GreedyScheduler(cfg), [c], fab, cfg)
        assert res.cct(0) == pytest.approx(1.0)

    def test_freed_bandwidth_idle_until_boundary(self):
        fab = _fabric()
        cfg = _cfg(sync_interval=1.0)
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 50.0)],
                        flow_id_start=0)
        b = make_coflow(1, 0.0, [(0, fab.receiver_port(2), 100.0)],
                        flow_id_start=10)
        res = run_policy(GreedyScheduler(cfg), [a, b], fab, cfg)
        # a finishes at 0.5; b cannot start until the t=1.0 boundary.
        assert res.cct(0) == pytest.approx(0.5)
        assert res.cct(1) == pytest.approx(2.0)

    def test_smaller_delta_never_worse(self):
        fab = _fabric()
        coarse = _cfg(sync_interval=1.0)
        fine = _cfg(sync_interval=0.1)
        def workload():
            return [
                make_coflow(0, 0.05, [(0, fab.receiver_port(1), 60.0)],
                            flow_id_start=0),
                make_coflow(1, 0.15, [(0, fab.receiver_port(2), 60.0)],
                            flow_id_start=10),
            ]
        res_coarse = run_policy(GreedyScheduler(coarse), workload(), fab, coarse)
        res_fine = run_policy(GreedyScheduler(fine), workload(), fab, fine)
        assert res_fine.average_cct() <= res_coarse.average_cct() + 1e-9


class TestDynamics:
    def test_flow_restart_loses_progress(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        action = FlowRestart(time=0.5, flow_id=0)
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg(),
                         dynamics=[action])
        assert res.cct(0) == pytest.approx(1.5)

    def test_restart_after_finish_is_noop(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        action = FlowRestart(time=5.0, flow_id=0)
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg(),
                         dynamics=[action])
        assert res.cct(0) == pytest.approx(1.0)

    def test_slowdown_halves_throughput(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        action = FlowSlowdown(time=0.0, flow_id=0, efficiency=0.5)
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg(),
                         dynamics=[action])
        assert res.cct(0) == pytest.approx(2.0)

    def test_port_degradation_slows_flows(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        action = PortDegradation(time=0.0, port=0, factor=0.25)
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg(),
                         dynamics=[action])
        assert res.cct(0) == pytest.approx(4.0)

    def test_data_availability_delays_flow(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        c.flows[0].available_time = 2.0
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        assert res.cct(0) == pytest.approx(3.0)


class TestStuckDetection:
    def test_zero_rate_scheduler_raises(self):
        class NullScheduler(Scheduler):
            name = "null"

            def schedule(self, state, now):
                return Allocation()

        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        with pytest.raises(SimulationError, match="stalled"):
            run_policy(NullScheduler(_cfg()), [c], fab, _cfg())

    def test_rate_perturbation_applied(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(
            GreedyScheduler(_cfg()), [c], fab, _cfg(),
            rate_perturbation=lambda flows, rates: [r * 0.5 for r in rates],
        )
        assert res.cct(0) == pytest.approx(2.0)

    @pytest.mark.parametrize("hook, message", [
        (_drops_one, "_drops_one returned 1 rates for 2 flows"),
        (_Doubler(), "_Doubler returned 4 rates for 2 flows"),
    ])
    def test_rate_perturbation_must_return_one_rate_per_flow(self, hook,
                                                             message):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0),
                                 (2, fab.receiver_port(3), 100.0)])
        with pytest.raises(SimulationError, match=message):
            run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg(),
                       rate_perturbation=hook)

    def test_reschedules_counted(self):
        fab = _fabric()
        c = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)])
        res = run_policy(GreedyScheduler(_cfg()), [c], fab, _cfg())
        assert res.reschedules >= 1


class TestUcTcpIntegration:
    def test_fair_sharing_between_coflows(self):
        fab = _fabric()
        cfg = _cfg()
        a = make_coflow(0, 0.0, [(0, fab.receiver_port(1), 100.0)],
                        flow_id_start=0)
        b = make_coflow(1, 0.0, [(0, fab.receiver_port(2), 100.0)],
                        flow_id_start=10)
        res = run_policy(UcTcpScheduler(cfg), [a, b], fab, cfg)
        # Fair share 50 each until a finishes... both equal length: both 2s.
        assert res.cct(0) == pytest.approx(2.0)
        assert res.cct(1) == pytest.approx(2.0)
