"""The Saath scheduler: all-or-none, LCoF, work conservation, starvation,
per-flow thresholds, dynamics promotion."""

import pytest

from repro.config import QueueConfig, SimulationConfig
from repro.core.saath import SaathScheduler
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import make_coflow
from repro.simulator.state import ClusterState


def _fabric(machines=8, rate=100.0):
    return Fabric(num_machines=machines, port_rate=rate)


def _cfg(**kw):
    defaults = dict(
        port_rate=100.0,
        queues=QueueConfig(num_queues=5, start_threshold=1000.0,
                           growth_factor=10.0),
        min_rate=1e-3,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def _state(fabric, coflows, scheduler, now=0.0):
    state = ClusterState(fabric=fabric, active_coflows=list(coflows))
    for c in coflows:
        scheduler.on_coflow_arrival(c, now)
    return state


class TestAllOrNone:
    def test_whole_coflow_scheduled_or_none(self):
        fab = _fabric()
        cfg = _cfg()
        saath = SaathScheduler(cfg)
        # c1 takes senders 0 and 1 fully; c2 needs sender 1 and 2.
        c1 = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 100.0),
                                  (1, fab.receiver_port(4), 100.0)],
                         flow_id_start=0)
        c2 = make_coflow(2, 0.1, [(1, fab.receiver_port(5), 100.0),
                                  (2, fab.receiver_port(6), 100.0)],
                         flow_id_start=10)
        state = _state(fab, [c1, c2], saath)
        alloc = saath.schedule(state, now=0.1)
        assert 1 in alloc.scheduled_coflows
        assert 2 not in alloc.scheduled_coflows
        # Work conservation may still give c2's free-port flow a rate.
        assert alloc.rates.get(10, 0.0) == 0.0  # sender 1 is saturated
        assert alloc.rates.get(11, 0.0) == pytest.approx(100.0)  # sender 2 free

    def test_equal_rates_across_flows(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg())
        c = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 500.0),
                                 (1, fab.receiver_port(4), 100.0)],
                        flow_id_start=0)
        state = _state(fab, [c], saath)
        alloc = saath.schedule(state, 0.0)
        assert alloc.rates[0] == alloc.rates[1] == pytest.approx(100.0)

    def test_no_work_conservation_leaves_ports_idle(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg(), work_conservation=False)
        c1 = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 100.0)],
                         flow_id_start=0)
        c2 = make_coflow(2, 0.1, [(0, fab.receiver_port(4), 100.0),
                                  (1, fab.receiver_port(5), 100.0)],
                         flow_id_start=10)
        state = _state(fab, [c1, c2], saath)
        alloc = saath.schedule(state, 0.1)
        assert 2 not in alloc.scheduled_coflows
        assert alloc.rates.get(11, 0.0) == 0.0  # idle despite free sender 1


class TestLcofOrdering:
    def test_low_contention_coflow_goes_first(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg())
        # hub contends with both spokes; spokes contend only with hub.
        hub = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 100.0),
                                   (1, fab.receiver_port(5), 100.0)],
                          flow_id_start=0)
        spoke_a = make_coflow(2, 0.1, [(0, fab.receiver_port(6), 100.0)],
                              flow_id_start=10)
        spoke_b = make_coflow(3, 0.2, [(1, fab.receiver_port(7), 100.0)],
                              flow_id_start=20)
        state = _state(fab, [hub, spoke_a, spoke_b], saath)
        alloc = saath.schedule(state, 0.2)
        # Spokes (k=1) beat the hub (k=2) despite arriving later.
        assert {2, 3} <= alloc.scheduled_coflows
        assert 1 not in alloc.scheduled_coflows

    def test_fifo_variant_respects_arrival(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg(), use_lcof=False)
        hub = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 100.0),
                                   (1, fab.receiver_port(5), 100.0)],
                          flow_id_start=0)
        spoke = make_coflow(2, 0.1, [(0, fab.receiver_port(6), 100.0)],
                            flow_id_start=10)
        state = _state(fab, [hub, spoke], saath)
        alloc = saath.schedule(state, 0.2)
        assert 1 in alloc.scheduled_coflows
        assert 2 not in alloc.scheduled_coflows


class TestQueuePriority:
    def test_higher_queue_beats_lower_contention(self):
        fab = _fabric()
        cfg = _cfg()
        saath = SaathScheduler(cfg)
        old = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 1e6),
                                   (1, fab.receiver_port(6), 1e6)],
                          flow_id_start=0)
        young = make_coflow(2, 0.1, [(0, fab.receiver_port(5), 10.0)],
                            flow_id_start=10)
        state = _state(fab, [old, young], saath)
        # Simulate old coflow having sent enough to be demoted.
        old.flows[0].bytes_sent = 2000.0
        alloc = saath.schedule(state, 0.2)
        # The demoted coflow loses its contended sender to the young one,
        # but work conservation still fills its free sender-1 flow.
        assert 2 in alloc.scheduled_coflows
        assert 1 not in alloc.scheduled_coflows
        assert 1 in alloc.work_conserved_coflows
        assert alloc.rates.get(1, 0.0) == pytest.approx(100.0)


class TestStarvation:
    def test_starving_coflow_preempts(self):
        fab = _fabric()
        cfg = _cfg(deadline_factor=1.0)
        saath = SaathScheduler(cfg)
        hub = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 1e5),
                                   (1, fab.receiver_port(5), 1e5)],
                          flow_id_start=0)
        spoke = make_coflow(2, 0.0, [(0, fab.receiver_port(6), 1e5)],
                            flow_id_start=10)
        state = _state(fab, [hub, spoke], saath)
        # Far past every deadline: the hub (higher contention, would lose
        # LCoF) must now be admitted first by deadline order.
        alloc = saath.schedule(state, now=1e6)
        assert saath.starvation_admissions > 0
        assert 1 in alloc.scheduled_coflows

    @pytest.mark.parametrize("fastcore", [False, True],
                             ids=["python", "fastcore"])
    def test_counts_only_admitted_starving_coflows(self, fastcore):
        """Two coflows past their deadlines share sender 0: all-or-none
        admits the first, whose rate fills the port, and rejects the
        second. One coflow took the starvation path, not two."""
        from repro import _fastcore
        if fastcore and not _fastcore.AVAILABLE:
            pytest.skip("repro._fastcore extension not built")
        fab = _fabric()
        saath = SaathScheduler(_cfg(deadline_factor=1.0))
        first = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 1e5)],
                            flow_id_start=0)
        second = make_coflow(2, 0.0, [(0, fab.receiver_port(5), 1e5)],
                             flow_id_start=10)
        state = _state(fab, [first, second], saath)
        state.table.fastcore = fastcore
        alloc = saath.schedule(state, now=1e6)
        assert alloc.scheduled_coflows == {1}
        assert saath.starvation_admissions == 1

    def test_no_starvation_handling_when_disabled(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg(deadline_factor=None))
        c = make_coflow(1, 0.0, [(0, fab.receiver_port(4), 1e5)],
                        flow_id_start=0)
        state = _state(fab, [c], saath)
        saath.schedule(state, now=1e9)
        assert saath.starvation_admissions == 0


class TestEndToEnd:
    def test_out_of_sync_eliminated_for_equal_flows(self):
        """All-or-none makes both flows of an equal-length coflow finish
        simultaneously even under contention (the Fig. 1 fix).

        Work conservation is disabled here: the paper itself notes that
        work conservation deliberately re-introduces some out-of-sync
        (Fig. 13 discussion) — pure all-or-none is what guarantees sync.
        """
        fab = _fabric()
        cfg = _cfg()
        c1 = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 100.0),
                                  (2, fab.receiver_port(4), 100.0)],
                         flow_id_start=0)
        c2 = make_coflow(2, 0.0, [(0, fab.receiver_port(5), 100.0)],
                         flow_id_start=10)
        c3 = make_coflow(3, 0.0, [(1, fab.receiver_port(3), 100.0)],
                         flow_id_start=20)
        c4 = make_coflow(4, 0.0, [(2, fab.receiver_port(5), 100.0)],
                         flow_id_start=30)
        res = run_policy(
            SaathScheduler(cfg, work_conservation=False),
            [c1, c2, c3, c4], fab, cfg,
        )
        finished = res.coflow(1)
        fcts = [f.finish_time for f in finished.flows]
        assert fcts[0] == pytest.approx(fcts[1])

    def test_work_conservation_can_desync_but_speeds_up(self):
        """With work conservation on, the same scenario finishes no later
        overall even though c1's flows may desynchronise."""
        fab = _fabric()
        cfg = _cfg()
        def build():
            return [
                make_coflow(1, 0.0, [(0, fab.receiver_port(3), 100.0),
                                     (2, fab.receiver_port(4), 100.0)],
                            flow_id_start=0),
                make_coflow(2, 0.0, [(0, fab.receiver_port(5), 100.0)],
                            flow_id_start=10),
                make_coflow(3, 0.0, [(1, fab.receiver_port(3), 100.0)],
                            flow_id_start=20),
                make_coflow(4, 0.0, [(2, fab.receiver_port(5), 100.0)],
                            flow_id_start=30),
            ]
        with_wc = run_policy(SaathScheduler(cfg), build(), fab, cfg)
        without = run_policy(
            SaathScheduler(cfg, work_conservation=False), build(), fab, cfg
        )
        assert with_wc.average_cct() <= without.average_cct() + 1e-9

    def test_saath_completes_random_workload(self):
        from repro.workloads.synthetic import fb_like_spec, WorkloadGenerator

        spec = fb_like_spec(num_machines=12, num_coflows=25)
        coflows = WorkloadGenerator(spec, seed=3).generate_coflows()
        cfg = SimulationConfig()
        res = run_policy(SaathScheduler(cfg), coflows, spec.make_fabric(), cfg)
        assert len(res.coflows) == 25

    def test_next_wakeup_is_future(self):
        fab = _fabric()
        cfg = _cfg()
        saath = SaathScheduler(cfg)
        c = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 1e5)],
                        flow_id_start=0)
        state = _state(fab, [c], saath)
        alloc = saath.schedule(state, 0.0)
        wakeup = saath.next_wakeup(state, alloc, now=0.0)
        assert wakeup is not None and wakeup > 0.0


class TestDynamicsPromotion:
    def test_promotion_after_flow_finishes(self):
        fab = _fabric()
        cfg = _cfg(enable_dynamics_promotion=True)
        saath = SaathScheduler(cfg)
        c = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 5000.0),
                                 (1, fab.receiver_port(4), 5000.0)],
                        flow_id_start=0)
        state = _state(fab, [c], saath)
        # Demote it deep by faking progress.
        saath.tracker.force_queue(c, 3, 0.0)
        # First flow completes; second has nearly caught up.
        c.flows[0].bytes_sent = 5000.0
        c.flows[0].finish_time = 1.0
        c.flows[1].bytes_sent = 4900.0
        saath.on_flow_completion(c.flows[0], c, 1.0)
        # Remaining estimate: median finished = 5000; rem = 100 bytes;
        # m_c * width = 200 < 1000 -> queue 0.
        assert saath.tracker.queue_of(c) == 0

    def test_no_promotion_when_disabled(self):
        fab = _fabric()
        saath = SaathScheduler(_cfg(enable_dynamics_promotion=False))
        c = make_coflow(1, 0.0, [(0, fab.receiver_port(3), 5000.0),
                                 (1, fab.receiver_port(4), 5000.0)],
                        flow_id_start=0)
        _state(fab, [c], saath)
        saath.tracker.force_queue(c, 3, 0.0)
        c.flows[0].bytes_sent = 5000.0
        c.flows[0].finish_time = 1.0
        saath.on_flow_completion(c.flows[0], c, 1.0)
        assert saath.tracker.queue_of(c) == 3
