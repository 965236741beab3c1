"""FlowTable unit tests: the struct-of-arrays registry behind the engine.

Covers the index-lifetime rules the hot paths rely on:

* a live flow's row never moves (index stability across other evictions);
* free-list reuse cannot alias a live flow (epoch bump on eviction,
  detached views keep their final values);
* the Flow/CoFlow views and the table columns stay coherent through
  allocation application (``_apply_diff`` writes columns, views read them)
  and through detachment (eviction copies values back).
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.schedulers.base import Allocation
from repro.schedulers.registry import make_scheduler
from repro.simulator.engine import Simulator
from repro.simulator.fabric import Fabric
from repro.simulator.flows import Flow, make_coflow
from repro.simulator.scenario import Scenario
from repro.simulator.session import SimulationSession
from repro.simulator.state import ClusterState, FlowTable
from repro.simulator.topology import LeafSpineTopology


def _coflow(cid, n_flows, *, machines=4, fid_start=0, volume=100.0):
    fabric = Fabric(num_machines=machines, port_rate=1e3)
    rcv = fabric.receiver_port
    return make_coflow(
        cid, 0.0,
        [(i % machines, rcv((i + 1) % machines), volume)
         for i in range(n_flows)],
        flow_id_start=fid_start,
    )


class TestAdoptEvict:
    def test_adopt_copies_state_and_attaches(self):
        table = FlowTable()
        f = Flow(flow_id=5, coflow_id=1, src=0, dst=9, volume=42.0)
        f.bytes_sent = 7.0
        f.rate = 3.0
        row = table.adopt(f, pos=2)
        assert table.flow_id[row] == 5
        assert table.coflow_id[row] == 1
        assert table.src[row] == 0
        assert table.dst[row] == 9
        assert table.volume[row] == 42.0
        assert table.bytes_sent[row] == 7.0
        assert table.rate[row] == 3.0
        assert table.pos[row] == 2
        assert table.view[row] is f
        assert table.row_of[5] == row
        assert len(table) == 1
        # The view now reads/writes the table.
        f.bytes_sent = 11.0
        assert table.bytes_sent[row] == 11.0
        table.bytes_sent[row] = 13.0
        assert f.bytes_sent == 13.0

    def test_evict_detaches_and_preserves_values(self):
        table = FlowTable()
        f = Flow(flow_id=5, coflow_id=1, src=0, dst=9, volume=42.0)
        row = table.adopt(f, pos=0)
        f.bytes_sent = 42.0
        f.rate = 0.0
        f.finish_time = 3.25
        table.evict(row)
        assert table.view[row] is None
        assert 5 not in table.row_of
        assert len(table) == 0
        # Detached view keeps the final values.
        assert f.bytes_sent == 42.0
        assert f.finish_time == 3.25
        assert f.rate == 0.0

    def test_index_stability_across_evictions(self):
        """Evicting one coflow must not move any other coflow's rows."""
        table = FlowTable()
        a = _coflow(1, 3, fid_start=0)
        b = _coflow(2, 3, fid_start=10)
        c = _coflow(3, 3, fid_start=20)
        rows_a = table.adopt_coflow(a)
        rows_b = table.adopt_coflow(b)
        rows_c = table.adopt_coflow(c)
        before_b = list(rows_b)
        before_c = list(rows_c)
        table.evict_coflow(b)  # middle coflow leaves
        assert c._rows == before_c
        for f, row in zip(c.flows, before_c):
            assert table.view[row] is f
            assert f._row == row
        assert a._rows == rows_a
        assert b._rows is None and b._table is None

    def test_free_list_reuse_does_not_alias_live_flows(self):
        """A recycled row serves its new occupant only: the old view stays
        detached with its final state."""
        table = FlowTable()
        old = Flow(flow_id=1, coflow_id=1, src=0, dst=5, volume=10.0)
        row = table.adopt(old, pos=0)
        old.bytes_sent = 10.0
        old.finish_time = 1.0
        table.evict(row)

        new = Flow(flow_id=2, coflow_id=2, src=1, dst=6, volume=99.0)
        row2 = table.adopt(new, pos=0)
        assert row2 == row  # LIFO reuse
        # New occupant's state, not the old flow's.
        assert table.volume[row] == 99.0
        assert table.bytes_sent[row] == 0.0
        assert table.finish_time[row] is None
        # Writes to the recycled row do not reach the detached old view.
        new.bytes_sent = 50.0
        assert old.bytes_sent == 10.0
        assert old.finish_time == 1.0

    def test_adopt_coflow_rows_align_with_flow_order(self):
        table = FlowTable()
        c = _coflow(1, 4)
        rows = table.adopt_coflow(c)
        assert [table.pos[i] for i in rows] == [0, 1, 2, 3]
        assert [table.flow_id[i] for i in rows] == [f.flow_id for f in c.flows]
        # Adopting again is a no-op returning the same rows.
        assert table.adopt_coflow(c) == rows

    def test_coflow_live_in_another_session_is_refused(self):
        """Two sessions stepped over the same coflow objects: the second
        table must not map the shared coflow onto its own rows (which
        hold the other coflow's flows)."""
        fabric = Fabric(num_machines=4, port_rate=1e3)
        rcv = fabric.receiver_port
        shared = make_coflow(1, 0.0, [(0, rcv(1), 100.0), (1, rcv(2), 100.0)],
                             flow_id_start=10)
        other = make_coflow(2, 0.0, [(2, rcv(3), 100.0), (3, rcv(0), 100.0)],
                            flow_id_start=20)
        cfg = SimulationConfig()
        first = SimulationSession(fabric, make_scheduler("saath", cfg), cfg,
                                  scenario=Scenario.from_coflows([shared]))
        first.step()
        assert shared._table is first.state.table
        second = SimulationSession(
            fabric, make_scheduler("saath", cfg), cfg,
            scenario=Scenario.from_coflows([other, shared]),
        )
        with pytest.raises(SimulationError, match="clone_coflows"):
            second.step()

    def test_handbuilt_states_cannot_share_coflows(self):
        coflows = [_coflow(1, 2), _coflow(2, 2, fid_start=10)]
        fabric = Fabric(num_machines=4, port_rate=1e3)
        ClusterState(fabric=fabric, active_coflows=coflows)
        with pytest.raises(SimulationError, match="clone_coflows"):
            ClusterState(fabric=fabric, active_coflows=coflows)


class TestViewCoherence:
    def _sim(self):
        cfg = SimulationConfig()
        fabric = Fabric(num_machines=4, port_rate=1e3)
        sim = Simulator(fabric, make_scheduler("uc-tcp", cfg), cfg)
        return sim, fabric

    def test_views_coherent_after_apply_diff(self):
        """Rates applied through the diff path land in the table columns;
        the Flow views read the same values, and a second diffed
        application updates both in lockstep."""
        sim, fabric = self._sim()
        rcv = fabric.receiver_port
        coflow = make_coflow(
            1, 0.0, [(0, rcv(1), 100.0), (1, rcv(2), 100.0)],
            flow_id_start=0,
        )
        sim._activate(coflow)
        table = sim.state.table

        sim._apply_allocation(Allocation(rates={0: 10.0, 1: 4.0}))  # full
        sim._apply_allocation(Allocation(rates={0: 6.0, 1: 4.0}))   # diff
        f0, f1 = coflow.flows
        assert f0.rate == 6.0 and table.rate[f0._row] == 6.0
        assert f1.rate == 4.0 and table.rate[f1._row] == 4.0
        assert f0.start_time == 0.0 and table.start_time[f0._row] == 0.0

        # Dropping a flow from the allocation zeroes it everywhere.
        sim._apply_allocation(Allocation(rates={0: 6.0}))
        assert f1.rate == 0.0 and table.rate[f1._row] == 0.0
        assert f0.rate == 6.0

        # Byte movement through the running set is visible via the views.
        sim._advance_to(1.0)
        assert f0.bytes_sent == table.bytes_sent[f0._row] == 6.0
        assert f1.bytes_sent == 0.0

    def test_completion_evicts_and_views_stay_correct(self):
        """End-to-end through the engine loop: after a coflow finishes its
        flows are detached, rows are reusable, and the result objects
        carry the final state."""
        sim, fabric = self._sim()
        rcv = fabric.receiver_port
        coflows = [
            make_coflow(1, 0.0, [(0, rcv(1), 500.0)], flow_id_start=0),
            make_coflow(2, 0.0, [(1, rcv(2), 2000.0)], flow_id_start=10),
        ]
        result = sim.run(coflows)
        assert set(result.ccts()) == {1, 2}
        table = sim.state.table
        assert len(table) == 0  # everything evicted
        assert len(table._free) == table.capacity
        for c in result.coflows:
            assert c._rows is None
            for f in c.flows:
                assert f._tbl is None
                assert f.finish_time is not None
                assert f.bytes_sent == f.volume

    def test_cluster_state_note_activated_adopts(self):
        fabric = Fabric(num_machines=4, port_rate=1e3)
        state = ClusterState(fabric=fabric)
        c = _coflow(1, 3)
        state.active_coflows.append(c)
        state.note_activated(c)
        assert c._table is state.table
        assert state.pending_rows(c) == c._rows
        assert all(state.pending_rows(x) is not None
                   for x in state.active_coflows)
        # A flow completion shrinks the pending-row cache.
        victim = c.flows[1]
        victim.finish_time = 1.0
        state.note_flow_finished(victim)
        assert state.pending_rows(c) == [c._rows[0], c._rows[2]]
        # Coflow completion evicts and drops the cache.
        state.note_coflow_finished(1)
        assert c._rows is None
        assert state.pending_rows(c) is None

    def test_handbuilt_state_is_table_tracked(self):
        """Coflows passed to the constructor are activated like engine
        arrivals: adopted, pending rows without finished flows, and core
        links resolved on a path-aware state."""
        fabric = Fabric(num_machines=8, port_rate=1e3)
        topo = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)
        a, b = _coflow(1, 3, machines=8), _coflow(2, 2, machines=8,
                                                  fid_start=10)
        a.flows[1].bytes_sent = 100.0
        a.flows[1].finish_time = 0.5
        state = ClusterState(fabric=fabric, active_coflows=[a, b],
                             topology=topo)
        for c in (a, b):
            assert c._table is state.table
            assert state.coflow(c.coflow_id) is c
        assert state.pending_rows(a) == [a._rows[0], a._rows[2]]
        assert state.pending_rows(b) == b._rows
        t = state.table
        for i in state.pending_rows(a) + state.pending_rows(b):
            links = state.paths.extra_links(t.src[i], t.dst[i])
            assert (t.link_a[i], t.link_b[i]) == (tuple(links) + (-1, -1))[:2]

    def test_detached_flow_property_roundtrip(self):
        f = Flow(flow_id=1, coflow_id=1, src=0, dst=5, volume=10.0)
        f.rate = 2.5
        f.bytes_sent = 4.0
        f.dst = 6
        assert (f.rate, f.bytes_sent, f.dst) == (2.5, 4.0, 6)
        assert f.remaining == 6.0
        with pytest.raises(ValueError):
            f.fct(0.0)  # unfinished
