"""Topology subsystem tests: geometry, path selection, the link ledger,
spec round-trips, core-link dynamics and big-switch equivalence.

The load-bearing invariants:

* the default big-switch path is untouched — an explicit
  :class:`BigSwitchTopology` (and a single-rack leaf–spine, whose every
  path is rack-local) produces byte-identical results to ``topology=None``
  for every registered policy;
* the :class:`LinkLedger` extends the dense ``PortLedger`` columns to core
  links with the same touched-set reset semantics, raises
  :class:`CapacityViolationError` naming the bottleneck *link*, and
  validates capacity overrides with the offending link id;
* an oversubscribed core link actually bottlenecks cross-rack traffic.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import CapacityViolationError, ConfigError
from repro.experiments.runner import RunSpec, WorkloadSpec
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import (
    LinkDegradation,
    LinkRecovery,
    decode_actions,
    encode_actions,
)
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.flows import clone_coflows, make_coflow
from repro.simulator.state import ClusterState
from repro.simulator.topology import (
    BigSwitchTopology,
    LeafSpineTopology,
    LinkLedger,
    PathMap,
    TopologySpec,
)
from repro.workloads.synthetic import WorkloadGenerator, fb_like_spec


@pytest.fixture
def fabric() -> Fabric:
    return Fabric(num_machines=8, port_rate=100.0)


@pytest.fixture
def topo(fabric) -> LeafSpineTopology:
    # 8 machines / 4 racks of 2 / 2 spines, 4:1 oversubscribed.
    return LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)


# ---- geometry ---------------------------------------------------------------


def test_big_switch_topology_has_no_core_links(fabric):
    topo = BigSwitchTopology(fabric)
    assert topo.num_links == fabric.num_ports
    assert topo.num_core_links == 0
    assert list(topo.core_links()) == []
    assert topo.path_candidates(0, 8) == []
    assert topo.link_capacity(3) == fabric.capacity(3)
    with pytest.raises(ConfigError, match="link 16"):
        topo.link_capacity(16)


def test_leaf_spine_link_id_scheme(topo, fabric):
    # Host ports first, then (rack, spine) up/down pairs.
    assert topo.num_links == fabric.num_ports + 2 * 4 * 2
    assert topo.num_core_links == 16
    seen = set()
    for r in range(4):
        for s in range(2):
            up, down = topo.uplink(r, s), topo.downlink(r, s)
            assert up >= fabric.num_ports and down == up + 1
            seen.update((up, down))
    assert seen == set(topo.core_links())
    assert topo.link_name(topo.uplink(1, 0)) == "leaf1->spine0"
    assert topo.link_name(topo.downlink(2, 1)) == "spine1->leaf2"


def test_leaf_spine_oversub_capacity(topo, fabric):
    # rack of 2 hosts at 100 B/s, 4:1 oversub over 2 spines:
    # per-core-link capacity = 2*100 / (4*2) = 25.
    for link in topo.core_links():
        assert topo.link_capacity(link) == pytest.approx(25.0)
    # Host links keep the port rate.
    assert topo.link_capacity(0) == 100.0
    with pytest.raises(ConfigError, match=f"link {topo.num_links}"):
        topo.link_capacity(topo.num_links)


def test_leaf_spine_rack_assignment(fabric):
    topo = LeafSpineTopology(fabric, racks=3, spines=1)
    # stride = ceil(8/3) = 3: racks of 3, 3, 2.
    assert [topo.rack_size(r) for r in range(3)] == [3, 3, 2]
    assert topo.rack_of(0) == 0 and topo.rack_of(5) == 1
    # The smaller rack gets proportionally smaller fabric links.
    assert topo.link_capacity(topo.uplink(2, 0)) == pytest.approx(200.0)
    assert topo.link_capacity(topo.uplink(0, 0)) == pytest.approx(300.0)


def test_leaf_spine_validation(fabric):
    with pytest.raises(ConfigError, match="racks"):
        LeafSpineTopology(fabric, racks=9)
    with pytest.raises(ConfigError, match="spines"):
        LeafSpineTopology(fabric, spines=0)
    with pytest.raises(ConfigError, match="oversubscription"):
        LeafSpineTopology(fabric, oversub=0.0)
    with pytest.raises(ConfigError, match="selector"):
        LeafSpineTopology(fabric, path_select="bogus")


def test_rack_local_paths_have_no_core_links(topo):
    # Machines 0 and 1 share rack 0: sender 0 -> receiver 1+8.
    assert topo.path_candidates(0, 9) == []
    # Cross-rack: one candidate per spine, (uplink, downlink) pairs.
    candidates = topo.path_candidates(0, 8 + 7)
    assert candidates == [
        (topo.uplink(0, 0), topo.downlink(3, 0)),
        (topo.uplink(0, 1), topo.downlink(3, 1)),
    ]


# ---- path selection ---------------------------------------------------------


def test_ecmp_selection_is_deterministic_and_cached(topo):
    paths = PathMap(topo, "ecmp")
    first = paths.extra_links(0, 14)
    assert first in topo.path_candidates(0, 14)
    assert paths.extra_links(0, 14) is first  # cached
    # A fresh map makes the identical choice (stable across processes).
    assert PathMap(topo, "ecmp").extra_links(0, 14) == first


def test_static_selection_always_picks_spine_zero(topo):
    paths = PathMap(topo, "static")
    for src, dst in ((0, 12), (2, 14), (5, 8)):
        extras = paths.extra_links(src, dst)
        if extras:
            assert extras == topo.path_candidates(src, dst)[0]


def test_least_loaded_selection_spreads_pairs(topo):
    paths = PathMap(topo, "least-loaded")
    # Two pairs between the same racks must land on different spines.
    a = paths.extra_links(0, 12)  # rack 0 -> rack 2
    b = paths.extra_links(1, 13)  # rack 0 -> rack 2, next pair
    assert a != b
    assert {a, b} == set(topo.path_candidates(0, 12)) | set(
        topo.path_candidates(1, 13)
    )


# ---- the link ledger --------------------------------------------------------


def _cross_rack_pair(topo):
    """(src port, dst port, extras) for a machine-0 -> machine-7 flow."""
    src, dst = 0, 7 + 8
    paths = PathMap(topo, "static")
    return src, dst, paths, paths.extra_links(src, dst)


def test_link_ledger_commit_charges_whole_path(topo):
    src, dst, paths, extras = _cross_rack_pair(topo)
    ledger = LinkLedger(topo, paths)
    assert len(extras) == 2
    ledger.commit(src, dst, 10.0)
    for link in (src, dst, *extras):
        assert ledger.used(link) == 10.0
        assert link in ledger.touched_set
    # Rack-local commits touch only the two ports.
    ledger.commit(0, 9, 5.0)
    assert ledger.used(9) == 5.0
    assert all(ledger.used(link) == 10.0 for link in extras)


def test_link_ledger_reset_restores_touched_links_only(topo):
    src, dst, paths, extras = _cross_rack_pair(topo)
    ledger = LinkLedger(topo, paths)
    ledger.commit(src, dst, 10.0)
    ledger.reset()
    assert not ledger.touched_set
    assert all(v == 0.0 for v in ledger.used_list)
    # The dense columns keep their link-id indexing across resets.
    assert len(ledger.capacity_list) == topo.num_links
    assert ledger.capacity(extras[0]) == topo.link_capacity(extras[0])


def test_link_ledger_violation_names_the_core_link(topo):
    src, dst, paths, extras = _cross_rack_pair(topo)
    ledger = LinkLedger(topo, paths)
    # Core links carry 25 B/s; ports carry 100. A 30 B/s commit fits the
    # ports but over-commits the uplink.
    with pytest.raises(CapacityViolationError, match=str(extras[0])):
        ledger.commit(src, dst, 30.0)


def test_link_ledger_capacity_tolerance_edges(topo):
    src, dst, paths, extras = _cross_rack_pair(topo)
    ledger = LinkLedger(topo, paths)
    # Within the float-accumulation tolerance: clamped to capacity.
    ledger.commit(src, dst, 25.0 * (1.0 + 1e-10))
    assert ledger.used(extras[0]) == 25.0
    assert ledger.residual(extras[0]) == 0.0
    # fill() on an exhausted path grants nothing.
    assert ledger.fill(src, dst) == 0.0


def test_link_ledger_fill_bounded_by_core_link(topo):
    src, dst, paths, extras = _cross_rack_pair(topo)
    ledger = LinkLedger(topo, paths)
    assert ledger.fill(src, dst) == 25.0  # uplink-capped, not 100
    assert ledger.used(src) == 25.0


def test_link_ledger_override_validation(topo):
    paths = PathMap(topo)
    up = topo.uplink(0, 0)
    ledger = LinkLedger(topo, paths, capacity_override={up: 5.0})
    assert ledger.capacity(up) == 5.0
    with pytest.raises(ConfigError, match="link 999"):
        LinkLedger(topo, paths, capacity_override={999: 1.0})
    with pytest.raises(ConfigError, match=f"link {up}"):
        LinkLedger(topo, paths, capacity_override={up: -1.0})


def test_port_ledger_rejects_core_link_overrides(fabric):
    with pytest.raises(ConfigError, match="link 99"):
        PortLedger(fabric, capacity_override={99: 1.0})


# ---- cluster-state integration ---------------------------------------------


def test_state_path_aware_only_with_core_links(fabric, topo):
    assert ClusterState(fabric=fabric).paths is None
    assert ClusterState(
        fabric=fabric, topology=BigSwitchTopology(fabric)
    ).paths is None
    state = ClusterState(fabric=fabric, topology=topo)
    assert state.paths is not None
    assert isinstance(state.make_ledger(), LinkLedger)
    assert isinstance(state.acquire_ledger(), LinkLedger)


def test_link_counts_cover_core_links(fabric, topo):
    state = ClusterState(fabric=fabric, topology=topo)
    # One rack-local flow (0->1) and one cross-rack flow (0->7).
    coflow = make_coflow(1, 0.0, [(0, 9, 100.0), (0, 15, 100.0)])
    state.active_coflows.append(coflow)
    state.note_activated(coflow)
    counts = state.port_counts(coflow, now=0.0)
    extras = state.paths.extra_links(0, 15)
    assert counts[0] == 2  # both flows send from port 0
    assert counts[9] == 1 and counts[15] == 1
    assert all(counts[link] == 1 for link in extras)
    # Completion notifications decrement path links too.
    flow = coflow.flows[1]
    flow.finish_time = 1.0
    state.note_flow_finished(flow)
    counts = state.port_counts(coflow, now=2.0)
    assert counts == {0: 1, 9: 1}


# ---- topology spec ----------------------------------------------------------


def test_topology_spec_roundtrip_and_defaults(fabric):
    spec = TopologySpec(kind="leaf-spine", oversub=4.0, racks=4, spines=2,
                        path_select="least-loaded")
    encoded = spec.encode()
    assert TopologySpec.decode(encoded) == spec
    # JSON round-trip shape (list-of-lists) decodes identically.
    assert TopologySpec.decode([list(kv) for kv in encoded]) == spec
    topo = spec.build(fabric)
    assert isinstance(topo, LeafSpineTopology)
    assert topo.oversub == 4.0 and topo.path_select == "least-loaded"

    default = TopologySpec()
    assert default.encode() == ()
    assert TopologySpec.decode(()) == default
    assert isinstance(default.build(fabric), BigSwitchTopology)


def test_topology_spec_validation():
    with pytest.raises(ConfigError):
        TopologySpec(kind="fat-tree")
    with pytest.raises(ConfigError):
        TopologySpec(kind="leaf-spine", oversub=-1.0)
    with pytest.raises(ConfigError):
        TopologySpec(kind="big-switch", oversub=2.0)
    with pytest.raises(ConfigError):
        TopologySpec(kind="leaf-spine", path_select="bogus")


def test_runspec_cache_key_topology_identity():
    workload = WorkloadSpec(family="fb-like", machines=20, coflows=40)
    base = RunSpec(policy="saath", workload=workload)
    leaf = base.with_topology(TopologySpec(kind="leaf-spine", oversub=4.0))
    assert base.cache_key() != leaf.cache_key()
    # Different oversub => different key; same spec => same key.
    leaf2 = base.with_topology(TopologySpec(kind="leaf-spine", oversub=2.0))
    assert leaf.cache_key() != leaf2.cache_key()
    assert leaf.cache_key() == base.with_topology(
        TopologySpec(kind="leaf-spine", oversub=4.0)
    ).cache_key()


def test_runspec_cache_key_big_switch_matches_pre_topology_format():
    """Big-switch keys must hash the exact v2 payload shape (modulo the
    version bump), so PR 4-era cache layouts survive the upgrade path."""
    import hashlib
    import json
    from dataclasses import asdict

    from repro.experiments.runner import CACHE_VERSION

    workload = WorkloadSpec(family="osp-like", machines=16, coflows=60)
    spec = RunSpec(policy="aalo", workload=workload, arrival_scale=2.0)
    # The v2/v3 payload has no ``params`` entry — shuffle-family specs must
    # keep hashing the exact legacy shape (the collective family's params
    # join the payload only when non-empty).
    legacy_workload = asdict(spec.workload)
    assert legacy_workload.pop("params") == ()
    legacy_payload = json.dumps(
        {
            "v": CACHE_VERSION,
            "policy": spec.policy,
            "workload": legacy_workload,
            "config": asdict(spec.config),
            "arrival_scale": spec.arrival_scale,
            "dynamics": spec.dynamics,
        },
        sort_keys=True,
        default=str,
    )
    expected = hashlib.sha256(legacy_payload.encode()).hexdigest()
    assert spec.cache_key() == expected


# ---- end-to-end -------------------------------------------------------------


def _small_workload(machines=12, coflows=20, seed=3):
    spec = fb_like_spec(num_machines=machines, num_coflows=coflows)
    fabric = spec.make_fabric()
    return fabric, WorkloadGenerator(spec, seed=seed).generate_coflows(fabric)


def _fingerprint(result):
    return (
        tuple(sorted((c, v.hex()) for c, v in result.ccts().items())),
        tuple(c.coflow_id for c in result.coflows),
        result.reschedules,
    )


@pytest.mark.parametrize("policy", available_policies())
def test_rack_local_leaf_spine_matches_big_switch(policy):
    """A single-rack leaf–spine at oversub 1 (every path rack-local)
    reproduces big-switch CCTs bit for bit — the path-aware machinery is
    engaged (core links exist) but never constrains."""
    fabric, coflows = _small_workload()
    cfg = SimulationConfig(sync_interval=8e-3)
    reference = _fingerprint(run_policy(
        make_scheduler(policy, cfg), clone_coflows(coflows), fabric, cfg,
    ))
    topo = LeafSpineTopology(fabric, racks=1, spines=2, oversub=1.0)
    assert topo.num_core_links > 0
    got = _fingerprint(run_policy(
        make_scheduler(policy, cfg), clone_coflows(coflows), fabric, cfg,
        topology=topo,
    ))
    assert got == reference


def test_oversubscribed_uplink_bottlenecks_cross_rack_flow():
    """A lone cross-rack flow runs at uplink speed, a rack-local one at
    port speed — the most direct statement of what the subsystem adds."""
    fabric = Fabric(num_machines=4, port_rate=100.0)
    topo = LeafSpineTopology(fabric, racks=2, spines=1, oversub=4.0)
    cfg = SimulationConfig()
    # Cross-rack: machine 0 (rack 0) -> machine 3 (rack 1); uplink carries
    # 2*100/(4*1) = 50 B/s, so 100 bytes take 2 s instead of 1 s.
    cross = [make_coflow(1, 0.0, [(0, 3 + 4, 100.0)])]
    result = run_policy(make_scheduler("uc-tcp", cfg), cross, fabric, cfg,
                        topology=topo)
    assert result.ccts()[1] == pytest.approx(2.0)
    # Rack-local: machine 0 -> machine 1 is unconstrained by the fabric.
    local = [make_coflow(1, 0.0, [(0, 1 + 4, 100.0)])]
    result = run_policy(make_scheduler("uc-tcp", cfg), local, fabric, cfg,
                        topology=topo)
    assert result.ccts()[1] == pytest.approx(1.0)


def test_link_degradation_on_core_link():
    """LinkDegradation/LinkRecovery route through the topology layer:
    halving the only uplink halves the cross-rack rate until recovery."""
    fabric = Fabric(num_machines=4, port_rate=100.0)
    topo = LeafSpineTopology(fabric, racks=2, spines=1, oversub=1.0)
    up = topo.uplink(0, 0)  # carries 200 B/s at oversub 1
    cfg = SimulationConfig()
    coflows = [make_coflow(1, 0.0, [(0, 3 + 4, 100.0)])]
    baseline = run_policy(
        make_scheduler("uc-tcp", cfg), clone_coflows(coflows), fabric, cfg,
        topology=topo,
    ).ccts()[1]
    assert baseline == pytest.approx(1.0)  # port-limited, not uplink
    degraded = run_policy(
        make_scheduler("uc-tcp", cfg), clone_coflows(coflows), fabric, cfg,
        topology=topo,
        dynamics=[LinkDegradation(time=0.0, link=up, factor=0.25)],
    ).ccts()[1]
    # 200 * 0.25 = 50 B/s uplink: the 100-byte flow now needs 2 s.
    assert degraded == pytest.approx(2.0)
    recovered = run_policy(
        make_scheduler("uc-tcp", cfg), clone_coflows(coflows), fabric, cfg,
        topology=topo,
        dynamics=[LinkDegradation(time=0.0, link=up, factor=0.25),
                  LinkRecovery(time=1.0, link=up)],
    ).ccts()[1]
    assert baseline < recovered < degraded


def test_link_degradation_validates_link_id():
    fabric = Fabric(num_machines=4, port_rate=100.0)
    cfg = SimulationConfig()
    coflows = [make_coflow(1, 0.0, [(0, 3 + 4, 100.0)])]
    # Core-link id on a big-switch run: no such link exists.
    with pytest.raises(ConfigError, match="port 23"):
        run_policy(
            make_scheduler("uc-tcp", cfg), clone_coflows(coflows), fabric,
            cfg, dynamics=[LinkDegradation(time=0.0, link=23, factor=0.5)],
        )
    with pytest.raises(ConfigError):
        LinkDegradation(time=0.0, link=0, factor=1.5)
    # Encode/decode round-trip (sweep-runner cache identity).
    actions = [LinkDegradation(time=0.5, link=9, factor=0.0),
               LinkRecovery(time=1.0, link=9)]
    assert decode_actions(encode_actions(actions)) == actions


def test_snapshot_resume_on_leaf_spine_topology():
    """The session kernel's checkpointing carries the topology and path
    map: a paused-and-resumed leaf-spine run is byte-identical to an
    uninterrupted one."""
    from repro.simulator.scenario import Scenario
    from repro.simulator.session import SimulationSession

    fabric, coflows = _small_workload()
    cfg = SimulationConfig(sync_interval=8e-3)
    topo = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)
    reference = _fingerprint(SimulationSession(
        fabric, make_scheduler("saath", cfg), cfg,
        scenario=Scenario.from_coflows(clone_coflows(coflows)),
        topology=topo,
    ).run())
    session = SimulationSession(
        fabric, make_scheduler("saath", cfg), cfg,
        scenario=Scenario.from_coflows(clone_coflows(coflows)),
        topology=topo,
    )
    session.run_until(0.5)
    snap = session.snapshot()
    assert _fingerprint(SimulationSession.restore(snap).run()) == reference
    # The donor keeps running unaffected by the checkpoint.
    assert _fingerprint(session.run()) == reference


def test_restore_adds_link_columns_to_older_checkpoints():
    """A checkpoint whose flow table predates the core-link columns
    restores with them rebuilt from its path map and resumes
    byte-identically."""
    from repro.simulator.scenario import Scenario
    from repro.simulator.session import SimulationSession

    fabric, coflows = _small_workload()
    cfg = SimulationConfig(sync_interval=8e-3)
    topo = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)

    def session():
        return SimulationSession(
            fabric, make_scheduler("saath", cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
            topology=topo,
        )

    reference = _fingerprint(session().run())
    donor = session()
    donor.run_until(0.5)
    snap = donor.snapshot()
    table = snap.payload["state"].table
    assert max(table.link_a) >= 0  # some live flow crosses the core
    del table.link_a, table.link_b
    assert _fingerprint(SimulationSession.restore(snap).run()) == reference


def test_least_loaded_paths_do_not_depend_on_the_policy():
    """Paths are resolved when a coflow activates, in activation order,
    so the stateful least-loaded selector hands every policy the same
    fabric, not one shaped by the scheduler's query order."""
    from repro.simulator.scenario import Scenario
    from repro.simulator.session import SimulationSession

    fabric, coflows = _small_workload(machines=16, coflows=30)
    cfg = SimulationConfig(sync_interval=8e-3)
    assigned = {}
    for policy in available_policies():
        session = SimulationSession(
            fabric, make_scheduler(policy, cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
            topology=LeafSpineTopology(fabric, racks=4, spines=2,
                                       oversub=4.0,
                                       path_select="least-loaded"),
        )
        session.run()
        assigned[policy] = session.state.paths.assigned_pairs()
    reference = assigned["saath"]
    assert any(reference.values())  # some pair crosses the core
    assert all(pairs == reference for pairs in assigned.values()), sorted(
        p for p, pairs in assigned.items() if pairs != reference
    )


def test_leaf_spine_sweep_spec_runs_through_runner():
    """RunSpec.topology reaches the worker entry point (decode + build)."""
    from repro.experiments.runner import execute_spec

    workload = WorkloadSpec(family="fb-like", machines=12, coflows=15)
    base = RunSpec(policy="saath", workload=workload)
    leaf = base.with_topology(
        TopologySpec(kind="leaf-spine", oversub=8.0, racks=4)
    )
    flat = execute_spec(base)
    steep = execute_spec(leaf)
    assert set(flat.ccts) == set(steep.ccts)
    # 8:1 oversubscription must hurt: mean CCT strictly worse.
    mean = lambda d: sum(d.values()) / len(d)  # noqa: E731
    assert mean(steep.ccts) > mean(flat.ccts)
