"""Randomized engine-path equivalence fuzz.

The fixed-workload equivalence suite (tests/test_incremental.py,
tests/test_epochs.py) pins the engine-path invariant on curated inputs;
this module hammers it with ~20 seeded random small workloads mixing
staggered arrivals, DAG dependencies, zero-byte flows and delayed data
availability. For every registered scheduler the engine paths —

* ``default`` (incremental scheduling, diffed allocation applies),
* ``--no-incremental`` (the reference oracle: full-recompute scheduling,
  full applies, completion scans),
* ``stream`` (the same workload pulled lazily through a generator-backed
  :class:`~repro.simulator.scenario.Scenario`),
* ``resumed`` (every 5th seed: pause mid-run, ``snapshot()``,
  ``restore()`` and run the revived session to completion),
* ``leaf-spine`` (every 5th seed: the same workload on a *single-rack*
  :class:`~repro.simulator.topology.LeafSpineTopology` — core links exist,
  so every scheduler allocates through a
  :class:`~repro.simulator.topology.LinkLedger`, but no path crosses a
  core link, so the results must not move a bit; multi-rack runs are
  pinned by ``tests/test_golden_leafspine.py``),
* ``no-fastcore`` (the compiled :mod:`repro._fastcore` kernels forced
  off — when the extension is built the other paths run the C twins, so
  this leg pins compiled-vs-Python **bitwise**; when it is not built,
  every path is the Python rows path and the leg is a no-op)

must produce byte-identical CCTs, completion orders, reschedule counts and
makespans. Workloads are deterministic functions of their seed, so any
failure reproduces exactly. A jitter leg reruns the same workloads in
testbed mode (:class:`~repro.simulator.testbed.RateJitter` plus stragglers
and flow restarts), where every round is a full apply, on the first three
paths.

A second fuzz pins the row-path rate allocators, which every scheduling
round runs on, to the object forms bit-for-bit (rates *and* resulting
ledger state) — the object forms are the readable reference oracle. The
path-aware allocator twins (``*_paths``) join the same fuzz with a
big-switch path map: on paths with no core links they must be
bit-identical to the port-only forms. The ``mmf-fastcore`` variant runs
the same trials with ``table.fastcore`` set, routing the one row form
that has a compiled dispatch through its kernel — it skips cleanly when
the extension is not built.

A third fuzz runs the row forms on *multi-rack* path maps, whose core
links (filled into the table's ``link_a`` / ``link_b`` columns) saturate:
row form against the ``*_paths`` object twin over a
:class:`~repro.simulator.topology.LinkLedger`, in Python and, for
max-min, through its compiled kernel, including the link a capacity
violation names.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.errors import CapacityViolationError
from repro.rng import make_rng
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.dynamics import inject_failures, inject_stragglers
from repro.simulator.engine import run_policy, run_scenario
from repro.simulator.fabric import Fabric, PortLedger
from repro.simulator.scenario import Scenario
from repro.simulator.session import SimulationSession
from repro.simulator.flows import CoFlow, Flow, clone_coflows
from repro.simulator.ratealloc import (
    equal_rate_for_coflow,
    equal_rate_for_coflow_paths,
    equal_rate_for_coflow_rows,
    greedy_residual_rates,
    greedy_residual_rates_rows,
    madd_rates,
    madd_rates_paths,
    madd_rates_rows,
    max_min_fair,
    max_min_fair_paths,
    max_min_fair_rows,
)
from repro.simulator.state import FlowTable
from repro.simulator.testbed import RateJitter
from repro.simulator.topology import (
    PATH_SELECTORS,
    BigSwitchTopology,
    LeafSpineTopology,
    LinkLedger,
    PathMap,
)

NUM_WORKLOADS = 20


def random_workload(seed: int) -> tuple[Fabric, list[CoFlow]]:
    """A small random workload: 4–6 machines, 5–10 coflows.

    Mixes the edge cases the engine's bookkeeping must survive: zero-byte
    flows (born complete), DAG dependencies on earlier coflows (including
    multi-parent joins), delayed data availability, and same-instant
    arrivals.
    """
    rng = random.Random(0xF00D + seed)
    machines = rng.randrange(4, 7)
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    coflows: list[CoFlow] = []
    next_fid = 0
    for cid in range(1, rng.randrange(5, 11)):
        # Duplicate arrival instants across coflows are deliberate.
        arrival = rng.choice([0.0, 0.0, 0.05, 0.1, round(rng.random(), 2)])
        flows = []
        for _ in range(rng.randrange(1, 5)):
            src = rng.randrange(machines)
            dst = rng.randrange(machines)
            if dst == src:
                dst = (dst + 1) % machines
            volume = rng.choice([0.0, 1e3, 5e4, 2e5, 1e6 * rng.random()])
            flow = Flow(
                flow_id=next_fid, coflow_id=cid, src=src,
                dst=dst + machines, volume=volume,
            )
            if rng.random() < 0.2:
                flow.available_time = arrival + rng.random() * 0.2
            flows.append(flow)
            next_fid += 1
        depends_on: tuple[int, ...] = ()
        if coflows and rng.random() < 0.35:
            parents = rng.sample(
                [c.coflow_id for c in coflows],
                k=min(len(coflows), rng.randrange(1, 3)),
            )
            depends_on = tuple(parents)
        coflows.append(
            CoFlow(coflow_id=cid, arrival_time=arrival, flows=flows,
                   depends_on=depends_on)
        )
    return fabric, coflows


def fingerprint(result) -> tuple:
    """Everything the equivalence contract pins, with exact float bits."""
    return (
        tuple(sorted((cid, cct.hex()) for cid, cct in result.ccts().items())),
        tuple(c.coflow_id for c in result.coflows),
        result.reschedules,
        result.makespan.hex(),
    )


ENGINE_PATHS = (
    ("default", dict()),
    ("no-incremental", dict(incremental=False)),
    # Compiled kernels forced off. The other paths run with the default
    # ``fastcore=True``, so whenever the extension is built this leg pins
    # C-vs-Python bitwise on every seed/policy.
    ("no-fastcore", dict(fastcore=False)),
)


def assert_engine_paths_identical(policy, fabric, coflows, seed, *,
                                  deep_paths, pause_at=0.3, label=""):
    """Run ``coflows`` under every engine path and pin byte-identity.

    Always: default / no-incremental / no-fastcore / stream.
    With ``deep_paths`` (deep copies are not free, so callers sample):
    also snapshot-resume and the single-rack leaf-spine topology (row
    forms and compiled kernels over a :class:`LinkLedger`).
    """
    prints = {}
    for path_name, cfg_kw in ENGINE_PATHS:
        cfg = SimulationConfig(sync_interval=8e-3, **cfg_kw)
        result = run_policy(
            make_scheduler(policy, cfg), clone_coflows(coflows),
            fabric, cfg,
        )
        prints[path_name] = fingerprint(result)
    # Fourth path: the same workload fed lazily through a generator-
    # backed scenario stream (the session kernel's open-loop input).
    cfg = SimulationConfig(sync_interval=8e-3)
    ordered = sorted(coflows, key=lambda c: c.arrival_time)
    prints["stream"] = fingerprint(run_scenario(
        make_scheduler(policy, cfg),
        Scenario.from_stream(
            lambda: iter(clone_coflows(ordered)),
            total_coflows=len(ordered),
        ),
        fabric, cfg,
    ))
    # Fifth path: pause mid-run, checkpoint, resume from the snapshot.
    if deep_paths:
        session = SimulationSession(
            fabric, make_scheduler(policy, cfg), cfg,
            scenario=Scenario.from_coflows(clone_coflows(coflows)),
        )
        session.run_until(pause_at)
        snap = session.snapshot()
        prints["resumed"] = fingerprint(
            SimulationSession.restore(snap).run()
        )
        # Sixth path: a single-rack leaf-spine topology. Core links
        # exist (path-aware machinery fully engaged: LinkLedger, link
        # counts, path resolution at activation) but every flow is
        # rack-local, so nothing may change byte-for-byte.
        prints["leaf-spine"] = fingerprint(run_policy(
            make_scheduler(policy, cfg), clone_coflows(coflows),
            fabric, cfg,
            topology=LeafSpineTopology(
                fabric, racks=1, spines=2, oversub=1.0
            ),
        ))
    reference = prints["default"]
    assert all(p == reference for p in prints.values()), (
        f"engine paths diverged: policy={policy} seed={seed} {label}"
        f"({[k for k, p in prints.items() if p != reference]})"
    )


@pytest.mark.parametrize("policy", available_policies())
def test_random_workloads_triple_path_identical(policy):
    for seed in range(NUM_WORKLOADS):
        fabric, coflows = random_workload(seed)
        assert_engine_paths_identical(
            policy, fabric, coflows, seed, deep_paths=seed % 5 == 0,
        )


@pytest.mark.parametrize("policy", available_policies())
def test_random_workloads_under_rate_jitter_identical(policy):
    """Testbed mode: every round is a full apply whose rates pass through
    the perturbation hook, so this drives the full-apply collect and commit
    kernels and their Python twins, with availability gating and straggler
    efficiency scaling in play. The jitter draws from one stream in collect
    order: a difference in which flows are rated, or in their order, moves
    the fingerprint."""
    for seed in range(NUM_WORKLOADS):
        fabric, coflows = random_workload(seed)
        rng = make_rng(seed)
        dynamics = (inject_stragglers(coflows, rng, fraction=0.2)
                    + inject_failures(coflows, rng, fraction=0.1))
        prints = {}
        for path_name, cfg_kw in ENGINE_PATHS:
            cfg = SimulationConfig(sync_interval=8e-3, **cfg_kw)
            prints[path_name] = fingerprint(run_policy(
                make_scheduler(policy, cfg), clone_coflows(coflows),
                fabric, cfg, dynamics=dynamics,
                rate_perturbation=RateJitter(seed=seed),
            ))
        assert len(set(prints.values())) == 1, (
            f"engine paths diverged under jitter: policy={policy} "
            f"seed={seed}"
        )


NUM_COLLECTIVE_WORKLOADS = 6


def random_collective_workload(seed: int):
    """A small seeded-random training workload: 4–8 machines, 1–2 jobs of a
    random ``(pattern, workers, iterations, volume)`` recipe, random
    placement — the structured counterpart of :func:`random_workload`."""
    from repro.workloads.collectives import collective_jobs

    rng = random.Random(0xC0FFEE + seed)
    machines = rng.randrange(4, 9)
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    pattern = rng.choice(["ring", "tree", "all-to-all", "ps"])
    servers = rng.randrange(1, 3) if pattern == "ps" else 0
    workers = rng.randrange(2, machines - servers + 1)
    jobs = collective_jobs(
        fabric,
        pattern=pattern,
        workers=workers,
        iterations=rng.randrange(1, 3),
        volume=rng.choice([1e3, 5e4, 1e6 * rng.random() + 1.0]),
        jobs=rng.randrange(1, 3),
        servers=servers,
        racks=rng.randrange(1, 3),
        placement=rng.choice(["packed", "spread"]),
        compute_gap=rng.choice([0.0, 0.0, 0.05]),
        arrival_gap=rng.choice([0.0, 0.3]),
    )
    return fabric, [c for job in jobs for c in job]


@pytest.mark.parametrize("policy", available_policies())
def test_random_collective_workloads_six_paths_identical(policy):
    """Seeded random training jobs (collective DAG chains) must be
    byte-identical across all six engine paths, like every other source."""
    for seed in range(NUM_COLLECTIVE_WORKLOADS):
        fabric, coflows = random_collective_workload(seed)
        assert_engine_paths_identical(
            policy, fabric, coflows, seed, deep_paths=seed % 3 == 0,
            pause_at=0.05, label="collective ",
        )


def _random_attached_flows(rng: random.Random, machines: int):
    """One coflow's worth of random flows, adopted into a fresh table."""
    flows = []
    for i in range(rng.randrange(1, 12)):
        src = rng.randrange(machines)
        dst = rng.randrange(machines)
        if dst == src:
            dst = (dst + 1) % machines
        f = Flow(flow_id=i, coflow_id=1, src=src, dst=dst + machines,
                 volume=rng.choice([0.0, 1e3, 7.5e5, 1e6 * rng.random()]))
        f.bytes_sent = f.volume * rng.random()
        if rng.random() < 0.2:
            f.finish_time = 1.0
        flows.append(f)
    table = FlowTable()
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    return flows, table, rows


@pytest.mark.parametrize("allocator", [
    "mmf", "madd", "equal", "greedy",
    "mmf-paths", "madd-paths", "equal-paths",
    "mmf-fastcore",
])
def test_row_allocators_match_object_allocators(allocator):
    """Row-path and path-aware allocators are bit-identical to the object
    forms — same rates, same residual ledger — across random instances
    (the ``*_paths`` twins run with a big-switch path map: every path is
    ``(src, dst)``, so the port-only arithmetic must reproduce exactly).
    The ``mmf-fastcore`` variant sets ``table.fastcore`` so the row form
    dispatches to the compiled kernel, fuzzing C directly against the
    object allocator; it skips when the extension is not built. The
    MADD, equal-rate and greedy forms have no compiled dispatch (their C
    twins are parts of the round kernels, fuzzed against the Python
    rounds in ``tests/test_saath_kernels.py`` and
    ``tests/test_varys_kernels.py``)."""
    fastcore = allocator.endswith("-fastcore")
    if fastcore:
        if not _fastcore.AVAILABLE:
            pytest.skip("repro._fastcore extension not built")
        allocator = allocator[: -len("-fastcore")]
    rng = random.Random(2024)
    machines = 8
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    coflow_stub = CoFlow(coflow_id=1, arrival_time=0.0, flows=[])
    paths = PathMap(BigSwitchTopology(fabric))
    for trial in range(120):
        flows, table, rows = _random_attached_flows(rng, machines)
        table.fastcore = fastcore
        obj_ledger = PortLedger(fabric)
        row_ledger = PortLedger(fabric)
        # Pre-commit some random load so residuals differ across ports.
        for _ in range(rng.randrange(0, 4)):
            src = rng.randrange(machines)
            obj_ledger.commit(src, src + machines, 1e5)
            row_ledger.commit(src, src + machines, 1e5)

        if allocator == "mmf":
            cap = rng.choice([None, None, 0.0, 1e3, 2e9])
            expected = max_min_fair(flows, obj_ledger, rate_cap=cap)
            got = max_min_fair_rows(rows, table, row_ledger, rate_cap=cap)
        elif allocator == "madd":
            expected = madd_rates(coflow_stub, obj_ledger, flows=flows)
            got = madd_rates_rows(rows, table, row_ledger)
        elif allocator == "equal":
            expected = equal_rate_for_coflow(
                coflow_stub, obj_ledger, flows=flows
            )
            got = equal_rate_for_coflow_rows(rows, table, row_ledger)
        elif allocator == "mmf-paths":
            cap = rng.choice([None, None, 0.0, 1e3, 2e9])
            expected = max_min_fair(flows, obj_ledger, rate_cap=cap)
            got = max_min_fair_paths(
                flows, paths, row_ledger, rate_cap=cap
            )
        elif allocator == "madd-paths":
            expected = madd_rates(coflow_stub, obj_ledger, flows=flows)
            got = madd_rates_paths(
                coflow_stub, row_ledger, paths, flows=flows
            )
        elif allocator == "equal-paths":
            expected = equal_rate_for_coflow(
                coflow_stub, obj_ledger, flows=flows
            )
            got = equal_rate_for_coflow_paths(
                coflow_stub, row_ledger, paths, flows=flows
            )
        else:
            expected = greedy_residual_rates(flows, obj_ledger)
            got = greedy_residual_rates_rows(rows, table, row_ledger)

        assert got == expected, f"{allocator} diverged at trial {trial}"
        assert (row_ledger.snapshot_residuals()
                == obj_ledger.snapshot_residuals()), (
            f"{allocator} ledger state diverged at trial {trial}"
        )
        for fid, rate in got.items():
            assert math.isfinite(rate)


def _attach_paths(table, rows, paths: PathMap) -> None:
    """Fill the table's core-link columns from ``paths``, as the cluster
    state does at activation."""
    for i in rows:
        table.set_links(i, paths.extra_links(table.src[i], table.dst[i]))


#: (allocator, fastcore) legs of the core-link fuzz: every row form in
#: Python, and the one with a compiled dispatch (max-min) through C.
CORE_LINK_LEGS = [
    (allocator, fastcore)
    for allocator in ("mmf", "madd", "equal", "greedy")
    for fastcore in (False, True)
    if not fastcore or allocator == "mmf"
]


@pytest.mark.parametrize(
    "allocator,fastcore", CORE_LINK_LEGS,
    ids=[f"{a}-{'fastcore' if fc else 'python'}" for a, fc in CORE_LINK_LEGS],
)
def test_row_allocators_match_paths_on_core_links(allocator, fastcore):
    """Row forms walk ``src, dst, link_a, link_b`` exactly like the
    ``*_paths`` object twins walk a pair's path: same rates, same residual
    ledger on every link, on a four-rack 4:1 leaf-spine whose uplinks and
    downlinks (a quarter of a rack's port bandwidth per spine) are the
    usual bottleneck. ``fastcore`` routes the max-min row form through
    its compiled kernel, so C is pinned against the Python object form."""
    if fastcore and not _fastcore.AVAILABLE:
        pytest.skip("repro._fastcore extension not built")
    rng = random.Random(4242)
    machines = 8
    fabric = Fabric(num_machines=machines, port_rate=1e6)
    topo = LeafSpineTopology(fabric, racks=4, spines=2, oversub=4.0)
    coflow_stub = CoFlow(coflow_id=1, arrival_time=0.0, flows=[])
    saw_core_bottleneck = False
    for trial in range(150):
        paths = PathMap(topo, rng.choice(PATH_SELECTORS))
        flows, table, rows = _random_attached_flows(rng, machines)
        _attach_paths(table, rows, paths)
        table.fastcore = fastcore
        obj_ledger = LinkLedger(topo, paths)
        row_ledger = LinkLedger(topo, paths)
        # Pre-commit random cross-rack load so core residuals differ.
        for _ in range(rng.randrange(0, 4)):
            src = rng.randrange(machines)
            dst = machines + (src + 2 * rng.randrange(1, 4)) % machines
            obj_ledger.commit(src, dst, 5e4)
            row_ledger.commit(src, dst, 5e4)

        if allocator == "mmf":
            cap = rng.choice([None, None, 0.0, 1e3, 2e9])
            expected = max_min_fair_paths(flows, paths, obj_ledger,
                                          rate_cap=cap)
            got = max_min_fair_rows(rows, table, row_ledger, rate_cap=cap)
        elif allocator == "madd":
            expected = madd_rates_paths(coflow_stub, obj_ledger, paths,
                                        flows=flows)
            got = madd_rates_rows(rows, table, row_ledger)
        elif allocator == "equal":
            expected = equal_rate_for_coflow_paths(
                coflow_stub, obj_ledger, paths, flows=flows
            )
            got = equal_rate_for_coflow_rows(rows, table, row_ledger)
        else:
            expected = greedy_residual_rates(flows, obj_ledger)
            got = greedy_residual_rates_rows(rows, table, row_ledger)

        assert got == expected, f"{allocator} diverged at trial {trial}"
        assert (row_ledger.snapshot_residuals()
                == obj_ledger.snapshot_residuals()), (
            f"{allocator} ledger state diverged at trial {trial}"
        )
        saw_core_bottleneck |= any(
            row_ledger.residual(link) <= 0 for link in topo.core_links()
        )
    assert saw_core_bottleneck  # the fuzz really saturates core links


def test_capacity_violation_names_the_same_link_in_every_form():
    """Stale per-link counts (every count 1) make the equal rate
    overcommit the coflow's bottleneck. Each form commits link by link in
    path order (sender, receiver, core links), so the error names the
    same link, with the same figures, in the object and row forms."""
    fabric = Fabric(num_machines=4, port_rate=100.0)
    topo = LeafSpineTopology(fabric, racks=2, spines=1, oversub=4.0)
    paths = PathMap(topo)
    # Two flows from rack 0 to rack 1 share the uplink (50 B/s): the
    # receivers and senders are distinct, so the uplink overflows first.
    flows = [Flow(flow_id=0, coflow_id=1, src=0, dst=4 + 2, volume=1e3),
             Flow(flow_id=1, coflow_id=1, src=1, dst=4 + 3, volume=1e3)]
    table = FlowTable()
    rows = [table.adopt(f, pos) for pos, f in enumerate(flows)]
    _attach_paths(table, rows, paths)
    stale = {link: 1 for f in flows
             for link in (f.src, f.dst, *paths.extra_links(f.src, f.dst))}
    coflow_stub = CoFlow(coflow_id=1, arrival_time=0.0, flows=[])
    with pytest.raises(CapacityViolationError) as obj_err:
        equal_rate_for_coflow_paths(coflow_stub, LinkLedger(topo, paths),
                                    paths, flows=flows, link_counts=stale)
    with pytest.raises(CapacityViolationError) as row_err:
        equal_rate_for_coflow_rows(rows, table, LinkLedger(topo, paths),
                                   port_counts=stale)
    uplink = str(topo.uplink(0, 0))
    assert obj_err.value.port == uplink
    assert (row_err.value.port, row_err.value.allocated,
            row_err.value.capacity) == (
        obj_err.value.port, obj_err.value.allocated, obj_err.value.capacity)
