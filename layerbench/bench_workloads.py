"""Workloads of the layered benchmark: inputs, cells and output checks.

A workload is a list of traces; every trace runs under each policy of the
paper's Fig. 9 set, and one (trace, policy) pair is a *cell*. The harness
only calls the simulator's public entry points (``WorkloadGenerator``,
``collective_jobs_for``, ``TopologySpec.build``, ``run_policy``).

Seeds. ``--seed N`` varies what a trace generator can vary without
changing the amount of work. Shuffle traces (FB-like 7, OSP-like 11) are
drawn from their canonical seeds and then have their machines relabeled by
a permutation drawn from ``N``; on a leaf-spine fabric whole racks move, so
every host pair keeps its rack structure and ECMP spine. Collective jobs
take ``7 + N`` as their seed, which draws the jobs' arrival gaps. Dynamics
(rng 5) and rate jitter (seed 3) stay fixed. ``N = 0`` is the canonical
input set of the reference fingerprints. Fresh shuffle traces per seed
would move a cell's wall time by up to 50% (FB-like, 150 machines x 526
coflows, ten draws), far more than the changes the benchmark must resolve;
relabeled traces and re-drawn arrival gaps keep the scheduling rounds
within a few percent.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from repro.experiments.common import default_experiment_config
from repro.experiments.runner import collective_jobs_for, collective_spec
from repro.rng import make_rng
from repro.schedulers.registry import make_scheduler
from repro.simulator.dynamics import inject_failures, inject_stragglers
from repro.simulator.engine import run_policy
from repro.simulator.flows import clone_coflows
from repro.simulator.testbed import RateJitter
from repro.simulator.topology import TopologySpec
from repro.units import MB
from repro.workloads.synthetic import (
    WorkloadGenerator,
    fb_like_spec,
    osp_like_spec,
)

#: The Fig. 9 policy set, run on every trace of every workload.
POLICIES = ("saath", "aalo", "varys-sebf", "uc-tcp")

COLLECTIVE_PATTERNS = ("ring", "tree", "all-to-all", "ps")

#: Leaf-spine fabric of the topology workloads: 4:1 oversubscribed edge.
LEAF_SPINE = TopologySpec(kind="leaf-spine", oversub=4.0, path_select="ecmp")

#: Full dimensions, sized so one pass over a workload's cells takes 4-6 s
#: on a 2-core x86 VM with the compiled core built, which gives every cell
#: five or more executions in a 25 s run.
FULL = {
    "fig9": {"fb": (150, 526), "osp": (100, 300)},
    "leafspine": (100, 150),
    "collectives": {"iterations": 6, "jobs": 4},
    "dynamics": (150, 200),
}

#: Tiny dimensions for the harness's own smoke test.
SMOKE = {
    "fig9": {"fb": (12, 10), "osp": (10, 10)},
    "leafspine": (16, 10),
    "collectives": {"iterations": 1, "jobs": 1},
    "dynamics": (12, 10),
}


@dataclass
class Trace:
    """One input of a workload: a fabric and pristine coflows, plus the
    topology, dynamics actions and rate jitter the cells run with."""

    name: str
    fabric: object
    coflows: list
    topology: TopologySpec | None = None
    dynamics: list = field(default_factory=list)
    jitter_seed: int | None = None


@dataclass
class Cell:
    """One (trace, policy) pair of a workload."""

    trace: Trace
    policy: str

    @property
    def name(self) -> str:
        return f"{self.trace.name}/{self.policy}"


def relabel_machines(coflows, num_machines: int, stride: int,
                     seed: int) -> None:
    """Permute machine ids of ``coflows`` in place (seed 0: identity).

    On a big switch (``stride == num_machines``) any permutation is drawn.
    Otherwise whole racks of ``stride`` machines move and each keeps its
    internal order; with an even stride every machine keeps the parity of
    its id, which is all the two-spine ECMP hash reads, so every host pair
    keeps its spine.
    """
    if seed == 0:
        return
    rng = random.Random(seed)
    perm = list(range(num_machines))
    if stride >= num_machines:
        rng.shuffle(perm)
    else:
        racks = list(range(num_machines // stride))
        targets = racks[:]
        rng.shuffle(targets)
        for rack, target in zip(racks, targets):
            for k in range(stride):
                perm[rack * stride + k] = target * stride + k
    n = num_machines
    for c in coflows:
        for f in c.flows:
            f.src = perm[f.src]
            f.dst = perm[f.dst - n] + n


def _rack_stride(fabric, topology: TopologySpec | None) -> int:
    n = fabric.num_machines
    if topology is None:
        return n
    return math.ceil(n / topology.build(fabric).racks)


def _synthetic(spec_fn, name, dims, base_seed, seed,
               topology=None) -> Trace:
    machines, coflows = dims
    spec = spec_fn(num_machines=machines, num_coflows=coflows)
    fabric = spec.make_fabric()
    pristine = WorkloadGenerator(spec, seed=base_seed).generate_coflows(fabric)
    relabel_machines(pristine, machines, _rack_stride(fabric, topology), seed)
    return Trace(name, fabric, pristine, topology=topology)


def build_traces(workload: str, seed: int, smoke: bool = False) -> list:
    """The traces of ``workload`` for benchmark seed ``seed``."""
    dims = SMOKE if smoke else FULL
    if workload == "fig9-bigswitch":
        # The paper's headline (Fig. 9) on the production path: big switch,
        # compiled kernels, Saath's admission and contention upkeep.
        traces = [
            _synthetic(fb_like_spec, "fb-like", dims["fig9"]["fb"], 7, seed),
            _synthetic(osp_like_spec, "osp-like", dims["fig9"]["osp"], 11,
                       seed),
        ]
    elif workload == "leafspine-oversub4":
        # The topology path: every allocator runs its Python *_paths form
        # over the link ledger.
        traces = [_synthetic(fb_like_spec, "fb-like", dims["leafspine"], 7,
                             seed, topology=LEAF_SPINE)]
    elif workload == "collectives-dag":
        # Arrivals released by DAG parents completing, over many small
        # stage coflows: activation and completions carry the load.
        traces = []
        for pattern in COLLECTIVE_PATTERNS:
            spec = collective_spec(
                machines=32, pattern=pattern, workers=16, volume=256 * MB,
                **dims["collectives"],
                servers=8 if pattern == "ps" else 0, racks=4,
                placement="spread", arrival_gap=0.1, seed=7 + seed,
            )
            fabric, jobs = collective_jobs_for(spec)
            traces.append(Trace(
                pattern, fabric, [c for job in jobs for c in job],
                topology=TopologySpec(kind="leaf-spine", oversub=4.0,
                                      racks=4),
            ))
    elif workload == "testbed-dynamics":
        # Rate jitter turns allocation epochs off, so every round rebuilds
        # the applied rates: the engine's apply layer carries the load.
        trace = _synthetic(fb_like_spec, "fb-like", dims["dynamics"], 7, seed)
        rng = make_rng(5)
        trace.dynamics = (inject_stragglers(trace.coflows, rng, fraction=0.05)
                          + inject_failures(trace.coflows, rng, fraction=0.02))
        trace.jitter_seed = 3
        traces = [trace]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return traces


def cells_of(traces) -> list:
    return [Cell(t, p) for t in traces for p in POLICIES]


def input_fingerprint(traces) -> str:
    """SHA-256 over every flow of every trace (set-up determinism check)."""
    h = hashlib.sha256()
    for t in traces:
        for c in t.coflows:
            h.update(repr((c.coflow_id, c.arrival_time, c.depends_on)).encode())
            for f in c.flows:
                h.update(repr((f.flow_id, f.src, f.dst, f.volume,
                               f.available_time)).encode())
        h.update(repr(t.dynamics).encode())
    return h.hexdigest()


def run_cell(cell: Cell, config=None, instrument=None, **hooks):
    """Simulate one cell on fresh coflows and return the result.

    Covers what a user pays per run: cloning the workload, building the
    topology and ``run_policy``. ``instrument`` is called with the
    scheduler before the run; ``hooks`` go to ``run_policy`` unchanged
    (``metrics=``, ``timers=``).
    """
    config = config or default_experiment_config()
    trace = cell.trace
    coflows = clone_coflows(trace.coflows)
    topology = (trace.topology.build(trace.fabric)
                if trace.topology is not None else None)
    scheduler = make_scheduler(cell.policy, config)
    if instrument is not None:
        instrument(scheduler)
    jitter = (RateJitter(seed=trace.jitter_seed)
              if trace.jitter_seed is not None else None)
    return run_policy(
        scheduler, coflows, trace.fabric, config,
        dynamics=trace.dynamics, topology=topology,
        rate_perturbation=jitter, **hooks,
    )


def cct_fingerprint(ccts: dict) -> str:
    """SHA-256 of the sorted ``coflow_id -> repr(cct)`` map."""
    body = "\n".join(f"{cid} {cct!r}" for cid, cct in sorted(ccts.items()))
    return hashlib.sha256(body.encode()).hexdigest()


def check_cell(cell: Cell, ccts: dict, finished) -> list:
    """Problems with one cell's output, checked from outside the engine.

    ``ccts`` is the run's ``coflow_id -> CCT`` map and ``finished`` its
    finished coflows. Checks: every input coflow finished; every flow sent
    exactly its volume (relative tolerance 1e-9, absolute tolerance the
    engine's ``epsilon_bytes``); every CCT is at least the coflow's
    isolation bound, the most bytes any of its ports must carry divided by
    the port capacity.
    """
    epsilon = default_experiment_config().epsilon_bytes
    problems = []
    expected = {c.coflow_id for c in cell.trace.coflows}
    missing = expected - set(ccts)
    if missing:
        problems.append(f"{len(missing)} coflows unfinished")
    rate = cell.trace.fabric.port_rate
    for c in finished:
        port_bytes: dict = {}
        for f in c.flows:
            if not math.isclose(f.bytes_sent, f.volume, rel_tol=1e-9,
                                abs_tol=epsilon):
                problems.append(
                    f"flow {f.flow_id} sent {f.bytes_sent!r} of {f.volume!r}"
                )
            port_bytes[f.src] = port_bytes.get(f.src, 0.0) + f.volume
            port_bytes[f.dst] = port_bytes.get(f.dst, 0.0) + f.volume
        bound = max(port_bytes.values(), default=0.0) / rate
        cct = ccts.get(c.coflow_id)
        if cct is not None and cct < bound * (1 - 1e-9):
            problems.append(
                f"coflow {c.coflow_id} CCT {cct!r} below isolation bound "
                f"{bound!r}"
            )
    return problems
