"""Metamorphic relations: rescaling the units of a run rescales its CCTs.

Scaling by a power of two is exact in floating point, so neither relation
needs a tolerance, and neither needs an oracle:

* **Bytes.** Doubling every byte quantity leaves every CCT bit-identical.
  The byte quantities are the flow volumes, the fabric's and the config's
  ``port_rate``, ``min_rate``, ``epsilon_bytes`` and the queues'
  ``start_threshold``.
* **Time.** Doubling every time quantity and halving every rate doubles
  every CCT exactly. The time quantities are arrival and availability
  times, ``sync_interval`` and ``max_sim_time``; the rates are both
  ``port_rate``\\ s and ``min_rate``.

Both run over the fuzz corpus, every policy and δ ∈ {0, 8 ms}, on the big
switch and on a 2-rack 4:1 leaf-spine, whose core-link capacities follow
the port rate. They also watch the absolute constants the engine carries
(the 10 ns completion window, the 1e-9 s wake floors): a corpus on which
one binds breaks the time relation.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import SimulationConfig
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy
from repro.simulator.fabric import Fabric
from repro.simulator.flows import clone_coflows
from repro.simulator.topology import LeafSpineTopology

from test_fuzz_equivalence import NUM_WORKLOADS, random_workload

SYNC_INTERVALS = (0.0, 8e-3)


def _run(policy, fabric, coflows, cfg, fabric_kind):
    topology = (LeafSpineTopology(fabric, racks=2, spines=2, oversub=4.0)
                if fabric_kind == "leafspine" else None)
    result = run_policy(make_scheduler(policy, cfg), coflows, fabric, cfg,
                        topology=topology)
    return result.ccts(), [c.coflow_id for c in result.coflows]


def _scale_bytes(fabric, coflows, cfg, k):
    coflows = clone_coflows(coflows)
    for c in coflows:
        for f in c.flows:
            f.volume *= k
    cfg = cfg.with_updates(
        port_rate=cfg.port_rate * k, min_rate=cfg.min_rate * k,
        epsilon_bytes=cfg.epsilon_bytes * k,
        queues=replace(cfg.queues,
                       start_threshold=cfg.queues.start_threshold * k),
    )
    return Fabric(fabric.num_machines, fabric.port_rate * k), coflows, cfg


def _scale_time(fabric, coflows, cfg, k):
    coflows = clone_coflows(coflows)
    for c in coflows:
        c.arrival_time *= k
        for f in c.flows:
            f.available_time *= k
    cfg = cfg.with_updates(
        sync_interval=cfg.sync_interval * k,
        max_sim_time=cfg.max_sim_time * k,
        port_rate=cfg.port_rate / k, min_rate=cfg.min_rate / k,
    )
    return Fabric(fabric.num_machines, fabric.port_rate / k), coflows, cfg


@pytest.mark.parametrize("fabric_kind", ["bigswitch", "leafspine"])
@pytest.mark.parametrize("policy", available_policies())
def test_unit_scaling_relations(policy, fabric_kind):
    for seed in range(NUM_WORKLOADS):
        fabric, coflows = random_workload(seed)
        for delta in SYNC_INTERVALS:
            cfg = SimulationConfig(port_rate=fabric.port_rate,
                                   sync_interval=delta)
            cell = f"{policy} seed={seed} delta={delta}"
            ccts, done = _run(policy, fabric, clone_coflows(coflows), cfg,
                              fabric_kind)

            scaled, order = _run(policy, *_scale_bytes(fabric, coflows, cfg,
                                                       2.0), fabric_kind)
            assert order == done, f"bytes x2 reordered completions: {cell}"
            assert {c: t.hex() for c, t in scaled.items()} == {
                c: t.hex() for c, t in ccts.items()
            }, f"bytes x2 moved a CCT: {cell}"

            scaled, order = _run(policy, *_scale_time(fabric, coflows, cfg,
                                                      2.0), fabric_kind)
            assert order == done, f"time x2 reordered completions: {cell}"
            assert {c: t.hex() for c, t in scaled.items()} == {
                c: (2.0 * t).hex() for c, t in ccts.items()
            }, f"time x2 did not double every CCT: {cell}"
