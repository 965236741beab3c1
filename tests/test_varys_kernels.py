"""Varys's compiled kernels against their Python twins, on hand-built states.

* ``madd_round`` (:func:`repro.schedulers.varys.madd_round` with
  ``table.fastcore`` set) against the same function's Python loop: MADD
  admission coflow by coflow, then the greedy backfill of the coflows it
  left out. This round is shared by Varys, SCF, SRTF, LWTF and Sincronia.
  Random states (``tests/test_saath_kernels.py``'s) on the big switch and
  on a multi-rack 4:1 leaf-spine whose core links saturate, with
  availability-gated rows, capacity overrides (0 included), a pre-loaded
  ledger, unfinished rows whose ``bytes_sent`` reaches or passes their
  volume, and finished rows still listed as pending. Both rounds must agree on the rates (bits and dict
  order), both coflow sets, the ledger's usage and its touched set.
* ``sebf_gammas`` against :meth:`VarysSebfScheduler._compute_gamma`: every
  active coflow's SEBF Γ over the round ledger's capacities, including
  overrides of 0 (Γ = inf), coflows without unfinished rows (Γ = 0.0),
  negative remaining bytes (clamped to 0) and leaf-spine ledgers.

Every compiled leg skips when the extension is not built.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import _fastcore
from repro.config import SimulationConfig
from repro.schedulers.varys import VarysSebfScheduler, madd_round
from repro.simulator.state import ClusterState

from test_saath_kernels import NOW, _preload
from test_saath_kernels import _random_state as _saath_state

needs_core = pytest.mark.skipif(
    not _fastcore.AVAILABLE, reason="repro._fastcore extension not built"
)


def _random_state(rng: random.Random, fabric_kind: str) -> ClusterState:
    """A random Saath-kernel state, plus two cases only Varys reads: sent
    bytes past a flow's volume (negative remaining) and a flow that
    finished after the pending rows were last updated, which the kernels
    must skip by its finish time, as the Python loops do."""
    state = _saath_state(rng, fabric_kind)
    table = state.table
    for rows in state.pending_row_map.values():
        for i in rows:
            if rng.random() < 0.1:
                table.bytes_sent[i] = table.volume[i] * 1.25
            if rng.random() < 0.05:
                table.finish_time[i] = 0.9
    return state


@needs_core
@pytest.mark.parametrize("fabric_kind", ["bigswitch", "leafspine"])
def test_compiled_madd_round_matches_python_round(fabric_kind):
    rng = random.Random(1818)
    seen = {"scheduled": 0, "blocked": 0, "conserved": 0, "gated": 0,
            "core_full": 0}
    for trial in range(300):
        state = _random_state(rng, fabric_kind)
        order = list(state.active_coflows)
        rng.shuffle(order)
        load_seed = rng.random()
        out = {}
        for fastcore in (False, True):
            state.table.fastcore = fastcore
            ledger = state.make_ledger()
            _preload(state, ledger, random.Random(load_seed))
            allocation = madd_round(state, NOW, order, ledger)
            out[fastcore] = (
                [(fid, rate.hex()) for fid, rate in allocation.rates.items()],
                allocation.scheduled_coflows,
                allocation.work_conserved_coflows,
                [used.hex() for used in ledger.used_list],
                ledger.touched_set,
            )
        assert out[True] == out[False], f"trial {trial}"
        _, scheduled, conserved, used, _ = out[False]
        seen["scheduled"] += bool(scheduled)
        seen["blocked"] += any(
            state.schedulable_rows(c, NOW) and c.coflow_id not in scheduled
            for c in order
        )
        seen["conserved"] += bool(conserved)
        seen["gated"] += any(
            state.respect_availability and f.finish_time is None
            and f.available_time > NOW
            for c in order for f in c.flows
        )
        if state.topology is not None:
            cap = state.make_ledger().capacity_list
            seen["core_full"] += any(
                float.fromhex(used[link]) >= cap[link]
                for link in state.topology.core_links()
            )
    # The trials really reach every branch: admitted coflows, coflows MADD
    # left out, positive backfill grants and availability-gated rows.
    assert all(seen[k] > 20
               for k in ("scheduled", "blocked", "conserved", "gated"))
    if fabric_kind == "leafspine":
        assert seen["core_full"] > 20


@needs_core
def test_compiled_gammas_match_python_gammas():
    rng = random.Random(77)
    varys = VarysSebfScheduler(SimulationConfig(port_rate=1e6))
    seen = {"inf": 0, "no_unfinished": 0, "clamped": 0, "leafspine": 0}
    for trial in range(400):
        kind = rng.choice(["bigswitch", "leafspine"])
        state = _random_state(rng, kind)
        table = state.table
        coflows = list(state.active_coflows)
        lcap = state.make_ledger().capacity_list
        expected = [varys._compute_gamma(c, state, lcap).hex()
                    for c in coflows]
        rows_of = state.pending_row_map
        cols = (table.finish_time, table.volume, table.bytes_sent,
                table.src, table.dst, lcap)
        got = _fastcore.core.sebf_gammas(
            [rows_of[c.coflow_id] for c in coflows], *cols)
        assert [g.hex() for g in got] == expected, f"trial {trial}"
        # Over every row, finished ones included, the kernel must skip
        # the finished rows as the pending list leaves them out.
        every_row = _fastcore.core.sebf_gammas([c._rows for c in coflows],
                                               *cols)
        assert [g.hex() for g in every_row] == expected, f"trial {trial}"
        if not state.capacity_override:
            # The homogeneous shortcut Γ once took, max(load) / port_rate,
            # is the same float: division by a positive constant is
            # monotone.
            for c, gamma in zip(coflows, got):
                load: dict[int, float] = {}
                for i in rows_of[c.coflow_id]:
                    if table.finish_time[i] is None:
                        left = max(table.volume[i] - table.bytes_sent[i], 0.0)
                        for port in (table.src[i], table.dst[i]):
                            load[port] = load.get(port, 0.0) + left
                shortcut = max(load.values()) / 1e6 if load else 0.0
                assert gamma == shortcut, f"trial {trial}"
        seen["inf"] += any(g == math.inf for g in got)
        seen["no_unfinished"] += any(
            all(table.finish_time[i] is not None
                for i in rows_of[c.coflow_id])
            for c in coflows
        )
        seen["clamped"] += any(
            table.finish_time[i] is None
            and table.volume[i] < table.bytes_sent[i]
            for rows in rows_of.values() for i in rows
        )
        seen["leafspine"] += kind == "leafspine"
    assert all(v > 20 for v in seen.values()), seen


@needs_core
def test_compiled_schedule_matches_python_schedule():
    """The whole Varys round: Γ, the SEBF sort and MADD with backfill."""
    rng = random.Random(31)
    for trial in range(200):
        state = _random_state(rng, rng.choice(["bigswitch", "leafspine"]))
        varys = VarysSebfScheduler(SimulationConfig(port_rate=1e6))
        out = {}
        for fastcore in (False, True):
            state.table.fastcore = fastcore
            allocation = varys.schedule(state, NOW)
            out[fastcore] = (
                [(fid, rate.hex()) for fid, rate in allocation.rates.items()],
                allocation.scheduled_coflows,
                allocation.work_conserved_coflows,
            )
        assert out[True] == out[False], f"trial {trial}"
