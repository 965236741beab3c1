"""Bench: regenerate Fig. 9 — Saath vs SEBF / Aalo / UC-TCP (§6.1)."""

from repro.experiments import fig9_speedup
from repro.experiments.common import ExperimentScale

from conftest import attach_and_print


def test_fig9_speedup(benchmark, scale):
    result = benchmark.pedantic(
        fig9_speedup.run, kwargs={"scale": scale}, rounds=1, iterations=1,
    )
    attach_and_print(benchmark, fig9_speedup.render(result))
    # Engine-generation wall clocks on the 1-CPU reference box (SMALL
    # scale), for readers of the committed BENCH_fig9.json artifact.
    benchmark.extra_info["engine_trajectory"] = (
        "fig9 SMALL end-to-end: seed ~14.3s -> incremental core (PR 1) "
        "~6.5s -> allocation-epoch engine (PR 2) ~4.3s -> flat flow-table "
        "kernel (PR 3) ~3.4s -> compiled _fastcore kernels (PR 8) ~1.7s; "
        "byte-identical output across generations (later changes are "
        "measured per workload and layer by layerbench/)"
    )

    contended = scale is not ExperimentScale.TINY
    for trace, by_baseline in result.summaries.items():
        aalo = by_baseline["aalo"]
        uctcp = by_baseline["uc-tcp"]
        sebf = by_baseline["varys-sebf"]
        # Who wins: Saath beats Aalo, crushes UC-TCP under contention, and
        # is in the same league as the offline SEBF.
        assert aalo.p50 >= 1.0
        assert aalo.p90 > aalo.p50  # long right tail, as in the paper
        assert sebf.p50 > 0.3
        if contended:
            # The two-orders-of-magnitude UC-TCP gap needs a loaded
            # cluster; the TINY smoke workload is barely contended (and
            # without contention UC-TCP can even beat Aalo's weighted
            # sharing, so the ordering assertions only hold here).
            assert uctcp.p50 >= aalo.p50 * 0.95
            assert aalo.p50 > 1.0
            assert uctcp.p90 > 5.0
