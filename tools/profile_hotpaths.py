#!/usr/bin/env python3
"""cProfile harness over a Fig. 9 slice, for attributing engine hot paths.

Runs one policy × trace simulation (the same workloads and δ = 8 ms
configuration the Fig. 9 benchmark uses) under cProfile and prints the top
functions, so a perf win — or regression — can be attributed to the code
that caused it instead of eyeballed from end-to-end wall clock.

Usage::

    PYTHONPATH=src python tools/profile_hotpaths.py                # saath/fb
    PYTHONPATH=src python tools/profile_hotpaths.py --policy uc-tcp \\
        --trace osp-like --scale small --sort cumulative --top 25
    PYTHONPATH=src python tools/profile_hotpaths.py --all          # 4 policies
    PYTHONPATH=src python tools/profile_hotpaths.py --cells        # cell table
    PYTHONPATH=src python tools/profile_hotpaths.py --phases       # phase timers

The ``--no-incremental`` / ``--no-fastcore`` flags profile the reference
oracle and the pure-Python path, which is how the compiled-core win was
measured: profile both, diff the per-function tottime.

``--cells`` skips cProfile and instead times every (trace × policy) cell
of the Fig. 9 grid end-to-end (median of ``--runs``), printing a table
sorted slowest-first — the figure-level view that tells you *which* cell
to drill into with the cProfile mode. This is how the "osp-like/uc-tcp
and osp-like/aalo dominate the wall clock" claims are reproduced.

``--phases`` replaces cProfile with the engine's lightweight
:class:`~repro.observability.PhaseTimers` — per-phase (lookout / advance /
completions / events / schedule / apply) wall-time breakdowns that span
the fastcore boundary without cProfile's per-call overhead distorting
compiled-vs-Python comparisons. Composes with ``--cells`` to print a
phase breakdown under every cell.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time

from repro.config import PAPER_SYNC_INTERVAL, SimulationConfig
from repro.experiments.common import ExperimentScale, fb_spec_for, osp_spec_for
from repro.observability import PhaseTimers
from repro.schedulers.registry import available_policies, make_scheduler
from repro.simulator.engine import run_policy
from repro.simulator.flows import clone_coflows
from repro.workloads.synthetic import WorkloadGenerator

#: The Fig. 9 comparison set — the policies worth profiling by default.
FIG9_POLICIES = ("saath", "aalo", "varys-sebf", "uc-tcp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="profile engine hot paths on a Fig. 9 workload slice"
    )
    parser.add_argument("--policy", default="saath",
                        choices=available_policies())
    parser.add_argument("--all", action="store_true",
                        help="profile every Fig. 9 policy in sequence")
    parser.add_argument("--trace", default="fb-like",
                        choices=["fb-like", "osp-like"])
    parser.add_argument("--scale", default="small",
                        choices=[s.value for s in ExperimentScale])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sync-ms", type=float,
                        default=PAPER_SYNC_INTERVAL * 1e3,
                        help="coordinator sync interval in ms (default 8)")
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumulative", "ncalls"])
    parser.add_argument("--top", type=int, default=20,
                        help="number of rows to print per policy")
    parser.add_argument("--no-incremental", action="store_true",
                        help="profile the full-recompute reference oracle")
    parser.add_argument("--no-fastcore", action="store_true",
                        help="profile the pure-Python path even when the "
                             "repro._fastcore extension is built")
    parser.add_argument("--cells", action="store_true",
                        help="skip cProfile; time every (trace x policy) "
                             "Fig. 9 cell and print a slowest-first table")
    parser.add_argument("--runs", type=int, default=3,
                        help="repetitions per cell in --cells mode "
                             "(median is reported; default 3)")
    parser.add_argument("--phases", action="store_true",
                        help="report engine phase-timer breakdowns "
                             "(lookout/advance/completions/events/"
                             "schedule/apply) instead of cProfile; "
                             "composes with --cells")
    return parser


def profile_one(policy: str, coflows, fabric, config: SimulationConfig,
                *, sort: str, top: int) -> None:
    profiler = cProfile.Profile()
    wall = time.perf_counter()
    profiler.enable()
    result = run_policy(
        make_scheduler(policy, config), clone_coflows(coflows), fabric,
        config,
    )
    profiler.disable()
    wall = time.perf_counter() - wall
    print(f"\n=== {policy}: {len(result.coflows)} coflows, "
          f"{result.reschedules} reschedules, {wall:.2f}s wall ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(sort).print_stats(top)


def profile_phases_one(policy: str, coflows, fabric,
                       config: SimulationConfig) -> None:
    """One policy run under phase timers (no cProfile overhead)."""
    timers = PhaseTimers()
    result = run_policy(
        make_scheduler(policy, config), clone_coflows(coflows), fabric,
        config, timers=timers,
    )
    print(f"\n=== {policy}: {len(result.coflows)} coflows, "
          f"{result.reschedules} reschedules ===")
    print(timers.report())


def profile_cells(config: SimulationConfig, scale: ExperimentScale,
                  seed: int, runs: int, phases: bool = False) -> None:
    """Time every (trace x policy) Fig. 9 cell, slowest first.

    Uses wall-clock medians rather than cProfile (profiler overhead skews
    C-extension vs bytecode comparisons); each cell is one full
    ``run_policy`` simulation on the shared Fig. 9 workloads.
    """
    from repro import _fastcore

    cells: list[tuple[str, str, float, int, "PhaseTimers | None"]] = []
    for trace, spec_for in (("fb-like", fb_spec_for), ("osp-like", osp_spec_for)):
        spec = spec_for(scale)
        fabric = spec.make_fabric()
        trace_seed = seed if trace == "fb-like" else 11
        coflows = WorkloadGenerator(
            spec, seed=trace_seed
        ).generate_coflows(fabric)
        for policy in FIG9_POLICIES:
            walls = []
            reschedules = 0
            merged = PhaseTimers() if phases else None
            for _ in range(runs):
                timers = PhaseTimers() if phases else None
                start = time.perf_counter()
                result = run_policy(
                    make_scheduler(policy, config), clone_coflows(coflows),
                    fabric, config, timers=timers,
                )
                walls.append(time.perf_counter() - start)
                reschedules = result.reschedules
                if merged is not None:
                    merged.merge(timers)
            cells.append((trace, policy,
                          statistics.median(walls), reschedules, merged))
    cells.sort(key=lambda c: c[2], reverse=True)
    total = sum(c[2] for c in cells)
    active = config.fastcore and _fastcore.AVAILABLE
    print(f"\nFig. 9 cells, slowest first (median of {runs}, "
          f"fastcore={'on' if active else 'off'}):")
    print(f"{'cell':<24} {'median_s':>9} {'share':>7} {'reschedules':>12}")
    for trace, policy, wall, reschedules, _ in cells:
        print(f"{trace + '/' + policy:<24} {wall:>9.3f} "
              f"{wall / total:>6.1%} {reschedules:>12}")
    print(f"{'total':<24} {total:>9.3f}")
    if phases:
        for trace, policy, _, _, merged in cells:
            print(f"\n-- {trace}/{policy} phases (all {runs} run(s)) --")
            print(merged.report())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    scale = ExperimentScale(args.scale)
    config = SimulationConfig(
        sync_interval=args.sync_ms * 1e-3,
        incremental=not args.no_incremental,
        fastcore=not args.no_fastcore,
    )
    if args.cells:
        profile_cells(config, scale, args.seed, max(1, args.runs),
                      phases=args.phases)
        return 0
    spec = (fb_spec_for(scale) if args.trace == "fb-like"
            else osp_spec_for(scale))
    fabric = spec.make_fabric()
    coflows = WorkloadGenerator(spec, seed=args.seed).generate_coflows(fabric)
    print(f"trace={args.trace} scale={scale.value} "
          f"machines={spec.num_machines} coflows={len(coflows)} "
          f"sync={args.sync_ms}ms "
          f"incremental={config.incremental} fastcore={config.fastcore}")
    policies = FIG9_POLICIES if args.all else (args.policy,)
    for policy in policies:
        if args.phases:
            profile_phases_one(policy, coflows, fabric, config)
        else:
            profile_one(policy, coflows, fabric, config,
                        sort=args.sort, top=args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
