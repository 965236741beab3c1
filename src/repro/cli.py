"""Command-line interface: ``saath-repro``.

Sub-commands:

* ``policies`` — list the registered scheduling policies.
* ``experiments`` — list the reproducible paper tables/figures.
* ``run-experiment <id>`` — run one experiment and print its rendering
  (``--scale tiny|small|paper``; ``--jobs``/``--cache-dir`` configure the
  sweep runner's process fan-out and result cache).
* ``simulate`` — run one policy on a trace file or a synthetic workload and
  print CCT statistics (``--policy``, ``--trace``/``--synthetic``;
  ``--no-incremental`` selects the full-recompute scheduling path;
  ``--streaming`` drives the run through a lazily-pulled scenario stream;
  ``--topology leaf-spine --oversub 4`` simulates an oversubscribed
  leaf–spine fabric instead of the paper's big switch; ``--checkpoint
  PATH`` writes durable session checkpoints as the run progresses and
  ``--resume-from PATH`` continues one — the resumed run finishes
  byte-identical to an uninterrupted one).
* ``sweep`` — run a policy × seed grid through the parallel sweep runner
  and print per-run mean/median CCTs plus cache statistics
  (``--retries``/``--run-timeout``/``--strict`` tune the fault-tolerant
  runner; ``--sweep-log`` appends JSON-lines per-run telemetry).
* ``gen-trace`` — emit a synthetic workload in coflow-benchmark format.

``Ctrl-C`` exits with status 130 after printing a partial-results summary;
finished sweep runs are already persisted, so re-running resumes from the
cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis.metrics import DistributionSummary
from .observability import (
    FORMATS,
    MetricsRegistry,
    Tracer,
    aggregate_metrics,
)
from .config import SimulationConfig
from .errors import ReproError, SweepInterrupted
from .experiments import runner as sweep_runner
from .experiments.common import ExperimentScale
from .experiments.registry import (
    available_experiments,
    get_experiment,
    run_and_render,
)
from .experiments.runner import RunSpec, WorkloadSpec, collective_spec
from .resilience import RetryPolicy
from .schedulers.registry import available_policies, make_scheduler
from .simulator.engine import run_policy, run_scenario
from .simulator.fabric import Fabric
from .simulator.scenario import Scenario
from .simulator.session import SessionSnapshot, SimulationSession
from .simulator.topology import PATH_SELECTORS, TopologySpec
from .units import MB, MSEC
from .workloads.collectives import PATTERNS, collective_jobs
from .workloads.synthetic import (
    WorkloadGenerator,
    fb_like_spec,
    osp_like_spec,
)
from .workloads.traces import dump_trace, load_trace, trace_to_coflows


def _add_topology_args(parser: argparse.ArgumentParser) -> None:
    """Fabric-topology knobs shared by ``simulate`` and ``sweep``."""
    parser.add_argument("--topology", choices=["big-switch", "leaf-spine"],
                        default="big-switch",
                        help="fabric model (default: the paper's "
                             "non-blocking big switch)")
    parser.add_argument("--oversub", type=float, default=1.0,
                        help="leaf-spine oversubscription ratio (rack edge "
                             "bandwidth / fabric bandwidth; default 1)")
    parser.add_argument("--racks", type=int, default=None,
                        help="number of racks (default: ~sqrt(machines))")
    parser.add_argument("--spines", type=int, default=None,
                        help="number of spine switches (default: 2)")
    parser.add_argument("--path-select", choices=list(PATH_SELECTORS),
                        default="ecmp",
                        help="cross-rack path selector (default: ecmp)")


def _topology_spec(args: argparse.Namespace) -> TopologySpec | None:
    """Build the topology spec from CLI args; None = big-switch default."""
    if args.topology == "big-switch":
        if (args.oversub != 1.0 or args.racks is not None
                or args.spines is not None or args.path_select != "ecmp"):
            raise ReproError(
                "--oversub/--racks/--spines/--path-select require "
                "--topology leaf-spine"
            )
        return None
    return TopologySpec(
        kind="leaf-spine",
        oversub=args.oversub,
        racks=args.racks,
        spines=args.spines,
        path_select=args.path_select,
    )


def _add_collective_args(parser: argparse.ArgumentParser) -> None:
    """Collective-workload knobs shared by ``simulate`` and ``sweep``."""
    parser.add_argument("--pattern", choices=list(PATTERNS), default="ring",
                        help="collective pattern (default: ring all-reduce)")
    parser.add_argument("--workers", type=int, default=8,
                        help="training workers (one machine each)")
    parser.add_argument("--iterations", type=int, default=2,
                        help="training iterations per job")
    parser.add_argument("--volume-mb", type=float, default=64.0,
                        help="per-worker gradient volume in MB")
    parser.add_argument("--servers", type=int, default=2,
                        help="parameter servers (ps pattern only)")
    parser.add_argument("--train-jobs", type=int, default=1,
                        help="number of training jobs sharing the fabric")
    parser.add_argument("--placement", choices=["packed", "spread"],
                        default="packed",
                        help="worker placement across racks")
    parser.add_argument("--placement-racks", type=int, default=1,
                        help="rack count the placement assumes (match "
                             "--racks when using a leaf-spine topology)")
    parser.add_argument("--compute-gap-ms", type=float, default=0.0,
                        help="idealised per-iteration compute floor")
    parser.add_argument("--arrival-gap", type=float, default=0.0,
                        help="mean inter-arrival gap between jobs (s)")


def _collective_kwargs(args: argparse.Namespace) -> dict:
    """Generator kwargs shared by the simulate/sweep collective paths."""
    return dict(
        pattern=args.pattern,
        workers=args.workers,
        iterations=args.iterations,
        volume=args.volume_mb * MB,
        jobs=args.train_jobs,
        servers=args.servers if args.pattern == "ps" else 0,
        racks=args.placement_racks,
        placement=args.placement,
        compute_gap=args.compute_gap_ms * MSEC,
        arrival_gap=args.arrival_gap,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saath-repro",
        description="Saath (CoNEXT 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list scheduling policies")
    sub.add_parser("experiments", help="list paper experiments")

    run_exp = sub.add_parser("run-experiment", help="reproduce a figure/table")
    run_exp.add_argument("exp_id", choices=available_experiments())
    run_exp.add_argument(
        "--scale", choices=[s.value for s in ExperimentScale],
        default=ExperimentScale.SMALL.value,
    )
    run_exp.add_argument("--jobs", type=int, default=None,
                         help="parallel worker processes for the sweep "
                              "runner (default: REPRO_RUNNER_JOBS or 1)")
    run_exp.add_argument("--cache-dir", type=Path, default=None,
                         help="directory for per-run result caching")

    simulate = sub.add_parser("simulate", help="run one policy on a workload")
    simulate.add_argument("--policy", default="saath",
                          choices=available_policies())
    source = simulate.add_mutually_exclusive_group()
    source.add_argument("--trace", type=Path,
                        help="coflow-benchmark trace file")
    source.add_argument("--synthetic", choices=["fb-like", "osp-like"],
                        default="fb-like")
    source.add_argument("--workload", choices=["collective"],
                        help="structured workload family (collective "
                             "training jobs; see --pattern and friends)")
    simulate.add_argument("--machines", type=int, default=50)
    simulate.add_argument("--coflows", type=int, default=150)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--sync-interval-ms", type=float, default=0.0)
    simulate.add_argument("--no-incremental", action="store_true",
                          help="run the full-recompute reference oracle "
                               "(slower; results are identical)")
    simulate.add_argument("--no-fastcore", action="store_true",
                          help="disable the compiled C hot-loop kernels "
                               "(slower; results are identical)")
    simulate.add_argument("--streaming", action="store_true",
                          help="feed the workload through a lazily-pulled "
                               "scenario stream instead of a materialised "
                               "batch (results are identical; open-loop "
                               "generators run in O(active) memory)")
    simulate.add_argument("--checkpoint", type=Path, default=None,
                          help="write a durable session checkpoint to this "
                               "path as the run progresses (each save "
                               "atomically replaces the last)")
    simulate.add_argument("--checkpoint-every", type=float, default=None,
                          help="checkpoint cadence in simulated seconds "
                               "(default: 1.0 when --checkpoint is given)")
    simulate.add_argument("--resume-from", type=Path, default=None,
                          help="resume a run from a checkpoint file; "
                               "workload flags are ignored (the checkpoint "
                               "carries the full session)")
    simulate.add_argument("--trace-out", type=Path, default=None,
                          help="write a structured event trace of the run "
                               "to this path (instrumentation is read-only: "
                               "results are byte-identical either way)")
    simulate.add_argument("--trace-format", choices=list(FORMATS),
                          default="jsonl",
                          help="trace file format: jsonl (one event per "
                               "line) or chrome (trace_event JSON, "
                               "viewable in Perfetto / chrome://tracing)")
    simulate.add_argument("--metrics", type=Path, default=None,
                          help="write the run's metrics registry (counters/"
                               "gauges/summaries) as JSON to this path")
    _add_collective_args(simulate)
    _add_topology_args(simulate)

    sweep = sub.add_parser(
        "sweep", help="run a policy x seed grid through the sweep runner"
    )
    sweep.add_argument("--policy", nargs="+", default=["saath"],
                       choices=available_policies())
    sweep.add_argument("--family",
                       choices=["fb-like", "osp-like", "collective"],
                       default="fb-like")
    sweep.add_argument("--machines", type=int, default=50)
    sweep.add_argument("--coflows", type=int, default=150)
    sweep.add_argument("--seed", type=int, default=7,
                       help="first workload seed")
    sweep.add_argument("--seeds", type=int, default=1,
                       help="number of seeds to fan out (seed, seed+1, ...)")
    sweep.add_argument("--sync-interval-ms", type=float, default=0.0)
    sweep.add_argument("--jobs", type=int, default=None)
    sweep.add_argument("--cache-dir", type=Path, default=None)
    sweep.add_argument("--no-incremental", action="store_true")
    sweep.add_argument("--no-fastcore", action="store_true")
    sweep.add_argument("--retries", type=int, default=None,
                       help="max attempts per run before it is reported as "
                            "failed (default: 3)")
    sweep.add_argument("--run-timeout", type=float, default=None,
                       help="per-run wall-clock deadline in seconds; hung "
                            "pool workers are killed and the run retried")
    sweep.add_argument("--strict", action="store_true",
                       help="fail fast on the first run that exhausts its "
                            "retry budget (default: report it and continue)")
    sweep.add_argument("--sweep-log", type=Path, default=None,
                       help="append JSON-lines per-run telemetry to this "
                            "file (default: REPRO_SWEEP_LOG)")
    sweep.add_argument("--metrics-dir", type=Path, default=None,
                       help="collect a per-run metrics registry for every "
                            "executed spec into this directory, plus an "
                            "aggregate.json rollup (includes sweep-level "
                            "retry/cache counters)")
    _add_collective_args(sweep)
    _add_topology_args(sweep)

    gen = sub.add_parser("gen-trace", help="emit a synthetic trace")
    gen.add_argument("--family", choices=["fb-like", "osp-like"],
                     default="fb-like")
    gen.add_argument("--machines", type=int, default=50)
    gen.add_argument("--coflows", type=int, default=150)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--output", type=Path, default=None)
    return parser


def _cmd_sweep(args: argparse.Namespace) -> str:
    config = SimulationConfig(
        sync_interval=args.sync_interval_ms * MSEC,
        incremental=not args.no_incremental,
        fastcore=not args.no_fastcore,
    )
    retry = None
    if args.retries is not None or args.run_timeout is not None:
        retry_kwargs = {}
        if args.retries is not None:
            retry_kwargs["max_attempts"] = args.retries
        if args.run_timeout is not None:
            retry_kwargs["timeout"] = args.run_timeout
        retry = RetryPolicy(**retry_kwargs)
    runner = sweep_runner.configure(
        jobs=args.jobs, cache_dir=args.cache_dir, retry=retry,
        strict=args.strict, log_path=args.sweep_log,
    )
    if args.family == "collective":
        base = collective_spec(machines=args.machines, seed=args.seed,
                               **_collective_kwargs(args))
    else:
        base = WorkloadSpec(family=args.family, machines=args.machines,
                            coflows=args.coflows, seed=args.seed)
    topo_spec = _topology_spec(args)
    encoded_topology = topo_spec.encode() if topo_spec is not None else ()
    specs = [
        spec
        for policy in args.policy
        for spec in sweep_runner.fan_out_seeds(
            RunSpec(policy=policy, workload=base, config=config,
                    topology=encoded_topology),
            range(args.seed, args.seed + args.seeds),
        )
    ]
    if args.metrics_dir is not None:
        # Per-run collection rides an env var so pool workers (separate
        # processes) see it too; restored afterwards to avoid leaking into
        # in-process callers (tests drive main() directly).
        args.metrics_dir.mkdir(parents=True, exist_ok=True)
        os.environ[sweep_runner.METRICS_ENV] = "1"
    try:
        outcomes = runner.run(specs)
    finally:
        if args.metrics_dir is not None:
            os.environ.pop(sweep_runner.METRICS_ENV, None)
    lines = [f"{'policy':>14s} {'seed':>6s} {'mean CCT':>10s} "
             f"{'P50 CCT':>10s} {'makespan':>10s} {'cached':>6s}"]
    failed = 0
    for out in outcomes:
        if out.failed:
            failed += 1
            lines.append(
                f"{out.spec.policy:>14s} {out.spec.workload.seed:>6d} "
                f"FAILED ({out.kind}) after {len(out.attempts)} attempt(s): "
                f"{out.error}"
            )
            continue
        summary = DistributionSummary.of(list(out.ccts.values()))
        lines.append(
            f"{out.spec.policy:>14s} {out.spec.workload.seed:>6d} "
            f"{summary.mean:>10.4f} {summary.p50:>10.4f} "
            f"{out.makespan:>10.4f} {'yes' if out.from_cache else 'no':>6s}"
        )
    if failed:
        lines.append(
            f"{failed} of {len(outcomes)} runs failed after retries "
            f"(rerun to retry; finished runs are cached)"
        )
    if runner.cache is not None:
        quarantined = (
            f", {runner.cache.quarantined} quarantined"
            if runner.cache.quarantined else ""
        )
        lines.append(
            f"cache: {runner.cache.hits} hits, {runner.cache.misses} misses"
            f"{quarantined} ({runner.cache.directory})"
        )
    if args.metrics_dir is not None:
        parts = []
        for out in outcomes:
            if out.failed or out.metrics is None:
                # Cached entries from a pre-metrics sweep carry no payload.
                continue
            name = (f"{out.spec.policy}-seed{out.spec.workload.seed}-"
                    f"{out.spec.cache_key()[:12]}.json")
            registry = MetricsRegistry.from_dict(out.metrics)
            registry.save(str(args.metrics_dir / name))
            parts.append(registry)
        rollup = aggregate_metrics(parts)
        rollup.merge(runner.metrics)
        rollup.save(str(args.metrics_dir / "aggregate.json"))
        lines.append(
            f"metrics: {len(parts)} run payload(s) + aggregate.json "
            f"({args.metrics_dir})"
        )
    return "\n".join(lines)


def _summarize_result(policy: str, topology, result) -> str:
    summary = DistributionSummary.of([c.cct() for c in result.coflows])
    return "\n".join([
        f"policy: {policy}",
        f"topology: {topology if topology is not None else 'big-switch'}",
        f"coflows finished: {summary.count}",
        f"CCT mean: {summary.mean:.4f} s",
        f"CCT p10/p50/p90: {summary.p10:.4f} / {summary.p50:.4f} / "
        f"{summary.p90:.4f} s",
        f"makespan: {result.makespan:.4f} s",
        f"schedule computations: {result.reschedules}",
    ])


def _instrumentation(args: argparse.Namespace,
                     policy: str) -> tuple[Tracer | None,
                                           MetricsRegistry | None]:
    """(tracer, metrics) from the simulate flags; both None when off."""
    tracer = None
    if args.trace_out is not None:
        tracer = Tracer(str(args.trace_out), format=args.trace_format,
                        metadata={"policy": policy})
    metrics = MetricsRegistry() if args.metrics is not None else None
    return tracer, metrics


def _finish_instrumentation(args: argparse.Namespace, summary: str,
                            tracer: Tracer | None,
                            metrics: MetricsRegistry | None) -> str:
    lines = [summary]
    if tracer is not None:
        tracer.close()
        lines.append(f"trace: {tracer.events} events -> {args.trace_out} "
                     f"({args.trace_format})")
    if metrics is not None:
        metrics.save(str(args.metrics))
        lines.append(f"metrics: {args.metrics}")
    return "\n".join(lines)


def _cmd_simulate(args: argparse.Namespace) -> str:
    ckpt_every = args.checkpoint_every
    if args.checkpoint is not None and ckpt_every is None:
        ckpt_every = 1.0
    if ckpt_every is not None and args.checkpoint is None:
        raise ReproError("--checkpoint-every requires --checkpoint PATH")
    if args.resume_from is not None:
        # The checkpoint carries the full session (fabric, scheduler,
        # config, scenario tail); workload flags are ignored. Checkpoints
        # never embed instrumentation, so it is (re)attached here.
        snap = SessionSnapshot.load(args.resume_from)
        session = SimulationSession.restore(snap)
        tracer, metrics = _instrumentation(args, snap.policy)
        session.attach_instrumentation(tracer=tracer, metrics=metrics)
        result = session.run(
            checkpoint_every=ckpt_every, checkpoint_path=args.checkpoint
        )
        summary = _summarize_result(snap.policy, session.topology, result)
        return _finish_instrumentation(args, summary, tracer, metrics)
    config = SimulationConfig(
        sync_interval=args.sync_interval_ms * MSEC,
        incremental=not args.no_incremental,
        fastcore=not args.no_fastcore,
    )
    if args.trace is not None:
        trace = load_trace(args.trace)
        fabric = Fabric(num_machines=trace.num_ports,
                        port_rate=config.port_rate)
        coflows = trace_to_coflows(trace, fabric)
    elif args.workload == "collective":
        fabric = Fabric(num_machines=args.machines,
                        port_rate=config.port_rate)
        jobs = collective_jobs(fabric, seed=args.seed,
                               **_collective_kwargs(args))
        coflows = [c for job in jobs for c in job]
    else:
        spec_fn = fb_like_spec if args.synthetic == "fb-like" else osp_like_spec
        spec = spec_fn(num_machines=args.machines, num_coflows=args.coflows)
        fabric = spec.make_fabric()
        coflows = WorkloadGenerator(spec, seed=args.seed).generate_coflows(
            fabric
        )

    scheduler = make_scheduler(args.policy, config)
    topo_spec = _topology_spec(args)
    topology = topo_spec.build(fabric) if topo_spec is not None else None
    tracer, metrics = _instrumentation(args, args.policy)
    if args.streaming:
        if args.checkpoint is not None:
            raise ReproError(
                "--checkpoint requires a replayable scenario; the "
                "--streaming path feeds a one-shot iterator that cannot "
                "be snapshotted"
            )
        ordered = sorted(coflows, key=lambda c: c.arrival_time)
        scenario = Scenario.from_stream(
            iter(ordered), total_coflows=len(ordered)
        )
        result = run_scenario(scheduler, scenario, fabric, config,
                              topology=topology, tracer=tracer,
                              metrics=metrics)
    elif args.checkpoint is not None:
        # Checkpointing needs the session surface; Scenario.from_coflows is
        # exactly what run_policy attaches, so results stay byte-identical.
        session = SimulationSession(
            fabric, scheduler, config,
            scenario=Scenario.from_coflows(coflows), topology=topology,
            tracer=tracer, metrics=metrics,
        )
        result = session.run(
            checkpoint_every=ckpt_every, checkpoint_path=args.checkpoint
        )
    else:
        result = run_policy(scheduler, coflows, fabric, config,
                            topology=topology, tracer=tracer,
                            metrics=metrics)
    summary = _summarize_result(args.policy, topology, result)
    return _finish_instrumentation(args, summary, tracer, metrics)


def _cmd_gen_trace(args: argparse.Namespace) -> str:
    spec_fn = fb_like_spec if args.family == "fb-like" else osp_like_spec
    spec = spec_fn(num_machines=args.machines, num_coflows=args.coflows)
    trace = WorkloadGenerator(spec, seed=args.seed).generate_trace()
    text = dump_trace(trace)
    if args.output is not None:
        args.output.write_text(text)
        return f"wrote {len(trace)} coflows to {args.output}"
    return text


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "policies":
            print("\n".join(available_policies()))
        elif args.command == "experiments":
            for exp_id in available_experiments():
                print(f"{exp_id}: {get_experiment(exp_id).description}")
        elif args.command == "run-experiment":
            if args.jobs is not None or args.cache_dir is not None:
                sweep_runner.configure(jobs=args.jobs,
                                       cache_dir=args.cache_dir)
            print(run_and_render(args.exp_id, ExperimentScale(args.scale)))
        elif args.command == "simulate":
            print(_cmd_simulate(args))
        elif args.command == "sweep":
            print(_cmd_sweep(args))
        elif args.command == "gen-trace":
            print(_cmd_gen_trace(args))
    except SweepInterrupted as exc:
        # Distinct exit status (128 + SIGINT) so drivers can tell "user
        # stopped it" from "it failed"; finished runs are already cached.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
