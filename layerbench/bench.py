#!/usr/bin/env python3
"""Layered benchmark of the Saath reproduction.

Run from the repository root:

    python3 layerbench/bench.py --workload NAME --seed N --seconds S --trace 0|1
        One run of one workload. Prints every metric by name with its unit,
        then, as the last line, a JSON object with the keys ``correct``,
        ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
        the end-to-end metrics, ``--trace 1`` the per-layer ones.
    python3 layerbench/bench.py [--reps R] [--seed N] [--trace 0|1] [--out F]
        Every workload, ``R`` repetitions interleaved round-robin, each run
        in a fresh child process. Writes medians, quartiles and every run
        to a JSON result file.
    python3 layerbench/bench.py compare A.json B.json
        Compares two result files metric by metric against the bounds in
        BENCHMARK.json.
    python3 layerbench/bench.py --write-reference
        Regenerates reference_fingerprints.json (seed 0, every workload).

The compiled core is built from source before anything is measured
(``tools/build_fastcore.py``, a no-op when the shared object is newer than
its source); a run exits non-zero if it is then unavailable, because the
pure-Python fallback is a different program. Simulation times are reported
in yardsticks, a fixed reference loop timed on the same CPU while the cells
run (``bench_yardstick.py``). See README.md.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from bench_yardstick import REFERENCE_S, Yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "layerbench"
REFERENCE = HERE / "reference_fingerprints.json"
WORKLOADS = ("fig9-bigswitch", "leafspine-oversub4", "collectives-dag",
             "testbed-dynamics")
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


class HarnessError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# ---- build and import ------------------------------------------------------


def prepare(require_fastcore: bool) -> dict:
    """Build the compiled core and put the program on ``sys.path``."""
    src = ROOT / "src"
    builder = ROOT / "tools" / "build_fastcore.py"
    if not (src / "repro").is_dir() or not builder.is_file():
        raise HarnessError(
            f"no program to benchmark under {ROOT}: expected src/repro and "
            f"tools/build_fastcore.py"
        )
    build_s = 0.0
    if require_fastcore:
        tmp = WORKDIR / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(builder), "--quiet"],
            env={**os.environ, "TMPDIR": str(tmp)}, timeout=600,
        )
        build_s = perf_counter() - t0
        if proc.returncode != 0:
            raise HarnessError("building repro._fastcore failed")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro import _fastcore

    if require_fastcore and not _fastcore.AVAILABLE:
        raise HarnessError("repro._fastcore is not importable after the build")
    return {"fastcore_build_s": build_s, "fastcore_built": _fastcore.AVAILABLE}


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Child side of :func:`measure_setup`: import the program, generate
    the workload, print the times and the inputs' fingerprint."""
    with Yardstick() as yardstick:
        t0 = perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import bench_layers  # noqa: F401  (the traced run's imports count)
        import bench_workloads as bw

        t1 = perf_counter()
        traces = bw.build_traces(workload, seed, smoke)
        t2 = perf_counter()
    print(json.dumps({"import_s": yardstick.in_units(t0, t1)[0],
                      "generate_s": yardstick.in_units(t1, t2)[0],
                      "setup_ys": yardstick.in_units(t0, t2)[1],
                      "inputs": bw.input_fingerprint(traces)}))


def measure_setup(workload: str, seed: int, smoke: bool = False) -> dict:
    """Set-up time, from a fresh interpreter to the workload generated.

    Measured SETUP_REPEATS times, each in its own interpreter so the import
    is cold in the module sense; every value is the median. ``setup_s`` is
    in seconds at the reference host's speed (yardsticks times
    ``REFERENCE_S``), so the host's load cancels as it does in ``wall_ys``;
    ``import_s`` and ``generate_s`` are the host's seconds.
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import bench; "
            f"bench.setup_probe({workload!r}, {seed}, {smoke})")
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise HarnessError(f"set-up of {workload} failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    if len({p["inputs"] for p in probes}) != 1:
        raise HarnessError(f"{workload}: set-up is not deterministic")
    return {
        "setup_s": statistics.median(p["setup_ys"] for p in probes)
        * REFERENCE_S,
        "import_s": statistics.median(p["import_s"] for p in probes),
        "generate_s": statistics.median(p["generate_s"] for p in probes),
        "inputs": probes[0]["inputs"],
    }


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


# ---- one run ---------------------------------------------------------------


class Outcomes:
    """Attempted and failed cell executions, with the reasons."""

    def __init__(self, reference: dict | None) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.first: dict[str, str] = {}
        self.ccts: dict[str, dict] = {}
        self._failed = set()
        #: cell name -> expected fingerprint, or None to skip the check.
        self._reference = reference

    @property
    def failed(self) -> int:
        return len(self._failed)

    def record(self, cell, result, exc) -> None:
        """Check one cell execution; ``result`` is None when it raised."""
        import bench_workloads as bw

        self.attempted += 1
        key = (cell.name, self.attempted)
        if exc is not None:
            self._fail(key, f"{cell.name}: raised {exc!r}")
            return
        ccts = result.ccts()
        problems = bw.check_cell(cell, ccts, result.coflows)
        fp = bw.cct_fingerprint(ccts)
        first = self.first.setdefault(cell.name, fp)
        self.ccts.setdefault(cell.name, ccts)
        if fp != first:
            problems.append("fingerprint differs from this cell's first run")
        if self._reference is not None:
            ref = self._reference.get(cell.name)
            if ref != fp:
                problems.append(f"fingerprint {fp[:12]} != reference "
                                f"{str(ref)[:12]}")
        for p in problems:
            self._fail(key, f"{cell.name}: {p}")

    def _fail(self, key, message: str) -> None:
        self._failed.add(key)
        self.problems.append(message)


def _timed_run(cell, config=None, **hooks):
    """``(start, end, result, exc)`` of one cell execution."""
    import bench_workloads as bw

    t0 = perf_counter()
    try:
        result = bw.run_cell(cell, config, **hooks)
        return t0, perf_counter(), result, None
    except Exception as exc:  # a failing cell is counted, not fatal
        return t0, perf_counter(), None, exc


def _speedup_p(outcomes: Outcomes, cells, q: float) -> float:
    """Pooled per-coflow CCT_aalo / CCT_saath at quantile ``q``."""
    ratios = []
    for cell in cells:
        if cell.policy != "saath":
            continue
        saath = outcomes.ccts.get(cell.name, {})
        aalo = outcomes.ccts.get(f"{cell.trace.name}/aalo", {})
        ratios += [aalo[c] / s for c, s in saath.items()
                   if c in aalo and s > 0]
    if not ratios:
        return 0.0
    ratios.sort()
    return ratios[min(len(ratios) - 1, int(q * len(ratios)))]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup: dict, smoke: bool = False,
            reference: dict | None = None) -> dict:
    """One run of ``workload``: ``{"result": <last line>, "details": ...}``.

    ``setup`` holds the set-up times (:func:`measure_setup`) and the build
    state (:func:`prepare`); when it carries the inputs' fingerprint, the
    inputs generated here must match it. Untraced, cells run round-robin
    until ``seconds`` have passed (at least one full pass) under a
    :class:`~bench_yardstick.Yardstick`, and each cell's time is the median
    of its executions in yardsticks. Traced, one untraced pass, one traced
    pass and one traced pass on the pure-Python kernels run instead.
    ``reference`` maps cell names to the expected CCT fingerprints, or is
    None to skip that check.
    """
    import bench_workloads as bw

    traces = bw.build_traces(workload, seed, smoke)
    if "inputs" in setup and bw.input_fingerprint(traces) != setup["inputs"]:
        raise HarnessError(f"{workload}: set-up is not deterministic")
    cells = bw.cells_of(traces)
    outcomes = Outcomes(reference)
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "smoke": smoke,
               "fastcore_built": setup["fastcore_built"]}
    if trace:
        metrics = _measure_layers(cells, outcomes, details)
        for name in ("import_s", "generate_s", "fastcore_build_s"):
            metrics[f"setup.{name}"] = (setup[name], "s")
    else:
        executions = []
        with Yardstick() as yardstick:
            start, i = perf_counter(), 0
            while i < len(cells) or perf_counter() - start < seconds:
                cell = cells[i % len(cells)]
                i += 1
                t0, t1, result, exc = _timed_run(cell)
                executions.append((cell.name, t0, t1))
                outcomes.record(cell, result, exc)
        runs = {c.name: {"seconds": [], "yardsticks": []} for c in cells}
        for name, t0, t1 in executions:
            secs, units = yardstick.in_units(t0, t1)
            runs[name]["seconds"].append(secs)
            runs[name]["yardsticks"].append(units)
        cost = {name: statistics.median(r["yardsticks"])
                for name, r in runs.items()}
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "wall_ys": (sum(cost.values()), "ys"),
        }
        for policy in bw.POLICIES:
            metrics[f"policy_wall_ys.{policy}"] = (
                sum(cost[c.name] for c in cells if c.policy == policy), "ys")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        for name, r in runs.items():
            r["fingerprint"] = outcomes.first.get(name)
        details["cells"] = runs
        details["wall_s"] = sum(statistics.median(r["seconds"])
                                for r in runs.values())
        details["yardstick_s"] = statistics.median(yardstick.durations)
        details["saath_vs_aalo"] = {
            "p50": _speedup_p(outcomes, cells, 0.5),
            "p90": _speedup_p(outcomes, cells, 0.9)}
    details["problems"] = outcomes.problems
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return {"result": result, "details": details}


def _measure_layers(cells, outcomes: Outcomes, details: dict) -> dict:
    """The traced run: per-layer metrics, fingerprints held fixed."""
    import bench_layers as bl
    from repro.experiments.common import default_experiment_config

    untraced_s = 0.0
    for cell in cells:
        t0, t1, result, exc = _timed_run(cell)
        untraced_s += t1 - t0
        outcomes.record(cell, result, exc)

    def traced_pass(config):
        total, by_cell, wall = bl.LayerProbe(), {}, 0.0
        for cell in cells:
            probe = bl.LayerProbe()
            with bl.allocators_timed(probe.wrapped):
                t0, t1, result, exc = _timed_run(
                    cell, config, metrics=probe.metrics,
                    timers=probe.session,
                    instrument=bl.scheduler_timed(probe.wrapped))
            wall += t1 - t0
            outcomes.record(cell, result, exc)
            total.merge(probe)
            by_cell[cell.name] = probe
        return total, by_cell, wall

    compiled = default_experiment_config()
    total, by_cell, traced_s = traced_pass(compiled)
    python, _, _ = traced_pass(compiled.with_updates(fastcore=False))
    metrics = total.layer_metrics()
    for family in bl.FAMILIES:
        c_s, py_s = total.family_seconds(family), python.family_seconds(family)
        metrics[f"alloc.{family}.python_s"] = (py_s, "s")
        metrics[f"alloc.{family}.c_speedup"] = (
            py_s / c_s if c_s else 0.0, "x")
    metrics["trace.overhead"] = (traced_s / untraced_s, "x")
    details["phase_shares_by_cell"] = {
        name: probe.phase_shares() for name, probe in by_cell.items()}
    details["fastcore_share_by_cell"] = {
        name: probe.fastcore_share() for name, probe in by_cell.items()}
    return metrics


# ---- reporting -------------------------------------------------------------


def print_run(run: dict) -> None:
    details, result = run["details"], run["result"]
    print(f"layerbench {details['workload']} seed={details['seed']} "
          f"trace={int(details['trace'])} "
          f"fastcore_built={details['fastcore_built']}")
    for name, cell in details.get("cells", {}).items():
        print(f"  cell {name:<26} runs={len(cell['seconds']):<3} "
              f"median {statistics.median(cell['seconds']):.4f} s, "
              f"{statistics.median(cell['yardsticks']):.1f} ys")
    if "yardstick_s" in details:
        print(f"  wall (sum of cell medians) {details['wall_s']:.4f} s; "
              f"yardstick median {details['yardstick_s'] * 1e3:.3f} ms")
    shares = details.get("phase_shares_by_cell", {})
    for name, by_phase in shares.items():
        top = sorted(by_phase.items(), key=lambda kv: -kv[1])[:3]
        print(f"  cell {name:<26} "
              + ", ".join(f"{p} {v:.0%}" for p, v in top)
              + f"; fastcore share "
              f"{details['fastcore_share_by_cell'][name]:.2f}")
    if "saath_vs_aalo" in details:
        ratio = details["saath_vs_aalo"]
        print(f"  per-coflow CCT aalo/saath: p50 {ratio['p50']:.4g}, "
              f"p90 {ratio['p90']:.4g}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  cells attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for problem in details["problems"][:20]:
        print(f"  FAILED {problem}")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs: list) -> dict:
    """Median, quartiles and count of every metric over ``runs``."""
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = _quartiles(values)
        out[name] = {"unit": first["unit"], "n": len(values),
                     "median": median, "q1": q1, "q3": q3,
                     "values": values}
    return out


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} is missing")
    return json.loads(path.read_text())


# ---- every workload --------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    """One run in a fresh interpreter; returns its result and details."""
    detail = WORKDIR / f"run-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(detail)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=900)
    if proc.returncode != 0:
        raise HarnessError(
            f"{workload} seed {seed} trace {trace}: exited {proc.returncode}")
    run = json.loads(detail.read_text())
    detail.unlink()
    result = run["result"]
    headline = "wall_ys" if not trace else "trace.overhead"
    print(f"  {workload:<20} seed={seed:<4} trace={trace} "
          f"{headline}={result['metrics'][headline]['value']:.4f} "
          f"correct={result['correct']}", flush=True)
    return run


def suite(args, seconds: float) -> int:
    """Every workload, repetitions interleaved round-robin (ABCD ABCD ...)
    so slow drift on the host hits every workload alike."""
    setup = prepare(require_fastcore=not args.smoke)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    out = Path(args.out) if args.out else WORKDIR / f"suite-{stamp}.json"
    report = {"seconds": seconds, "reps": args.reps, "seed": args.seed,
              "smoke": args.smoke, "fastcore_built": setup["fastcore_built"],
              "workloads": {w: {"runs": []} for w in WORKLOADS}}
    for rep in range(args.reps):
        for w in WORKLOADS:
            report["workloads"][w]["runs"].append(
                _child(w, args.seed + rep, seconds, 0, args.smoke))
    if args.trace:
        for w in WORKLOADS:
            report["workloads"][w]["traced"] = _child(
                w, args.seed, seconds, 1, args.smoke)
    correct = True
    for w, entry in report["workloads"].items():
        runs = entry["runs"] + ([entry["traced"]] if "traced" in entry else [])
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct &= all(r["result"]["correct"] for r in runs)
        entry.update(attempted=attempted, failed=failed,
                     failed_frac=failed / attempted,
                     end_to_end=summarize(entry["runs"]))
        print(f"{w}  (n={len(entry['runs'])}, failed_frac "
              f"{entry['failed_frac']:.4g})")
        for name, s in entry["end_to_end"].items():
            print(f"  {name:<28} {s['median']:>11.5g} {s['unit']:<6} "
                  f"[{s['q1']:.5g}, {s['q3']:.5g}]")
        if "traced" in entry:
            for name, m in entry["traced"]["result"]["metrics"].items():
                print(f"  {name:<28} {m['value']:>11.5g} {m['unit']}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"result file: {out}")
    return 0 if correct else 1


# ---- compare ---------------------------------------------------------------


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    (a1, ma, a3), (b1, mb, b3) = _quartiles(a), _quartiles(b)
    spread = max((a3 - a1) / abs(ma), (b3 - b1) / abs(mb))
    if spread > bound:
        b_wins = all(sign * y < sign * x for x in a for y in b)
        return "better" if b_wins else "unresolved"
    change = sign * (mb - ma) / abs(ma)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    bench = load_benchmark()
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    for w in WORKLOADS:
        if w not in a["workloads"] or w not in b["workloads"]:
            continue
        ea = a["workloads"][w]["end_to_end"]
        eb = b["workloads"][w]["end_to_end"]
        print(f"{w}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            if name not in ea or name not in eb:
                print(f"  {name:<26} missing")
                continue
            sa, sb = ea[name], eb[name]
            v = verdict(sa["values"], sb["values"], spec["better"],
                        spec["bound"])
            worse += v == "worse"
            print(f"  {name:<26} A {sa['median']:.5g} "
                  f"[{sa['q1']:.5g}, {sa['q3']:.5g}]  "
                  f"B {sb['median']:.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]  "
                  f"B/A {sb['median'] / sa['median']:.3f}  "
                  f"bound {spec['bound']:.0%}  {v}")
    return 1 if worse else 0


# ---- reference fingerprints ------------------------------------------------


def write_reference() -> int:
    import bench_workloads as bw

    refs = {}
    for w in WORKLOADS:
        outcomes = Outcomes(None)
        for cell in bw.cells_of(bw.build_traces(w, 0)):
            _, _, result, exc = _timed_run(cell)
            outcomes.record(cell, result, exc)
        if outcomes.failed:
            raise HarnessError(f"{w}: {outcomes.problems[:3]}")
        refs[w] = dict(sorted(outcomes.first.items()))
        print(f"{w}: {len(refs[w])} cells")
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


# ---- command line ----------------------------------------------------------


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2])
    if argv[:1] == ["compare"]:
        parser.add_argument("command")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv)
        try:
            return compare(args.a, args.b)
        except HarnessError as exc:
            print(f"layerbench: {exc}", file=sys.stderr)
            return 2
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions per workload with --workload all")
    parser.add_argument("--out", help="JSON file for the full result")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, no compiled-core "
                             "requirement (the harness's own test)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            prepare(require_fastcore=True)
            return write_reference()
        seconds = args.seconds
        if seconds is None:
            seconds = 0.0 if args.smoke else load_benchmark()["run_seconds"]
        if args.workload == "all":
            return suite(args, seconds)
        setup = prepare(require_fastcore=not args.smoke)
        setup.update(measure_setup(args.workload, args.seed, args.smoke))
        reference = None
        if args.seed == 0 and not args.smoke:
            reference = load_reference().get(args.workload, {})
        run = measure(args.workload, args.seed, seconds, bool(args.trace),
                      setup, smoke=args.smoke, reference=reference)
    except HarnessError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 2
    print_run(run)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(run) + "\n")
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
