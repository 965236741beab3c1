"""Smoke test of the layered benchmark harness.

Runs the harness at its ``--smoke`` size (tiny inputs, one pass, no
compiled-core requirement) and checks its contract: every metric named in
BENCHMARK.json is reported with its unit, the yardstick reads its own
reference loop as one unit, a corrupted CCT or fingerprint is counted as a
failed cell, and the command line prints its result as the last line, or
fails without one where there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import bench
import bench_workloads as bw
from bench_yardstick import Yardstick, reference_loop

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP = {"setup_s": 0.5, "import_s": 0.4, "generate_s": 0.1,
         "fastcore_build_s": 0.0, "fastcore_built": False}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, kind):
    run = bench.measure(workload, 1, 0.0, trace, SETUP, smoke=True)
    result = run["result"]
    assert result["correct"], run["details"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_yardstick_reads_reference_loops_as_units():
    with Yardstick() as yardstick:
        t0 = perf_counter()
        for _ in range(200):
            reference_loop()
        t1 = perf_counter()
    busy, _unit = yardstick.reading(t0, t1)
    seconds, units = yardstick.in_units(t0, t1)
    assert busy > 0 and seconds == pytest.approx(t1 - t0 - busy)
    assert 150 < units < 250
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_altered_cct_is_counted_as_failed(monkeypatch):
    run_cell = bw.run_cell

    def corrupted(cell, *args, **kwargs):
        result = run_cell(cell, *args, **kwargs)
        if cell.policy == "saath":
            first = result.coflows[0]
            first.finish_time = first.arrival_time  # CCT 0 < isolation bound
        return result

    monkeypatch.setattr(bw, "run_cell", corrupted)
    run = bench.measure("fig9-bigswitch", 0, 0.0, False, SETUP, smoke=True)
    result = run["result"]
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (8, 2)
    assert all("isolation bound" in p for p in run["details"]["problems"])


def test_reference_fingerprint_mismatch_is_counted_as_failed():
    first = bench.measure("leafspine-oversub4", 0, 0.0, False, SETUP,
                          smoke=True)
    reference = {name: cell["fingerprint"]
                 for name, cell in first["details"]["cells"].items()}
    reference["fb-like/aalo"] = "0" * 64
    run = bench.measure("leafspine-oversub4", 0, 0.0, False, SETUP,
                        smoke=True, reference=reference)
    assert run["result"]["failed"] == 1
    assert run["details"]["problems"][0].startswith("fb-like/aalo:")


def test_command_prints_the_result_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "layerbench/bench.py", "--smoke",
         "--workload", "testbed-dynamics", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 4


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "layerbench", tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "layerbench/bench.py", "--workload",
         "fig9-bigswitch", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
