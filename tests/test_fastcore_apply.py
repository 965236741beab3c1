"""The compiled apply kernels as twins of the session's Python loops, and
every compiled kernel leak-free under repetition.

``apply_full_collect`` / ``apply_full_commit`` are the collect and commit
steps of a full apply and ``apply_diff`` the core of a diffed one. The
engine-level fuzz (``tests/test_fuzz_equivalence.py``) pins them against
their Python twins on whole runs; here they are driven directly, with the
rate values a run never produces (NaN, negative, ``-0.0``, int).

Every function the extension exports is called 10k times, which must leave
every input's reference count and the traced heap flat. A kernel missing
from that check fails ``test_every_exported_kernel_is_leak_checked``.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from array import array

import pytest

from repro import _fastcore
from repro.errors import CapacityViolationError
from repro.simulator.session import _collect_full, _commit_full

pytestmark = pytest.mark.skipif(
    not _fastcore.AVAILABLE, reason="repro._fastcore extension not built"
)

#: Rows start past CPython's small-int cache, so every row index is its own
#: int object and its reference count belongs to this test alone.
BASE = 1000
N = 48
CALLS = 10_000
#: Heap growth allowed over CALLS calls: one leaked float per call would
#: be 240 kB.
SLACK_BYTES = 16_384


def _columns(rng: random.Random, now: float):
    n = BASE + N
    fid = array("q", [10_000 + i for i in range(n)])
    cid = array("q", [i // 5 for i in range(n)])
    rt = array("d", [rng.choice([0.0, 1.5]) for _ in range(n)])
    avail = array("d", [now + 1.0 if rng.random() < 0.2 else 0.0
                        for _ in range(n)])
    ft: list = [1.0 if rng.random() < 0.1 else None for _ in range(n)]
    st: list = [None] * n
    return fid, cid, rt, avail, ft, st


def _row_lists(rng: random.Random):
    rows = [BASE + i for i in range(N)]
    rng.shuffle(rows)
    return [rows[k:k + 7] for k in range(0, N, 7)]


def _rates(rng: random.Random, fid, row_lists, *, odd: bool):
    """A raw allocation over most rows, with the values a scheduler never
    returns mixed in."""
    values = [0.0, -0.0, -2.0, math.nan, 3, 1e6, 2.5e5, 7.0]
    rates = {}
    for rows in row_lists:
        for i in rows:
            if rng.random() < 0.85:
                rates[fid[i]] = rng.choice(values) if odd else 1e6 + i
    return rates


def test_collect_and_commit_match_python_twins():
    core = _fastcore.core
    for trial in range(200):
        rng = random.Random(trial)
        now = 0.5
        row_lists = _row_lists(rng)
        fid = _columns(random.Random(trial), now)[0]
        rates = _rates(rng, fid, row_lists, odd=trial % 2 == 0)
        efficiency = ({fid[BASE + k]: rng.choice([0.0, 0.3, 1.0])
                       for k in range(0, N, 3)} if trial % 3 else {})
        out = {}
        for name, collect, commit in (
            ("c", core.apply_full_collect, core.apply_full_commit),
            ("py", _collect_full, _commit_full),
        ):
            fid, cid, rt, avail, ft, st = _columns(random.Random(trial), now)
            gated: dict = {}
            rows, rated = collect(row_lists, rates, fid, ft, rt, avail,
                                  gated, efficiency, now)
            # What a hook returns: anything float-like, in or out of range.
            hook = random.Random(-trial)
            if trial % 4:
                rated = [r * hook.choice([1.0, -1.0, 0.5, math.nan])
                         for r in rated]
            running: dict = {}
            counts: dict = {}
            commit(rows, rated, cid, rt, st, running, counts, now)
            out[name] = (list(rows), [float(r).hex() for r in rated],
                         [r.hex() for r in rt], st, list(gated),
                         list(running), list(counts.items()))
        assert out["c"] == out["py"], f"trial {trial}"


def test_commit_rejects_a_rate_count_mismatch():
    fid, cid, rt, avail, ft, st = _columns(random.Random(0), 0.0)
    with pytest.raises(ValueError, match="one rate per row"):
        _fastcore.core.apply_full_commit(
            [BASE, BASE + 1], [1.0], cid, rt, st, {}, {}, 0.0)


def _shared(o) -> bool:
    """Process-wide singletons, whose counts any code moves."""
    return o is None or type(o) is bool or (type(o) is int
                                             and -5 <= o <= 256)


def _refcounts(*objs) -> list[int]:
    """Reference counts of ``objs`` and of everything they contain."""
    seen = []
    stack = list(objs)
    while stack:
        o = stack.pop()
        if _shared(o):
            continue
        seen.append(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
    return [sys.getrefcount(o) for o in seen]


def _assert_flat(call, inputs, reset=lambda: None):
    """``call()`` CALLS times leaves the inputs' refcounts and the traced
    heap where one warm-up call left them."""
    call()
    reset()
    before_refs = _refcounts(*inputs)
    tracemalloc.start()
    try:
        call()
        reset()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(CALLS):
            call()
            reset()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _refcounts(*inputs) == before_refs
    assert grown < SLACK_BYTES, f"traced heap grew {grown} bytes"


def test_full_apply_kernels_do_not_leak():
    core = _fastcore.core
    rng = random.Random(7)
    now = 0.5
    fid, cid, rt, avail, ft, st = _columns(rng, now)
    row_lists = _row_lists(rng)
    rates = _rates(rng, fid, row_lists, odd=False)
    efficiency = {fid[BASE + k]: 0.5 for k in range(0, N, 4)}
    gated: dict = {}
    inputs = [row_lists, rates, fid, ft, rt, avail, gated, efficiency]
    _assert_flat(lambda: core.apply_full_collect(
        row_lists, rates, fid, ft, rt, avail, gated, efficiency, now),
        inputs)

    rows, rated = core.apply_full_collect(
        row_lists, rates, fid, ft, rt, avail, gated, efficiency, now)
    running: dict = {}
    counts: dict = {}

    def reset():
        running.clear()
        counts.clear()

    _assert_flat(lambda: core.apply_full_commit(
        rows, rated, cid, rt, st, running, counts, now),
        [rows, rated, cid, rt, st, running, counts], reset)


def test_apply_diff_does_not_leak():
    """Alternate between two allocations, so every call moves rows in and
    out of the running set, the per-coflow counts and the gated set."""
    core = _fastcore.core
    rng = random.Random(11)
    now = 0.5
    fid, cid, rt, avail, ft, st = _columns(rng, now)
    row_of = {fid[i]: i for i in range(BASE, BASE + N)}
    row_lists = _row_lists(rng)
    allocs = [_rates(random.Random(seed), fid, row_lists, odd=False)
              for seed in (1, 2)]
    efficiency = {fid[BASE + k]: 0.5 for k in range(0, N, 4)}
    running: dict = {}
    counts: dict = {}
    gated: dict = {}
    prev = {}
    steps = []
    for new in allocs * 2:
        steps.append((list(prev.keys() - new.keys()),
                      core.diff_changed(new, prev), new))
        prev = new
    steps = steps[2:]  # the alternating pair, from a warm state
    turn = [0]

    def call():
        dropped, changed, new = steps[turn[0] % 2]
        turn[0] += 1
        core.apply_diff(dropped, changed, new, row_of, fid, cid, ft, rt, st,
                        avail, running, counts, gated, efficiency, now)

    call()
    call()
    assert running and counts and gated
    inputs = [steps, row_of, fid, cid, ft, rt, st, avail, running, counts,
              gated, efficiency]
    # Each measured call applies both allocations, ending where it began.
    _assert_flat(lambda: (call(), call()), inputs)


#: Links of the path columns below: 8 sender ports, 8 receiver ports and
#: four core links.
HOSTS = 8
NLINKS = 2 * HOSTS + 4


def _path_columns(rng: random.Random):
    """``src, dst, link_a, link_b`` columns; half the rows cross the core."""
    n = BASE + N
    src = array("q", [rng.randrange(HOSTS) for _ in range(n)])
    dst = array("q", [HOSTS + rng.randrange(HOSTS) for _ in range(n)])
    la = array("q", [-1] * n)
    lb = array("q", [-1] * n)
    for i in range(n):
        if rng.random() < 0.5:
            la[i] = 2 * HOSTS + rng.randrange(2)
            lb[i] = 2 * HOSTS + 2 + rng.randrange(2)
    return src, dst, la, lb


def _kernel_cases():
    """Kernel name -> (call, inputs, reset) for the leak check. ``reset``
    puts back what a call writes (ledger usage, output containers,
    advanced bytes), so every call sees the same state."""
    core = _fastcore.core
    rng = random.Random(23)
    now = 0.5
    fid, cid, rt, avail, ft, st = _columns(rng, now)
    n = BASE + N
    vol = array("d", [2e6] * n)
    bs = array("d", [rng.random() * 1e6 for _ in range(n)])
    bs0 = array("d", bs)
    src, dst, la, lb = _path_columns(rng)
    lcap = array("d", [1e6] * NLINKS)
    lused = array("d", bytes(8 * NLINKS))
    zero = array("d", bytes(8 * NLINKS))
    touched: set = set()
    rates: dict = {}
    scheduled: set = set()
    conserved: set = set()
    out: list = []
    row_lists = _row_lists(rng)
    rows = [i for run in row_lists for i in run]
    running = {i: None for i in rows if ft[i] is None}
    live = [i for i in rows if ft[i] is None]
    given = _rates(rng, fid, row_lists, odd=False)
    path = [src, dst, la, lb]
    ledger = [lcap, lused, touched]

    def reset():
        lused[:] = zero
        bs[:] = bs0
        for box in (touched, rates, scheduled, conserved, out):
            box.clear()

    # Every sent count is below these thresholds, so each call walks every
    # pair; `crossed` ends at an immediate crossing instead.
    pairs = [(run, 1.5e6 + k) for k, run in enumerate(row_lists)]
    crossed = [(run, 1.0) for run in row_lists]
    runs = [(k % 3, run) for k, run in enumerate(row_lists)]
    weights = [4.0, 2.0, 1.0]
    return {
        "set_capacity_error": (
            lambda: core.set_capacity_error(CapacityViolationError),
            [CapacityViolationError], reset),
        "mmf_fill": (
            lambda: core.mmf_fill(live, *path, *ledger, None, True),
            [live, *path, *ledger], reset),
        "advance_running": (
            lambda: core.advance_running(running, vol, bs, rt, 0.25),
            [running, vol, bs, rt], reset),
        "advance_collect": (
            lambda: core.advance_collect(running, vol, bs, rt, ft, 0.25,
                                         1e-6, out),
            [running, vol, bs, rt, ft, out], reset),
        "scan_candidates": (
            lambda: core.scan_candidates(running, vol, bs, rt, ft, 1e-6),
            [running, vol, bs, rt, ft], reset),
        "scan_completions": (
            lambda: core.scan_completions(running, vol, bs, rt, ft, 1e-6,
                                          now),
            [running, vol, bs, rt, ft], reset),
        "diff_changed": (
            lambda: core.diff_changed(given, {}),
            [given], reset),
        "aalo_ports": (
            lambda: core.aalo_ports(runs, weights, *path, fid, cid,
                                    *ledger, rates, scheduled),
            [runs, weights, *path, fid, cid, *ledger, rates, scheduled],
            reset),
        "saath_round": (
            lambda: core.saath_round(row_lists, now, True, 1.0, True, ft,
                                     avail, *path, fid, cid, *ledger, rates,
                                     scheduled, conserved),
            [row_lists, ft, avail, *path, fid, cid, *ledger, rates,
             scheduled, conserved], reset),
        "madd_round": (
            lambda: core.madd_round(row_lists, now, True, ft, avail, vol, bs,
                                    *path, fid, cid, *ledger, rates,
                                    scheduled, conserved),
            [row_lists, ft, avail, vol, bs, *path, fid, cid, *ledger, rates,
             scheduled, conserved], reset),
        "sebf_gammas": (
            lambda: core.sebf_gammas(row_lists, ft, vol, bs, src, dst, lcap),
            [row_lists, ft, vol, bs, src, dst, lcap], reset),
        "total_rate_rows": (
            lambda: core.total_rate_rows(rows, fid, ft, given),
            [rows, fid, ft, given], reset),
        "per_flow_transitions": (
            lambda: (core.per_flow_transitions(pairs, fid, ft, vol, bs,
                                               given),
                     core.per_flow_transitions(crossed, fid, ft, vol, bs,
                                               given)),
            [pairs, crossed, fid, ft, vol, bs, given], reset),
        "max_bytes_sent": (
            lambda: core.max_bytes_sent(row_lists, bs),
            [row_lists, bs], reset),
        "positive_rows": (
            lambda: core.positive_rows(live, [1.5] * len(live), fid, cid,
                                       rates, scheduled),
            [live, fid, cid, rates, scheduled], reset),
    }


#: Kernels whose leak checks are the dedicated tests above.
APPLY_KERNELS = {"apply_full_collect", "apply_full_commit", "apply_diff"}


def test_every_exported_kernel_is_leak_checked():
    exported = {name for name in dir(_fastcore.core)
                if not name.startswith("_")
                and callable(getattr(_fastcore.core, name))}
    assert exported == set(_kernel_cases()) | APPLY_KERNELS


@pytest.mark.parametrize("name", list(_kernel_cases()))
def test_kernel_does_not_leak(name):
    call, inputs, reset = _kernel_cases()[name]
    _assert_flat(call, inputs, reset)
