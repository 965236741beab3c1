"""Per-layer instrumentation of the traced run, applied from outside.

Layers are named after the modules they time:

* ``simulator.session`` through the public ``timers=`` and ``metrics=``
  hooks of ``run_policy`` (engine phases and work counters);
* the scheduler (``schedulers``, ``core.saath``, ``core.contention``,
  ``schedulers.queues``) by wrapping the instance's ``schedule``, ``on_*``
  and ``next_wakeup`` methods;
* ``simulator.ratealloc`` and ``_fastcore`` by wrapping the allocator names
  bound in ``core.saath``, ``schedulers.varys`` and ``schedulers.uctcp``,
  which is where the schedulers look them up.

Wrappers only read the clock, so they cannot change a result; the traced
run still asserts that every traced fingerprint equals the untraced one.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

from repro.core import saath as _saath
from repro.observability import MetricsRegistry, PhaseTimers
from repro.schedulers import uctcp as _uctcp
from repro.schedulers import varys as _varys

#: Allocator short name -> (family, bound name, modules binding it).
ALLOCATORS = {
    "mmf": ("mmf", "max_min_fair", (_uctcp,)),
    "mmf_rows_raw": ("mmf", "max_min_fair_rows_raw", (_uctcp,)),
    "mmf_paths": ("mmf", "max_min_fair_paths", (_uctcp,)),
    "madd": ("madd", "madd_rates", (_varys,)),
    "madd_rows": ("madd", "madd_rates_rows", (_varys,)),
    "madd_paths": ("madd", "madd_rates_paths", (_varys,)),
    "equal_rate": ("equal_rate", "equal_rate_for_coflow", (_saath,)),
    "equal_rate_rows": ("equal_rate", "equal_rate_for_coflow_rows", (_saath,)),
    "equal_rate_paths": ("equal_rate", "equal_rate_for_coflow_paths",
                         (_saath,)),
    "greedy": ("greedy", "greedy_residual_rates", (_saath, _varys)),
    "greedy_rows": ("greedy", "greedy_residual_rates_rows", (_saath, _varys)),
}
FAMILIES = ("mmf", "madd", "equal_rate", "greedy")

HOOKS = ("on_coflow_arrival", "on_flow_completion", "on_coflow_completion",
         "next_wakeup")
PHASES = ("lookout", "advance", "completions", "events", "schedule", "apply")

#: Session counters reported as they are (MetricsRegistry names).
COUNTERS = ("epoch.diff", "epoch.full", "apply.rebuild", "heap.seeds",
            "heap.go_cold", "flows.completed", "coflows.activated",
            "admission.scheduled", "admission.work_conserved",
            "queue.transitions", "ledger.commit", "ledger.fill",
            "ledger.fill_capped", "dynamics.actions")


def _timed(fn, key: str, timers: PhaseTimers):
    def timed(*args, **kwargs):
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            timers.add(key, perf_counter_ns() - t0)
    return timed


@contextmanager
def allocators_timed(timers: PhaseTimers):
    """Time every allocator call into ``timers`` (key ``alloc.<name>``);
    the module bindings are restored on exit."""
    saved = []
    try:
        for short, (_family, name, modules) in ALLOCATORS.items():
            for module in modules:
                fn = getattr(module, name)
                saved.append((module, name, fn))
                setattr(module, name, _timed(fn, f"alloc.{short}", timers))
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def scheduler_timed(timers: PhaseTimers):
    """Instrument a scheduler instance: ``schedule`` and the hooks."""
    def instrument(scheduler) -> None:
        scheduler.schedule = _timed(scheduler.schedule, "scheduler.schedule",
                                    timers)
        for hook in HOOKS:
            setattr(scheduler, hook,
                    _timed(getattr(scheduler, hook), "scheduler.hooks",
                           timers))
    return instrument


class LayerProbe:
    """Session timers, metrics registry and wrapper timers of one traced
    cell, reduced to the per-layer metrics."""

    def __init__(self) -> None:
        self.session = PhaseTimers()
        self.metrics = MetricsRegistry()
        self.wrapped = PhaseTimers()

    def merge(self, other: "LayerProbe") -> None:
        self.session.merge(other.session)
        self.metrics.merge(other.metrics)
        self.wrapped.merge(other.wrapped)

    def seconds(self, key: str) -> float:
        cell = self.session.phases.get(key) or self.wrapped.phases.get(key)
        return cell[1] / 1e9 if cell else 0.0

    def calls(self, key: str) -> int:
        cell = self.session.phases.get(key) or self.wrapped.phases.get(key)
        return int(cell[0]) if cell else 0

    def family_seconds(self, family: str) -> float:
        return sum(self.seconds(f"alloc.{short}")
                   for short, (fam, _, _) in ALLOCATORS.items()
                   if fam == family)

    def phase_shares(self) -> dict:
        """Share of session time per engine phase."""
        total = sum(self.seconds(p) for p in PHASES) or 1.0
        return {p: self.seconds(p) / total for p in PHASES}

    def fastcore_share(self) -> float:
        """Compiled share of hot-loop dispatches: the ``kernel.*`` counters,
        plus calls of the allocator forms that have no compiled twin (the
        object and ``*_paths`` forms count no ``kernel.*`` dispatch)."""
        compiled = 0.0
        total = float(sum(self.calls(f"alloc.{s}") for s in ALLOCATORS
                          if not s.endswith(("_rows", "_rows_raw"))))
        for name, value in self.metrics.counters.items():
            if name.startswith("kernel."):
                total += value
                if name.endswith(".fastcore"):
                    compiled += value
        return compiled / total if total else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``."""
        m = self.metrics
        out = {f"session.{p}_s": (self.seconds(p), "s") for p in PHASES}
        rounds = self.calls("schedule")
        session_s = sum(self.seconds(p) for p in PHASES)
        out["session.steps"] = (self.calls("advance"), "count")
        out["session.rounds"] = (rounds, "count")
        out["session.us_per_round"] = (
            session_s / rounds * 1e6 if rounds else 0.0, "us")
        out["epoch.churn_mean"] = (m.summary("epoch.churn")["mean"], "flows")
        out["schedule.flows_rated_mean"] = (
            m.summary("schedule.flows_rated")["mean"], "flows")
        for name in COUNTERS:
            out[name] = (int(m.counter(name)), "count")
        alloc_s = sum(self.family_seconds(f) for f in FAMILIES)
        schedule_s = self.seconds("scheduler.schedule")
        out["scheduler.schedule_s"] = (schedule_s, "s")
        out["scheduler.schedule_calls"] = (
            self.calls("scheduler.schedule"), "count")
        out["scheduler.hooks_s"] = (self.seconds("scheduler.hooks"), "s")
        out["scheduler.self_s"] = (schedule_s - alloc_s, "s")
        out["alloc.total_s"] = (alloc_s, "s")
        for short in ALLOCATORS:
            out[f"alloc.{short}.calls"] = (self.calls(f"alloc.{short}"),
                                           "count")
        for family in FAMILIES:
            out[f"alloc.{family}.s"] = (self.family_seconds(family), "s")
        out["kernel.fastcore_share"] = (self.fastcore_share(), "ratio")
        return out
