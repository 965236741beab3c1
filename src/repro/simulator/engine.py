"""Legacy engine façade over the scenario/session kernel.

The fluid-flow discrete-event core now lives in
:mod:`repro.simulator.session` (:class:`SimulationSession`: explicit
``step`` / ``run_until`` / ``run`` lifecycle, ``snapshot`` / ``restore``
checkpointing, lazily-pulled :class:`~repro.simulator.scenario.Scenario`
input). This module keeps the original entry points stable:

* :class:`Simulator` — the classic "construct, then ``run(coflows)``"
  driver, now a thin adapter that wraps the coflow list (plus the
  constructor's ``dynamics``) into a batch scenario and delegates to the
  session kernel. Byte-identical results, same validation errors.
* :func:`run_policy` — the one-call convenience wrapper used throughout
  the experiments, analysis and CLI layers.
* Re-exports of :class:`SimulationResult`, the ``DynamicsAction`` /
  ``ScheduleObserver`` protocols, the ``RatePerturbation`` hook type and
  the internal ``_DataAvailable`` wakeup marker, so historical imports
  keep working.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..config import SimulationConfig
from ..observability import MetricsRegistry, PhaseTimers, Tracer
from ..schedulers.base import Scheduler
from .fabric import Fabric
from .flows import CoFlow
from .scenario import Scenario
from .topology import Topology
from .session import (  # noqa: F401  (re-exported legacy names)
    DynamicsAction,
    RatePerturbation,
    ScheduleObserver,
    SessionSnapshot,
    SimulationResult,
    SimulationSession,
    _DataAvailable,
)


class Simulator(SimulationSession):
    """Drives one scheduler over one workload on one fabric.

    Legacy façade: dynamics actions are supplied at construction and the
    workload as a materialised coflow list at :meth:`run` time. Internally
    both become a single batch :class:`~repro.simulator.scenario.Scenario`
    driving the session kernel — every result is byte-identical to the
    pre-scenario engine, as the equivalence suite asserts.
    """

    def __init__(
        self,
        fabric: Fabric,
        scheduler: Scheduler,
        config: SimulationConfig,
        *,
        dynamics: Iterable[DynamicsAction] = (),
        topology: "Topology | None" = None,
        rate_perturbation: RatePerturbation | None = None,
        observer: "ScheduleObserver | None" = None,
        sink: Callable[[CoFlow], None] | None = None,
        tracer: "Tracer | None" = None,
        metrics: "MetricsRegistry | None" = None,
        timers: "PhaseTimers | None" = None,
    ):
        super().__init__(
            fabric,
            scheduler,
            config,
            topology=topology,
            rate_perturbation=rate_perturbation,
            observer=observer,
            sink=sink,
            tracer=tracer,
            metrics=metrics,
            timers=timers,
        )
        self._dynamics = list(dynamics)

    def run(
        self, coflows: Iterable[CoFlow] | None = None
    ) -> SimulationResult:
        """Simulate to completion and return per-coflow results.

        ``run(coflows)`` builds the batch scenario (validating the workload
        exactly as before) and attaches it; ``run()`` with no argument
        behaves like :meth:`SimulationSession.run` on the already-attached
        scenario.
        """
        if coflows is not None:
            self.attach(Scenario.from_coflows(coflows, self._dynamics))
        return SimulationSession.run(self)


def run_policy(
    scheduler: Scheduler,
    coflows: Iterable[CoFlow],
    fabric: Fabric,
    config: SimulationConfig,
    *,
    dynamics: Iterable[DynamicsAction] = (),
    topology: "Topology | None" = None,
    rate_perturbation: RatePerturbation | None = None,
    observer: ScheduleObserver | None = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    timers: "PhaseTimers | None" = None,
) -> SimulationResult:
    """One-call convenience wrapper: build a simulator and run it."""
    sim = Simulator(
        fabric,
        scheduler,
        config,
        dynamics=dynamics,
        topology=topology,
        rate_perturbation=rate_perturbation,
        observer=observer,
        tracer=tracer,
        metrics=metrics,
        timers=timers,
    )
    return sim.run(coflows)


def run_scenario(
    scheduler: Scheduler,
    scenario: Scenario,
    fabric: Fabric,
    config: SimulationConfig,
    *,
    topology: "Topology | None" = None,
    rate_perturbation: RatePerturbation | None = None,
    observer: ScheduleObserver | None = None,
    sink: Callable[[CoFlow], None] | None = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    timers: "PhaseTimers | None" = None,
) -> SimulationResult:
    """Scenario-first twin of :func:`run_policy`."""
    return SimulationSession(
        fabric,
        scheduler,
        config,
        scenario=scenario,
        topology=topology,
        rate_perturbation=rate_perturbation,
        observer=observer,
        sink=sink,
        tracer=tracer,
        metrics=metrics,
        timers=timers,
    ).run()
