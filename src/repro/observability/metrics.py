"""Metrics registry: counters, gauges, and value summaries.

:class:`MetricsRegistry` is the single sink for quantitative run
telemetry — epoch counts, fastcore vs Python kernel dispatch counts,
ledger fill calls, queue transitions, sweep retry and timeout counts,
per-port utilisation summaries. It is deliberately a
plain-data container (dicts of floats) so that it deep-copies with
session snapshots, pickles across process pools, and serialises to JSON
without any custom machinery.

The zero-overhead contract: nothing in the simulator ever *requires* a
registry. Every instrumentation point is guarded by a single
``if metrics is not None:`` attribute check, and the registry itself
only ever reads simulation state — it never feeds a value back into the
engine, so enabling it cannot perturb results.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping


class MetricsRegistry:
    """Counters, gauges and min/max/sum/count value summaries.

    * ``inc(name, n)``       — monotonically increasing counter.
    * ``set_gauge(name, v)`` — last-write-wins point-in-time value.
    * ``observe(name, v)``   — streaming summary (count/total/min/max),
      the histogram-lite primitive used for per-port utilisation,
      schedule-round sizes, and phase durations.
    """

    __slots__ = ("counters", "gauges", "summaries")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self.summaries: dict[str, list[float]] = {}

    # ---- recording ---------------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + n

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        cell = self.summaries.get(name)
        if cell is None:
            self.summaries[name] = [1.0, value, value, value]
            return
        cell[0] += 1.0
        cell[1] += value
        if value < cell[2]:
            cell[2] = value
        if value > cell[3]:
            cell[3] = value

    # ---- reading -----------------------------------------------------------

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        return self.gauges.get(name, math.nan)

    def summary(self, name: str) -> dict[str, float]:
        """Summary as ``{count, total, mean, min, max}`` (zeros if unseen)."""
        cell = self.summaries.get(name)
        if cell is None:
            return {"count": 0.0, "total": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        count, total, lo, hi = cell
        return {"count": count, "total": total,
                "mean": total / count if count else 0.0,
                "min": lo, "max": hi}

    def __bool__(self) -> bool:
        """An attached registry is always truthy (even while empty) so
        ``if metrics:`` guards behave like ``is not None`` checks."""
        return True

    # ---- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "summaries": {k: list(v) for k, v in self.summaries.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        reg = cls()
        reg.counters.update(payload.get("counters", {}))
        reg.gauges.update(payload.get("gauges", {}))
        for name, cell in payload.get("summaries", {}).items():
            reg.summaries[name] = [float(x) for x in cell]
        return reg

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold ``other`` into this registry (counters add, gauges
        last-write-wins, summaries combine exactly)."""
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_dict(other)
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, cell in other.summaries.items():
            mine = self.summaries.get(name)
            if mine is None:
                self.summaries[name] = list(cell)
                continue
            mine[0] += cell[0]
            mine[1] += cell[1]
            if cell[2] < mine[2]:
                mine[2] = cell[2]
            if cell[3] > mine[3]:
                mine[3] = cell[3]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "MetricsRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetricsRegistry(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, "
                f"summaries={len(self.summaries)})")


def aggregate_metrics(
    parts: Iterable["MetricsRegistry | Mapping[str, Any]"],
) -> MetricsRegistry:
    """Roll up many per-run registries (or their ``to_dict`` payloads —
    e.g. straight out of the sweep :class:`ResultCache`) into one."""
    total = MetricsRegistry()
    for part in parts:
        if part is None:
            continue
        total.merge(part)
    return total
