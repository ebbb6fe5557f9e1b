"""Metrics registry: explicit counters, gauges, and histograms.

:class:`~repro.runtime.engine.StreamEngine` fills one registry per run
with what its :class:`~repro.runtime.engine.EngineReport` fields do not
hold: the per-segment latency, virtual service-time and deadline-slack
distributions.  The run's totals (steps, cache, delivery, stage ops,
PE utilization) stay in the report's fields, so each number has one
source.  ``EngineReport.to_dict()`` exposes the registry under
``"metrics"`` and the CLI dumps it via ``--metrics-json``.

Three instrument kinds, Prometheus-shaped but in-process and
deterministic:

* :class:`Counter` — monotonically increasing totals;
* :class:`Gauge` — last-write-wins point values;
* :class:`Histogram` — value distributions with exact quantiles (the
  full sample list is kept; runs are bounded, so exactness beats
  bucket-boundary guesswork for deadline-slack analysis).

Registration is explicit and duplicate names are an error, so a typo'd
metric name fails fast instead of silently splitting a series.  Names
are dotted paths (``session.latency_s``, ``deadline.slack_s``); everything
renders/serializes in sorted-name order so output is reproducible.
"""

from __future__ import annotations

import math

from ..core.metrics import format_value, render_table


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution with exact summary statistics.

    Keeps every observation (engine runs observe one value per segment,
    so the memory bound is the step count) and reports exact quantiles
    via nearest-rank on the sorted samples.
    """

    kind = "histogram"

    #: Quantiles every summary reports.
    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return math.fsum(self.values)

    def quantile(self, q: float) -> float | None:
        """Exact nearest-rank quantile; ``None`` on an empty series."""
        if not self.values:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.values)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        if not self.values:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": min(self.values),
            "max": max(self.values),
            "mean": self.sum / self.count,
            **{f"p{int(q * 100)}": self.quantile(q) for q in self.QUANTILES},
        }


class MetricsRegistry:
    """A namespace of explicitly registered instruments.

    ``counter``/``gauge``/``histogram`` register-and-return; asking for
    an already-registered name returns the existing instrument only if
    the kind matches (re-registration across kinds is a bug).  ``get``
    looks up without registering and raises on unknown names.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _register(self, cls, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}, not a {cls.kind}"
                )
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._register(Histogram, name, help)

    def get(self, name: str):
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(
                f"no metric named {name!r} is registered "
                f"(known: {sorted(self._metrics)})"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def to_dict(self) -> dict:
        """JSON-ready nested form, sorted for reproducible output."""
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out["histograms"][name] = metric.summary()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["counters"][name] = metric.value
        return out

    def render(self) -> str:
        """Plain-text table of every registered metric."""
        rows = []
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                s = metric.summary()
                shown = (
                    f"n={s['count']}"
                    if s["count"] == 0
                    else (
                        f"n={s['count']} mean={format_value(s['mean'])} "
                        f"p50={format_value(s['p50'])} "
                        f"p99={format_value(s['p99'])}"
                    )
                )
            else:
                shown = format_value(metric.value)
            rows.append([name, metric.kind, shown, metric.help])
        return render_table(
            ["metric", "kind", "value", "help"],
            rows,
            title=f"{len(rows)} registered metrics",
        )


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]
