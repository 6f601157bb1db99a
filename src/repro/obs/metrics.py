"""Typed per-node metrics registry (counters, gauges, histograms).

Each cluster node owns one :class:`MetricsRegistry`; instruments are
created once at wiring time and updated from hot paths behind the same
null-object discipline the tracer uses (rule OBS002)::

    self.m_outputs = registry.counter("outputs", "joined tuples emitted")
    ...
    if self.registry.enabled:
        self.m_outputs.inc(n)

When observability is off, :data:`NULL_REGISTRY` hands out shared no-op
counters and gauges, and every instrumentation site pays one attribute
load and branch — measured by ``benchmarks/bench_obs.py``, which also
times :meth:`Histogram.observe_many` per recorded value.

There is one histogram: :class:`Histogram`, the production-delay
statistics over the fixed log-spaced :data:`DELAY_BIN_EDGES`.  A slave
records each delay into it once; with metrics on, the same object is
also the node's registered ``production_delay_seconds`` instrument.

Snapshots are plain nested dicts (JSON-serializable, picklable across
the process backend's result pipes); :func:`render_prometheus` renders
a set of per-node snapshots in the Prometheus text exposition format
for the admin endpoint's ``/metrics``.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

__all__ = [
    "Counter",
    "DELAY_BIN_EDGES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "render_prometheus",
]

#: Log-spaced delay histogram edges, seconds (1 ms .. ~17 min).
DELAY_BIN_EDGES: npt.NDArray[np.float64] = np.logspace(-3, 3, 61)


class Instrument:
    """Base class: a named, typed metric owned by one registry."""

    kind: t.ClassVar[str] = "instrument"

    __slots__ = ("name", "help")

    def __init__(self, name: str, help_: str = "") -> None:
        self.name = name
        self.help = help_

    def snapshot(self) -> dict[str, t.Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, help_: str = "") -> None:
        super().__init__(name, help_)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, t.Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(Instrument):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, help_: str = "") -> None:
        super().__init__(name, help_)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict[str, t.Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram(Instrument):
    """Streaming statistics over production delays.

    ``count`` / ``minimum`` / ``maximum`` are exact, ``total`` is the
    running sum, and ``histogram`` bins the values over
    :data:`DELAY_BIN_EDGES` with Prometheus ``le`` semantics:
    ``histogram[i]`` counts values ``<= DELAY_BIN_EDGES[i]`` and above
    the edge before it, and the last bin is the ``+Inf`` tail
    (non-cumulative internally; the renderer accumulates).
    """

    kind = "histogram"

    __slots__ = ("count", "total", "minimum", "maximum", "histogram")

    def __init__(self, name: str = "", help_: str = "") -> None:
        super().__init__(name, help_)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.histogram: npt.NDArray[np.int64] = np.zeros(
            len(DELAY_BIN_EDGES) + 1, dtype=np.int64
        )

    def observe_many(self, values: npt.NDArray[np.float64]) -> None:
        n = len(values)
        if n == 0:
            return
        self.count += n
        self.total += float(values.sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))
        # Bins last: a concurrent reader that sees a value binned also
        # sees it in the extrema (SlaveMetrics.pop_unreported).
        self.histogram += np.bincount(
            np.searchsorted(DELAY_BIN_EDGES, values), minlength=len(self.histogram)
        )

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.histogram += other.histogram

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile from the log-spaced histogram.

        Interpolates linearly within the bin the *q*-th sample falls
        into; ``q >= 100`` returns the exact observed maximum.  The
        result is clamped to the observed ``[minimum, maximum]`` so the
        histogram's fixed edges never widen the reported range.
        """
        if self.count == 0:
            return 0.0
        if q >= 100.0:
            return self.maximum
        target = max(q, 0.0) / 100.0 * self.count
        cum = np.cumsum(self.histogram)
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, len(self.histogram) - 1)
        below = float(cum[idx - 1]) if idx > 0 else 0.0
        in_bin = float(cum[idx]) - below
        frac = (target - below) / in_bin if in_bin > 0 else 0.0
        lo = float(DELAY_BIN_EDGES[idx - 1]) if idx > 0 else 0.0
        hi = (
            float(DELAY_BIN_EDGES[idx])
            if idx < len(DELAY_BIN_EDGES)
            else self.maximum
        )
        value = lo + frac * (hi - lo)
        return float(min(max(value, self.minimum), self.maximum))

    def summary(self) -> dict[str, float]:
        """Headline statistics (count, mean, extrema, p50, p99)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }

    def snapshot(self) -> dict[str, t.Any]:
        return {
            "kind": self.kind,
            "buckets": DELAY_BIN_EDGES.tolist(),
            "counts": self.histogram.tolist(),
            "sum": self.total,
            "count": self.count,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")


class MetricsRegistry:
    """One node's set of typed instruments.

    Instrument factories are idempotent: asking twice for the same name
    returns the same object; asking with a different type raises.  A
    disabled registry (:data:`NULL_REGISTRY`) registers nothing: it hands
    out shared no-op counters and gauges, and a fresh unregistered
    histogram, because a histogram is also its owner's own statistics.
    """

    __slots__ = ("node", "enabled", "_instruments")

    def __init__(self, node: int = -1, enabled: bool = True) -> None:
        self.node = node
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}

    def _get(
        self,
        name: str,
        factory: t.Callable[[], Instrument],
        cls: type,
    ) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{existing.kind}, not {cls.__name__.lower()}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        out = self._get(name, lambda: Counter(name, help_), Counter)
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help_: str = "") -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        out = self._get(name, lambda: Gauge(name, help_), Gauge)
        assert isinstance(out, Gauge)
        return out

    def histogram(self, name: str, help_: str = "") -> Histogram:
        if not self.enabled:
            return Histogram(name, help_)
        out = self._get(name, lambda: Histogram(name, help_), Histogram)
        assert isinstance(out, Histogram)
        return out

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        """All instruments as ``{name: {kind, value|counts...}}``,
        sorted by name (JSON-serializable and picklable)."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def __len__(self) -> int:
        return len(self._instruments)


#: Shared disabled registry; the default for every instrumented component.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def render_prometheus(
    node_snapshots: t.Mapping[int, t.Mapping[str, t.Mapping[str, t.Any]]],
    prefix: str = "swjoin",
) -> str:
    """Prometheus text exposition of per-node registry snapshots.

    ``node_snapshots`` maps node id -> :meth:`MetricsRegistry.snapshot`
    output.  Metrics sharing a name across nodes become one family with
    a ``node`` label; output order is deterministic (name, then node).
    """
    families: dict[str, str] = {}
    samples: dict[str, list[str]] = {}
    for node in sorted(node_snapshots):
        for name, snap in sorted(node_snapshots[node].items()):
            metric = f"{prefix}_{_sanitize(name)}"
            kind = str(snap["kind"])
            families.setdefault(metric, kind)
            rows = samples.setdefault(metric, [])
            if kind == "counter":
                rows.append(f'{metric}_total{{node="{node}"}} {snap["value"]:g}')
            elif kind == "gauge":
                rows.append(f'{metric}{{node="{node}"}} {snap["value"]:g}')
            elif kind == "histogram":
                cumulative = 0
                for edge, count in zip(snap["buckets"], snap["counts"]):
                    cumulative += int(count)
                    rows.append(
                        f'{metric}_bucket{{node="{node}",le="{edge:g}"}} '
                        f"{cumulative}"
                    )
                cumulative += int(snap["counts"][-1])
                rows.append(
                    f'{metric}_bucket{{node="{node}",le="+Inf"}} {cumulative}'
                )
                rows.append(f'{metric}_sum{{node="{node}"}} {snap["sum"]:g}')
                rows.append(f'{metric}_count{{node="{node}"}} {snap["count"]}')
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown instrument kind {kind!r}")
    lines: list[str] = []
    for metric in sorted(samples):
        lines.append(f"# TYPE {metric} {families[metric]}")
        lines.extend(samples[metric])
    return "\n".join(lines) + ("\n" if lines else "")
