"""Process-wide, thread-safe metrics registry.

The aggregate companion to the per-call trace layer (:mod:`repro.tracing`):
traces answer "what happened in *this* batch", the registry answers "what
has this process been doing" — live hit rates, per-stage latency quantiles,
health gauges — the view a long-lived execution service is monitored by.

Three instrument kinds, all **labeled families** of series:

* :class:`Counter` — monotone event counts (``inc``).  Bridged counters
  (values copied from an authoritative source such as ``EngineStats`` or a
  cache's own tallies) use :meth:`CounterSeries.set` so the registry can
  never drift from the source.
* :class:`Gauge` — point-in-time values (``set``/``inc``/``dec``), including
  the ``*_info`` convention: a gauge family labeled by a string state (e.g.
  ``reason=...``) whose single live series has value 1.
* :class:`Histogram` — latency distributions over **fixed log-spaced
  buckets** (compatible with Prometheus histogram semantics) *plus*
  streaming p50/p95/p99 estimates (the P² algorithm: constant memory, no
  sample retention beyond a bounded pending buffer folded at every read)
  and min/max.

Label conventions
-----------------
Label names are fixed per family at registration; label values are
stringified.  ``MetricsRegistry(base_labels=...)`` stamps a constant label
set onto every exported series — this is the hook a future multi-tenant
service uses to add ``tenant=`` without touching any instrumentation site.

Concurrency contract
--------------------
Registration and series creation are lock-protected; counter/gauge writes
are single-store updates and histogram observes take a per-series lock, so
**reads (scrapes/exports) are safe at any time, concurrent with
execution**.  Writers of one series are expected to be single-threaded
(the engine is single-threaded per instance); concurrent writers of
*different* series need no coordination.

Collectors
----------
``add_collector(fn)`` registers a zero-argument callable run at the start
of every :meth:`MetricsRegistry.collect` (and therefore every export and
snapshot).  Collectors refresh *bridged* series from their authoritative
sources — cache ``stats()`` dicts, the sharder, the trace store — so
scrape-time values are current without putting a registry write on any hot
path.  A collector that raises is counted (``collector_errors``) and
skipped: a scrape must never take down the scraped process.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_global_registry",
]

# Fixed log-spaced latency buckets: 1-2.5-5 per decade from 1 µs to 50 s
# (24 upper bounds; +Inf is implicit).  Wide enough for a sub-ms cache hit
# and a multi-second wide-circuit simulation in one instrument, coarse
# enough that a scrape stays small.
DEFAULT_LATENCY_BUCKETS = tuple(
    round(mantissa * 10.0**exponent, 12)
    for exponent in range(-6, 2)
    for mantissa in (1.0, 2.5, 5.0)
)


class _P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Five markers track the running quantile in O(1) memory; below five
    observations the exact small-sample quantile is returned.  Accuracy is
    ~1% of the local density scale — plenty for latency telemetry.
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, p: float) -> None:
        self.p = float(p)
        self._heights: list[float] = []
        self._positions: list[int] = []
        self._desired: list[float] = []
        self._rates: tuple[float, ...] = ()

    def observe(self, x: float) -> None:
        heights = self._heights
        if len(heights) < 5 or not self._positions:
            heights.append(x)
            heights.sort()
            if len(heights) == 5:
                p = self.p
                self._positions = [1, 2, 3, 4, 5]
                self._desired = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
                self._rates = (0.0, p / 2, p, (1 + p) / 2, 1.0)
            return
        q, n, desired = heights, self._positions, self._desired
        if x < q[0]:
            q[0] = x
            cell = 0
        elif x >= q[4]:
            q[4] = x
            cell = 3
        else:
            cell = 0
            while x >= q[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            desired[i] += self._rates[i]
        for i in (1, 2, 3):
            drift = desired[i] - n[i]
            if (drift >= 1 and n[i + 1] - n[i] > 1) or (drift <= -1 and n[i - 1] - n[i] < -1):
                step = 1 if drift >= 1 else -1
                candidate = self._parabolic(i, step)
                q[i] = candidate if q[i - 1] < candidate < q[i + 1] else self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + step * (q[i + step] - q[i]) / (n[i + step] - n[i])

    @property
    def value(self) -> float | None:
        heights = self._heights
        if not heights:
            return None
        if not self._positions:  # fewer than 5 observations: exact
            ordered = sorted(heights)
            rank = max(0, min(len(ordered) - 1, math.ceil(self.p * len(ordered)) - 1))
            return ordered[rank]
        return heights[2]


class _Series:
    """One labeled time series of a family."""

    __slots__ = ("labels",)

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels


class CounterSeries(_Series):
    __slots__ = ("value",)

    def __init__(self, labels: dict[str, str]) -> None:
        super().__init__(labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for signed values")
        self.value = self.value + amount

    def set(self, value: float) -> None:
        """Bridge/reset write: copy the authoritative source's tally.

        For series whose truth lives elsewhere (``EngineStats`` fields,
        cache ``stats()`` dicts) — and for explicit resets — the registry
        mirrors rather than accumulates, so the two can never drift.
        """
        self.value = value

    def _snapshot(self) -> dict:
        return {"value": self.value}


class GaugeSeries(_Series):
    __slots__ = ("value",)

    def __init__(self, labels: dict[str, str]) -> None:
        super().__init__(labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value = self.value + amount

    def dec(self, amount: float = 1) -> None:
        self.value = self.value - amount

    def _snapshot(self) -> dict:
        return {"value": self.value}


class HistogramSeries(_Series):
    """Bucket counts, sum, min, max and P² quantiles of the observed values.

    ``observe`` only appends to a pending buffer under the series lock.  The
    buffer is folded into the aggregates, in arrival order, when it holds
    :attr:`PENDING_LIMIT` values and before every read (``_snapshot``,
    ``quantile`` and the ``count``/``sum``/``min``/``max`` properties), so
    each read sees exactly the values eager observation would have produced
    while the hot path pays one append per sample.
    """

    __slots__ = (
        "_lock", "bounds", "_bucket_counts", "_count", "_sum", "_min", "_max",
        "_quantiles", "_pending",
    )

    QUANTILES = (0.5, 0.95, 0.99)
    PENDING_LIMIT = 4096

    def __init__(self, labels: dict[str, str], bounds: tuple[float, ...]) -> None:
        super().__init__(labels)
        self._lock = threading.Lock()
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._quantiles = tuple(_P2Quantile(p) for p in self.QUANTILES)
        self._pending: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            pending = self._pending
            pending.append(value)
            if len(pending) >= self.PENDING_LIMIT:
                self._fold()

    def _fold(self) -> None:
        """Apply the pending values in arrival order; the caller holds the lock."""
        pending = self._pending
        if not pending:
            return
        bounds = self.bounds
        bucket_counts = self._bucket_counts
        estimators = self._quantiles
        total, low, high = self._sum, self._min, self._max
        for value in pending:
            total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
            lo, hi = 0, len(bounds)
            while lo < hi:  # first bound >= value
                mid = (lo + hi) // 2
                if value <= bounds[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            bucket_counts[lo] += 1
            for estimator in estimators:
                estimator.observe(value)
        self._count += len(pending)
        self._sum, self._min, self._max = total, low, high
        pending.clear()

    def _read(self, name: str) -> Any:
        with self._lock:
            self._fold()
            return getattr(self, name)

    @property
    def count(self) -> int:
        return self._read("_count")

    @property
    def sum(self) -> float:
        return self._read("_sum")

    @property
    def min(self) -> float | None:
        return self._read("_min")

    @property
    def max(self) -> float | None:
        return self._read("_max")

    def quantile(self, p: float) -> float | None:
        with self._lock:
            self._fold()
            for estimator in self._quantiles:
                if estimator.p == p:
                    return estimator.value
        raise KeyError(f"no streaming estimator for quantile {p}")

    def _snapshot(self) -> dict:
        with self._lock:
            self._fold()
            cumulative = []
            running = 0
            for bound, bucket in zip(self.bounds, self._bucket_counts):
                running += bucket
                cumulative.append([bound, running])
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": cumulative,
                "quantiles": {
                    str(estimator.p): estimator.value for estimator in self._quantiles
                },
            }


class _Family:
    """A named instrument: metadata plus its labeled series."""

    kind = "untyped"
    _series_cls: type[_Series] = _Series

    def __init__(self, registry: "MetricsRegistry", name: str, help: str, labelnames: tuple[str, ...]) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._series: "OrderedDict[tuple[str, ...], _Series]" = OrderedDict()

    def labels(self, **labelvalues: Any) -> Any:
        """The series for this label-value set (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        series = self._series.get(key)
        if series is None:
            with self._registry._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._new_series(dict(zip(self.labelnames, key)))
                    self._series[key] = series
        return series

    def _new_series(self, labels: dict[str, str]) -> _Series:
        return self._series_cls(labels)

    def clear(self) -> None:
        """Drop every series (the ``*_info`` state-change idiom)."""
        with self._registry._lock:
            self._series.clear()

    # Label-free convenience: a family with no labelnames acts as its own
    # single series, so ``registry.counter("x").inc()`` just works.
    def _default(self) -> Any:
        return self.labels()

    def series_snapshots(self) -> list[tuple[dict[str, str], dict]]:
        """``(labels, payload)`` per live series — the read-side API."""
        with self._registry._lock:
            series = list(self._series.values())
        base = self._registry.base_labels
        return [({**base, **s.labels}, s._snapshot()) for s in series]

    def _snapshot(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": labels, **payload} for labels, payload in self.series_snapshots()
            ],
        }


class Counter(_Family):
    kind = "counter"
    _series_cls = CounterSeries

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_Family):
    kind = "gauge"
    _series_cls = GaugeSeries

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_Family):
    kind = "histogram"

    def __init__(self, registry, name, help, labelnames, buckets: tuple[float, ...]) -> None:
        super().__init__(registry, name, help, labelnames)
        self.buckets = buckets

    def _new_series(self, labels: dict[str, str]) -> HistogramSeries:
        return HistogramSeries(labels, self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """A process-wide (or per-engine) collection of metric families.

    Parameters
    ----------
    base_labels:
        Constant labels stamped onto every exported series.  Empty today;
        the designed slot for a future ``tenant=`` dimension — a
        multi-tenant service builds one registry per tenant with
        ``base_labels={"tenant": ...}`` and merges exports, with zero
        changes at any instrumentation site.
    """

    def __init__(self, base_labels: dict[str, str] | None = None) -> None:
        self._lock = threading.RLock()
        self._metrics: "OrderedDict[str, _Family]" = OrderedDict()
        self._collectors: list[Callable[[], None]] = []
        self.base_labels = {k: str(v) for k, v in (base_labels or {}).items()}
        self.collector_errors = 0

    # ------------------------------------------------------------------
    # Registration (idempotent per name; kind conflicts are errors)
    # ------------------------------------------------------------------

    def _register(self, cls, name: str, help: str, labelnames, **extra) -> Any:
        with self._lock:
            family = self._metrics.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}, "
                        f"not {cls.kind}"
                    )
                return family
            family = cls(self, name, help, tuple(labelnames), **extra)
            self._metrics[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        bounds = tuple(sorted(buckets)) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        return self._register(Histogram, name, help, labelnames, buckets=bounds)

    def get(self, name: str) -> _Family | None:
        """The registered family, or ``None`` — the read-side lookup."""
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def add_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every collect/export/snapshot.

        Collectors refresh bridged series from their authoritative sources
        (cache ``stats()``, the trace store, ...) so scrapes are current
        without hot-path writes.
        """
        with self._lock:
            self._collectors.append(collector)

    def remove_collector(self, collector: Callable[[], None]) -> None:
        with self._lock:
            try:
                self._collectors.remove(collector)
            except ValueError:
                pass

    def collect(self) -> list[dict]:
        """Snapshot every family (collectors run first; they never raise out).

        Safe to call from any thread at any time — including concurrently
        with execution — which is the whole point of a scrape endpoint.
        """
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            try:
                collector()
            except Exception:  # a broken collector must not break the scrape
                self.collector_errors += 1
        with self._lock:
            families = list(self._metrics.values())
        return [family._snapshot() for family in families]


_global_registry: MetricsRegistry | None = None
_global_lock = threading.Lock()


def get_global_registry() -> MetricsRegistry:
    """The process-wide shared registry.

    Engines default to a private registry (tests and independent consumers
    must not see each other's counters); pass
    ``ExecutionEngine(metrics=get_global_registry())`` to publish into the
    process-wide view instead — :func:`~repro.simulators.get_default_engine`
    does exactly that.
    """
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = MetricsRegistry()
        return _global_registry
