"""Thread-safe metrics primitives and the registry that owns them.

The paper's value claim is *measured* (Table 2/3 speedups, per-stage
cost breakdowns), so telemetry is a first-class subsystem: every
counter the runtime or serving layer exposes lives in (or is collected
by) a :class:`MetricsRegistry`, which renders one coherent snapshot --
JSON via :meth:`MetricsRegistry.snapshot`, Prometheus text via
:func:`repro.obs.export.prometheus_text`.

Three owned metric kinds:

* :class:`Counter` -- monotonically increasing (exact under any number
  of threads; one lock per counter).
* :class:`Gauge` -- a point-in-time value, settable or backed by a
  callback (e.g. live queue depth).
* :class:`Histogram` -- streaming distribution with exact count / sum /
  min / max plus a *bounded reservoir* of samples for percentiles.  The
  reservoir uses seeded Algorithm R (Vitter), so it stays an unbiased
  sample of the **whole** stream: a long-lived server's p95 tracks the
  live distribution instead of freezing on the first ``max_samples``
  observations.  Percentiles are true nearest-rank
  (``ceil(q/100 * n) - 1`` on the sorted samples), matching
  ``np.percentile(..., method="inverted_cdf")``; in particular p100 is
  the retained maximum regardless of arrival order.

Components whose counters must stay inside their own locks (the plan
cache, scratch pools) are exported through *collectors*: callables
registered with :meth:`MetricsRegistry.register_collector` that yield
:class:`Sample` rows at snapshot/export time.
"""

from __future__ import annotations

import logging
import math
import random
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

logger = logging.getLogger(__name__)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "format_metric_name",
    "global_registry",
    "nearest_rank",
]

#: Default seed for histogram reservoirs (deterministic tests/benchmarks).
RESERVOIR_SEED = 2021

#: Quantiles exported by histogram snapshots and the Prometheus text.
SNAPSHOT_QUANTILES = (50.0, 95.0, 99.0)

LabelItems = Tuple[Tuple[str, str], ...]


def _freeze_labels(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: Dict[str, str]) -> str:
    """Canonical ``name{key="value",...}`` rendering (sorted keys)."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def nearest_rank(sorted_samples: List[float], q: float) -> float:
    """True nearest-rank percentile over pre-sorted samples.

    ``ceil(q/100 * n) - 1`` (0-indexed), clamped to the valid range --
    the inverted-CDF definition, so p100 is always the maximum and p95
    over 100 samples reads the 95th order statistic (index 94 is the
    *95th* value), unlike the former ``round(q/100 * (n-1))`` which was
    neither nearest-rank nor interpolation.
    """
    n = len(sorted_samples)
    if n == 0:
        return 0.0
    rank = math.ceil(q / 100.0 * n) - 1
    return sorted_samples[min(n - 1, max(0, rank))]


class Counter:
    """Monotonic counter; ``inc`` is exact under concurrent callers."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the counter (epoch reset; see ``reset_stats`` callers)."""
        with self._lock:
            self._value = 0


class Gauge:
    """Point-in-time value: set directly or backed by a callback.

    ``set_function`` turns the gauge into a live view (queue depth,
    resident bytes); ``set_max`` keeps a running maximum (largest
    coalesced batch).
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = value

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self._value:
                self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        return float(fn())

    def reset(self) -> None:
        with self._lock:
            if self._fn is None:
                self._value = 0.0


class Histogram:
    """Streaming distribution with a seeded Algorithm-R reservoir.

    Exact ``count`` / ``sum`` / ``min`` / ``max`` are kept for the whole
    stream; percentiles come from a bounded reservoir that remains an
    unbiased uniform sample of *everything observed so far*: the i-th
    observation replaces a random reservoir slot with probability
    ``max_samples / i`` (Vitter's Algorithm R).  A distribution shift
    after the buffer fills therefore moves the percentiles -- the
    fixed "first ``max_samples`` wins" buffer this replaces pinned them
    to the warmup distribution forever.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Optional[Dict[str, str]] = None,
        max_samples: int = 4096,
        seed: int = RESERVOIR_SEED,
    ) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self.max_samples = max_samples
        self._seed = seed
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.max_samples:
                    self._samples[slot] = value

    def samples(self) -> List[float]:
        """Copy of the current reservoir (unsorted arrival order)."""
        with self._lock:
            return list(self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (0 if empty)."""
        with self._lock:
            ordered = sorted(self._samples)
        return nearest_rank(ordered, q)

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            count, total = self.count, self.total
            mn = self.min if count else 0.0
            mx = self.max
            ordered = sorted(self._samples)
        doc: Dict[str, float] = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": mn,
            "max": mx,
        }
        for q in SNAPSHOT_QUANTILES:
            doc[f"p{q:g}"] = nearest_rank(ordered, q)
        return doc

    def reset(self) -> None:
        with self._lock:
            self._samples = []
            self._rng = random.Random(self._seed)
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = 0.0


@dataclass
class Sample:
    """One collected metric row (from a registry *collector*)."""

    name: str
    value: float
    labels: Dict[str, str] = field(default_factory=dict)
    kind: str = "gauge"
    help: str = ""

    @property
    def full_name(self) -> str:
        return format_metric_name(self.name, self.labels)


Metric = Any  # Counter | Gauge | Histogram


class MetricsRegistry:
    """Named, labeled metrics plus collector callbacks, one lock.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the same
    ``(name, labels)`` pair always returns the same object, so
    components can look their metrics up idempotently.  Requesting an
    existing name with a different metric kind raises -- a registry
    renders each name with exactly one TYPE line.

    Components that keep their counters under their own locks (plan
    cache, scratch pools, sessions) register a *collector*: a callable
    returning an iterable of :class:`Sample`, pulled at snapshot and
    export time so the output always reflects live state.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}
        self._kinds: Dict[str, str] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []
        #: Created lazily on the first collector failure, so registries
        #: with healthy collectors keep their historical snapshot shape.
        self._collector_errors: Optional[Counter] = None
        self._collector_warned = False

    # -- owned metrics --------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels: Dict[str, Any], **kwargs):
        frozen = _freeze_labels(labels)
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {kind}, "
                    f"cannot re-register as a {cls.kind}"
                )
            metric = self._metrics.get((name, frozen))
            if metric is None:
                metric = cls(name, help=help, labels=dict(frozen), **kwargs)
                self._metrics[(name, frozen)] = metric
                self._kinds[name] = cls.kind
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None, **labels
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        max_samples: int = 4096,
        seed: int = RESERVOIR_SEED,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, max_samples=max_samples, seed=seed
        )

    def metrics(self) -> List[Metric]:
        """All owned metrics, sorted by (name, labels)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def find(self, name: str, **labels) -> Optional[Metric]:
        """Look up an owned metric without creating it (None if absent).

        This is how the background tuner reads the live
        ``repro_queue_depth{model=...}`` gauge -- read-only access that
        cannot accidentally mint an empty metric under a typo'd label
        set."""
        frozen = _freeze_labels(labels)
        with self._lock:
            return self._metrics.get((name, frozen))

    # -- collectors -----------------------------------------------------
    def register_collector(self, fn: Callable[[], Iterable[Sample]]) -> None:
        """Add a callable yielding :class:`Sample` rows at export time."""
        with self._lock:
            self._collectors.append(fn)

    def collect(self) -> List[Sample]:
        """Run every collector; a failing collector is skipped, never
        fatal (export must not take the serving path down) -- but never
        *silently*: failures count into ``repro_collector_errors_total``
        and the first one logs its traceback, so a broken collector
        cannot quietly blank a dashboard.
        """
        with self._lock:
            collectors = list(self._collectors)
        samples: List[Sample] = []
        for fn in collectors:
            try:
                samples.extend(fn())
            except Exception:
                if self._collector_errors is None:
                    self._collector_errors = self.counter(
                        "repro_collector_errors_total",
                        help="collector callbacks that raised during "
                        "collect() (their samples were dropped)",
                    )
                self._collector_errors.inc()
                if not self._collector_warned:
                    self._collector_warned = True
                    logger.warning(
                        "metrics collector %r raised (samples dropped; "
                        "counted in repro_collector_errors_total):\n%s",
                        fn,
                        traceback.format_exc(),
                    )
                continue
        return samples

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able snapshot of every owned metric and collector row."""
        doc: Dict[str, Dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "collected": {},
        }
        for metric in self.metrics():
            full = format_metric_name(metric.name, metric.labels)
            if metric.kind == "counter":
                doc["counters"][full] = metric.value
            elif metric.kind == "gauge":
                doc["gauges"][full] = metric.value
            else:
                doc["histograms"][full] = metric.snapshot()
        for sample in self.collect():
            doc["collected"][sample.full_name] = sample.value
        return doc

    def reset(self) -> None:
        """Reset every owned metric (collectors are live views and are
        left alone)."""
        for metric in self.metrics():
            metric.reset()


_global_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _global_registry
