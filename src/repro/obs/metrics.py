"""Unified metrics registry: counters, gauges, histograms, one renderer.

The one metrics surface of the repository: the simulator, experiment
runner, faults layer, mapping service and cluster router all publish
into a :class:`MetricsRegistry`, and :func:`parse_exposition` is the one
reader of the text it renders.  Invariants:

* **Int counters** (RPL005) — :class:`Counter` rejects non-integral
  values and a counter row must render an int; floats belong in
  gauges/histograms.
* **No clocks** — the registry stores values only; anything time-shaped
  is observed by the caller with *its* injected clock and pushed in.
* **Deterministic rendering** — families render in registration order,
  series in creation order, ints bare and floats as ``%.6f``, so two
  runs with identical counter values produce byte-identical exposition
  text (the chaos harness depends on this).

:func:`global_registry` is the process-wide "one source of truth" that
``bench_report.py`` snapshots.  The service and the router each own a
registry whose label-free rows are declared once, in render order, with
:meth:`MetricsRegistry.declare`; request code updates those rows by
name (:meth:`~MetricsRegistry.inc`, :meth:`~MetricsRegistry.observe`),
and a row kept elsewhere (a batcher count, a tracer count) is a
*source* read at render time.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

#: Label set: sorted tuple of (key, value) pairs.
Labels = Tuple[Tuple[str, str], ...]

#: One declared row: ``(name, kind, source)``.  ``kind`` is ``counter``,
#: ``gauge`` or ``histogram``; ``source`` is None for a row the owner
#: updates, else ``source(owner)`` computes the value at render time.
Row = Tuple[str, str, Optional[Callable[[Any], Any]]]


def nearest_rank_index(q: float, n: int) -> int:
    """Nearest-rank quantile index: ``ceil(q*n) - 1`` clamped to [0, n).

    This is the standard nearest-rank definition; the old
    ``int(q * n)`` truncation was biased (p50 of 2 samples picked the
    *upper* sample, p99 of 100 picked index 99 instead of 98).
    """
    if n <= 0:
        raise ValueError("quantile of an empty series")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def _labels_key(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic-by-convention integer counter."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (an int) to the counter."""
        if not isinstance(amount, int) or isinstance(amount, bool):
            raise TypeError(f"counter {self.name} takes int increments, got {amount!r}")
        self._value += amount

    def set(self, value: int) -> None:
        """Overwrite the count with ``value`` (an int)."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"counter {self.name} takes int values, got {value!r}")
        self._value = value


class Gauge:
    """Point-in-time numeric value (int or float)."""

    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value: Any = 0

    @property
    def value(self) -> Any:
        """Current gauge value."""
        return self._value

    def inc(self, amount: Any = 1) -> None:
        """Add ``amount`` (negative to decrease)."""
        self._value += amount


class CallbackGauge:
    """Gauge whose value is computed on read (derived metrics)."""

    kind = "gauge"

    def __init__(self, name: str, fn: Callable[[], Any]):
        self.name = name
        self._fn = fn

    @property
    def value(self) -> Any:
        """Evaluate the callback."""
        return self._fn()


class CallbackCounter(CallbackGauge):
    """Int count kept by another object, read on render (never assigned)."""

    kind = "counter"


class Histogram:
    """Bounded sliding-window reservoir with nearest-rank quantiles.

    Not rendered in exposition text (quantiles are exported as derived
    gauges by the owner); the reservoir itself is the source of truth.
    """

    kind = "histogram"

    def __init__(self, name: str, window: int = 2048):
        self.name = name
        self._values: Deque[float] = deque(maxlen=max(1, window))
        self._observed = 0

    @property
    def count(self) -> int:
        """Total observations (including ones evicted from the window)."""
        return self._observed

    @property
    def value(self) -> int:
        """Alias for :attr:`count` (registry uniformity)."""
        return self._observed

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._values.append(float(value))
        self._observed += 1

    def quantile(self, q: float, default: float = 0.0) -> float:
        """Nearest-rank quantile over the current window."""
        if not self._values:
            return default
        ordered = sorted(self._values)
        return ordered[nearest_rank_index(q, len(ordered))]


_KINDS: Dict[str, Callable[[str], Any]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Named metric families with deterministic rendering.

    Rows declared with :meth:`declare` are updated and read by name; a
    name never declared raises :class:`KeyError`.
    """

    def __init__(self, prefix: str = ""):
        #: Prepended to every family name in :meth:`render`.
        self.prefix = prefix
        self._order: List[str] = []
        self._kinds: Dict[str, str] = {}
        self._series: Dict[str, "Dict[Labels, Any]"] = {}
        #: Declared label-free rows by name (see :meth:`declare`).
        self._rows: Dict[str, Any] = {}

    def declare(self, rows: Sequence[Row], owner: Any = None) -> "MetricsRegistry":
        """Declare label-free rows, in render order; returns ``self``.

        A row without a source starts at zero and changes only through
        :meth:`inc` and :meth:`observe`; a row with one is computed as
        ``source(owner)`` whenever it is read.
        """
        for name, kind, source in rows:
            if kind not in _KINDS:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
            if name in self._rows:
                raise ValueError(f"metric {name!r} is already declared")
            family = self._family(name, kind)
            if source is None:
                metric = _KINDS[kind](name)
            else:
                cls = CallbackCounter if kind == "counter" else CallbackGauge
                metric = cls(name, functools.partial(source, owner))
            family[()] = self._rows[name] = metric
        return self

    def inc(self, name: str, amount: Any = 1) -> None:
        """Add ``amount`` to the declared counter or gauge ``name``."""
        self._rows[name].inc(amount)

    def value(self, name: str) -> Any:
        """Current value of the declared row ``name`` (a histogram's count)."""
        return self._rows[name].value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the declared histogram ``name``."""
        self._rows[name].observe(value)

    def quantile(self, name: str, q: float) -> float:
        """Nearest-rank quantile of the declared histogram ``name`` (0.0 if empty)."""
        return self._rows[name].quantile(q, default=0.0)

    def _family(self, name: str, kind: str) -> Dict[Labels, Any]:
        known = self._kinds.get(name)
        if known is None:
            self._order.append(name)
            self._kinds[name] = kind
            self._series[name] = {}
        elif known != kind:
            raise ValueError(
                f"metric {name!r} already registered as {known}, not {kind}"
            )
        return self._series[name]

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        """Get or create the counter series ``name{labels}``."""
        family = self._family(name, "counter")
        key = _labels_key(labels)
        metric = family.get(key)
        if metric is None:
            metric = family[key] = Counter(name)
        return metric

    def callback_gauge(
        self,
        name: str,
        fn: Callable[[], Any],
        labels: Optional[Dict[str, str]] = None,
    ) -> CallbackGauge:
        """Register (or replace) a derived gauge computed on read."""
        family = self._family(name, "gauge")
        metric = CallbackGauge(name, fn)
        family[_labels_key(labels)] = metric
        return metric

    def render(self) -> str:
        """Prometheus-style exposition text.

        Histograms are skipped (their quantiles are surfaced as derived
        gauges by the owner); ints render bare, floats as ``%.6f``.  A
        counter row that reads a non-int is an error, as is any
        non-numeric value.  :func:`parse_exposition` reads it back.
        """
        lines: List[str] = []
        for name in self._order:
            kind = self._kinds[name]
            if kind == "histogram":
                continue
            full = f"{self.prefix}{name}"
            lines.append(f"# TYPE {full} {kind}")
            for key, metric in self._series[name].items():
                value = metric.value
                if (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or (kind == "counter" and not isinstance(value, int))
                ):
                    raise TypeError(
                        f"{kind} metric {name!r} cannot render value {value!r}"
                    )
                text = str(value) if isinstance(value, int) else f"{value:.6f}"
                if key:
                    label_text = ",".join(f'{k}="{v}"' for k, v in key)
                    lines.append(f"{full}{{{label_text}}} {text}")
                else:
                    lines.append(f"{full} {text}")
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, Tuple[str, Any]]:
    """Read :meth:`MetricsRegistry.render` text back: ``{series: (kind, value)}``.

    ``series`` is the row as rendered before its value, label text
    included (``name`` or ``name{k="v"}``), in exposition order.  A value
    rendered bare parses as an int, any other as a float; ``kind`` comes
    from the family's ``# TYPE`` line (``untyped`` without one).  Other
    comment lines and blank lines are skipped; a row without a numeric
    value raises :class:`ValueError`.
    """
    kinds: Dict[str, str] = {}
    rows: Dict[str, Tuple[str, Any]] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) == 4:
                kinds[parts[2]] = parts[3]
            continue
        if not line or line.startswith("#"):
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            raise ValueError(f"exposition row without a value: {line!r}")
        try:
            value: Any = int(value_text)
        except ValueError:
            value = float(value_text)
        rows[series] = (kinds.get(series.partition("{")[0], "untyped"), value)
    return rows


_global: Optional[MetricsRegistry] = None


def global_registry() -> MetricsRegistry:
    """The process-wide registry (prefix ``repro_``), created lazily."""
    global _global
    if _global is None:
        _global = MetricsRegistry(prefix="repro_")
    return _global


def reset_global_registry() -> MetricsRegistry:
    """Replace the process-wide registry with a fresh one (tests)."""
    global _global
    _global = MetricsRegistry(prefix="repro_")
    return _global
