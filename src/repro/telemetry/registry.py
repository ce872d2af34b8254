"""A zero-dependency, thread-safe metrics registry.

The registry implements the small subset of the Prometheus data model the
runtime needs — labelled **counters**, **gauges** and fixed-bucket
**histograms** — without pulling in a client library:

* metric state lives in per-child objects behind their own locks, so the
  hot path (one ``inc()``/``observe()``) is a lock plus an add;
* a registry created with ``enabled=False`` (or the shared
  :data:`NULL_REGISTRY`) hands out no-op metrics, so instrumented code pays
  a single attribute access when telemetry is off;
* :meth:`MetricsRegistry.snapshot` returns a JSON-friendly dict and
  :meth:`MetricsRegistry.prometheus_text` renders the text exposition
  format, so any scrape/export path works off the same state;
* event-style output (span records, snapshots) goes through attached
  sinks (:mod:`repro.telemetry.sinks`); with no sinks attached,
  :meth:`MetricsRegistry.emit` is a truthiness check and a return.

Metric names follow the Prometheus conventions used throughout the repo:
``abft_<subsystem>_<what>_total`` for counters, ``_seconds`` suffixes for
time, and bounded label cardinality (sites, schemes, stages — never
shapes or indices).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from ..errors import ConfigurationError

__all__ = [
    "BoundChildren",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]

#: Default histogram buckets (seconds): sub-millisecond kernels up to
#: multi-second campaign stages; +Inf is implicit.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing value (one child of a counter family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        with self._lock:
            self._value += amount

    def get(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def get(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _validated_buckets(buckets) -> tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ConfigurationError(
            f"histogram buckets must be non-empty and increasing: {buckets}"
        )
    return bounds


class Histogram:
    """Observations aggregated into fixed, cumulative-``le`` buckets."""

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = _validated_buckets(buckets)
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: > largest bound
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def get(self) -> dict:
        """Snapshot: per-bucket raw counts, total sum and count."""
        with self._lock:
            return {
                "buckets": dict(zip(self.bounds, self._counts)),
                "overflow": self._counts[-1],
                "sum": self._sum,
                "count": self._count,
            }

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0
            self._count = 0


class _NullMetric:
    """Answers every metric method as a no-op (disabled registries)."""

    __slots__ = ()
    bounds: tuple[float, ...] = ()
    sum = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self):
        return 0.0

    def reset(self) -> None:
        pass

    def labels(self, **label_values):
        return self


_NULL_METRIC = _NullMetric()


class BoundChildren(dict):
    """A labelled family's children by label values, bound on first use.

    ``children[value]`` (one label) or ``children[(v1, v2, ...)]`` (several,
    in ``labelnames`` order) is ``family.labels(...)`` for those values:
    the first read calls :meth:`MetricFamily.labels`, later reads are one
    dict lookup.  No child exists before its first read, so snapshots and
    scrapes list exactly the children that ``labels()`` calls would have
    created.  Racing first reads are harmless: ``labels()`` hands every
    caller the same child.
    """

    def __init__(self, family, *labelnames: str) -> None:
        super().__init__()
        self._family = family
        self._labelnames = labelnames

    def __missing__(self, key):
        values = (key,) if len(self._labelnames) == 1 else key
        child = self[key] = self._family.labels(
            **dict(zip(self._labelnames, values))
        )
        return child


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by label values.

    For a family declared without label names the family itself behaves as
    its single child: ``inc``/``set``/``observe`` forward to the
    ``labels()``-less child, so unlabelled metrics stay one attribute
    lookup away.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = _validated_buckets(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        self._default = None

    def labels(self, **label_values):
        """The child for one label-value combination (created on demand)."""
        if set(label_values) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self.buckets or DEFAULT_BUCKETS)
                else:
                    child = _CHILD_TYPES[self.kind]()
                self._children[key] = child
        return child

    # -- unlabelled convenience forwards --------------------------------
    def _default_child(self):
        child = self._default
        if child is None:
            if self.labelnames:
                raise ConfigurationError(
                    f"metric {self.name!r} is labelled {self.labelnames}; "
                    "call .labels(...) first"
                )
            # Bound on first use, so an unused family still lists no child.
            child = self._default = self.labels()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def get(self):
        return self._default_child().get()

    @property
    def sum(self) -> float:
        return self._default_child().sum

    @property
    def count(self) -> int:
        return self._default_child().count

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    return repr(value) if isinstance(value, float) else str(value)


def _label_string(labelnames: tuple[str, ...], key: tuple[str, ...], extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(v)}"' for n, v in zip(labelnames, key)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Thread-safe home of metric families plus attached event sinks.

    Parameters
    ----------
    enabled:
        ``False`` turns the registry into a no-op shell: declared metrics
        are shared null objects and :meth:`emit` drops events.  Use the
        module-level :data:`NULL_REGISTRY` rather than building disabled
        registries ad hoc.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._sinks: list = []

    # -- declaration ----------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ):
        if not self.enabled:
            return _NULL_METRIC
        labelnames = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, labelnames, buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != labelnames:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}; cannot redeclare as "
                    f"{kind} with labels {labelnames}"
                )
        return family

    def counter(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        """Declare (or fetch) a counter family; idempotent per name."""
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        """Declare (or fetch) a gauge family; idempotent per name."""
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        """Declare (or fetch) a fixed-bucket histogram family."""
        return self._register(name, "histogram", help, labelnames, buckets)

    # -- sinks / events -------------------------------------------------
    def attach(self, sink) -> None:
        """Route subsequent :meth:`emit` events to ``sink`` as well."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks.append(sink)

    def detach(self, sink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    @property
    def sinks(self) -> list:
        with self._lock:
            return list(self._sinks)

    def emit(self, event: dict) -> None:
        """Forward one event dict to every attached sink (no-op without)."""
        if not self.enabled or not self._sinks:
            return
        for sink in self.sinks:
            sink.emit(event)

    def write_snapshot(self) -> None:
        """Emit a ``{"type": "snapshot"}`` event carrying :meth:`snapshot`."""
        self.emit({"type": "snapshot", "metrics": self.snapshot()})

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict:
        """All metric state as a JSON-friendly dict keyed by metric name."""
        with self._lock:
            families = list(self._families.values())
        out: dict = {}
        for family in families:
            values = [
                {
                    "labels": dict(zip(family.labelnames, key)),
                    "value": child.get(),
                }
                for key, child in family.children()
            ]
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return out

    def prometheus_text(self) -> str:
        """The registry state in the Prometheus text exposition format."""
        with self._lock:
            families = list(self._families.values())
        lines: list[str] = []
        for family in families:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in family.children():
                if family.kind == "histogram":
                    snap = child.get()
                    cumulative = 0
                    for bound in child.bounds:
                        cumulative += snap["buckets"][bound]
                        labels = _label_string(
                            family.labelnames, key,
                            extra=f'le="{_format_value(bound)}"',
                        )
                        lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    labels = _label_string(family.labelnames, key, extra='le="+Inf"')
                    lines.append(f"{family.name}_bucket{labels} {snap['count']}")
                    base = _label_string(family.labelnames, key)
                    lines.append(f"{family.name}_sum{base} {_format_value(snap['sum'])}")
                    lines.append(f"{family.name}_count{base} {snap['count']}")
                else:
                    labels = _label_string(family.labelnames, key)
                    lines.append(f"{family.name}{labels} {_format_value(child.get())}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every metric child (declarations and sinks are kept)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()


#: The shared always-disabled registry: every metric it hands out no-ops.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (enabled, no sinks attached)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default registry; returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise ConfigurationError(
            f"expected a MetricsRegistry, got {type(registry).__name__}"
        )
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
