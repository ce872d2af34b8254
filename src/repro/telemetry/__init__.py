"""Runtime telemetry: labelled metrics, nested timing spans, pluggable sinks.

The observability layer behind the engine, the fault-injection campaigns
and the CLI (see ``docs/OBSERVABILITY.md`` for the metric inventory):

* :class:`MetricsRegistry` — thread-safe counters / gauges / fixed-bucket
  histograms with Prometheus-style labels, JSON snapshots and text
  exposition export; zero third-party dependencies;
* :func:`span` — a context manager producing nested, per-thread timing
  spans that land in the ``abft_span_seconds`` histogram and stream to
  sinks as events;
* sinks — :class:`InMemorySink`, :class:`JsonLinesSink` (the
  ``--telemetry-out`` / CI-artifact format) and :class:`PrometheusTextSink`.

Instrumented code defaults to :func:`get_registry`, the process-wide
registry; pass :data:`NULL_REGISTRY` (or any registry built with
``enabled=False``) to turn instrumentation into cheap no-ops.
"""

from .registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    BoundChildren,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .sinks import InMemorySink, JsonLinesSink, PrometheusTextSink
from .spans import SPAN_HISTOGRAM, Span, current_span, span

__all__ = [
    "BoundChildren",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonLinesSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "PrometheusTextSink",
    "SPAN_HISTOGRAM",
    "Span",
    "current_span",
    "get_registry",
    "set_registry",
    "span",
]
