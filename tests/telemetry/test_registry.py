"""MetricsRegistry: counters, gauges, histograms, labels, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    NULL_REGISTRY,
    BoundChildren,
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_get(self, registry):
        c = registry.counter("requests_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.get() == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("neg_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labelled_children_are_independent(self, registry):
        fam = registry.counter("by_site_total", labelnames=("site",))
        fam.labels(site="inner_mul").inc(3)
        fam.labels(site="inner_add").inc(5)
        assert fam.labels(site="inner_mul").get() == 3
        assert fam.labels(site="inner_add").get() == 5

    def test_same_labels_same_child(self, registry):
        fam = registry.counter("shared_total", labelnames=("k",))
        assert fam.labels(k="x") is fam.labels(k="x")

    def test_wrong_label_names_rejected(self, registry):
        fam = registry.counter("strict_total", labelnames=("site",))
        with pytest.raises(ConfigurationError):
            fam.labels(wrong="x")

    def test_labelled_family_rejects_bare_inc(self, registry):
        fam = registry.counter("labelled_total", labelnames=("site",))
        with pytest.raises(ConfigurationError):
            fam.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.get() == 7


class TestHistogram:
    def test_bucket_boundaries_are_le(self, registry):
        h = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.1)   # == first bound -> first bucket (le semantics)
        h.observe(0.5)
        h.observe(2.0)   # overflow
        snap = h.get()
        assert snap["buckets"][0.1] == 1
        assert snap["buckets"][1.0] == 1
        assert snap["overflow"] == 1
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(2.6)

    def test_bad_buckets_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("empty", buckets=())


class TestRegistration:
    def test_redeclaration_is_idempotent(self, registry):
        a = registry.counter("twice_total", "first")
        b = registry.counter("twice_total", "second")
        assert a is b

    def test_kind_conflict_rejected(self, registry):
        registry.counter("conflict")
        with pytest.raises(ConfigurationError):
            registry.gauge("conflict")

    def test_label_conflict_rejected(self, registry):
        registry.counter("labels_total", labelnames=("a",))
        with pytest.raises(ConfigurationError):
            registry.counter("labels_total", labelnames=("b",))

    def test_reset_zeroes_values(self, registry):
        c = registry.counter("resettable_total")
        c.inc(7)
        registry.reset()
        assert c.get() == 0.0


class TestSnapshot:
    def test_snapshot_structure(self, registry):
        registry.counter("c_total", "a counter", ("x",)).labels(x="1").inc(4)
        registry.gauge("g").set(2.5)
        snap = registry.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["values"] == [
            {"labels": {"x": "1"}, "value": 4.0}
        ]
        assert snap["g"]["values"][0]["value"] == 2.5


class TestBoundChildren:
    def test_children_bind_on_first_read(self, registry):
        fam = registry.counter("bound_total", labelnames=("rung", "scheme"))
        children = BoundChildren(fam, "rung", "scheme")
        assert registry.snapshot()["bound_total"]["values"] == []
        children["full", "aabft"].inc()
        children["full", "aabft"].inc()
        assert children["full", "aabft"] is fam.labels(rung="full", scheme="aabft")
        assert registry.snapshot()["bound_total"]["values"] == [
            {"labels": {"rung": "full", "scheme": "aabft"}, "value": 2.0}
        ]

    def test_one_label_takes_the_bare_value(self, registry):
        fam = registry.histogram("bound_seconds", labelnames=("stage",))
        BoundChildren(fam, "stage")["encode"].observe(0.5)
        assert fam.labels(stage="encode").count == 1

    def test_unlabelled_family_binds_its_child_on_first_use(self, registry):
        c = registry.counter("lazy_total")
        assert registry.snapshot()["lazy_total"]["values"] == []
        c.inc()
        registry.reset()
        c.inc(2)
        assert registry.snapshot()["lazy_total"]["values"] == [
            {"labels": {}, "value": 2.0}
        ]


class TestDisabled:
    def test_null_registry_noops(self):
        c = NULL_REGISTRY.counter("ignored_total")
        c.inc(5)
        assert c.get() == 0.0
        NULL_REGISTRY.histogram("ignored_seconds").observe(1.0)
        NULL_REGISTRY.gauge("ignored").labels().set(3)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.prometheus_text() == ""

    def test_disabled_registry_drops_events(self):
        reg = MetricsRegistry(enabled=False)
        events = []

        class Sink:
            def emit(self, event):
                events.append(event)

        reg.attach(Sink())
        reg.emit({"type": "span"})
        assert events == []


class TestDefaultRegistry:
    def test_get_set_roundtrip(self):
        original = get_registry()
        replacement = MetricsRegistry()
        try:
            previous = set_registry(replacement)
            assert previous is original
            assert get_registry() is replacement
        finally:
            set_registry(original)

    def test_set_rejects_non_registry(self):
        with pytest.raises(ConfigurationError):
            set_registry(object())


class TestThreadSafety:
    def test_concurrent_increments_are_exact(self, registry):
        fam = registry.counter("hammer_total", labelnames=("worker",))
        hist = registry.histogram("hammer_seconds", buckets=(0.5, 1.5))
        barrier = threading.Barrier(8)

        def hammer(worker: int) -> None:
            child = fam.labels(worker=str(worker % 2))
            barrier.wait()
            for _ in range(2000):
                child.inc()
                hist.observe(1.0)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert fam.labels(worker="0").get() == 8000
        assert fam.labels(worker="1").get() == 8000
        assert hist.count == 16000
        assert hist.get()["buckets"][1.5] == 16000
