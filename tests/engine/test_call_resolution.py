"""The request index: each request is negotiated once, yet stays live.

A call's negotiated execution (dtypes, backend, fusion, plan) is indexed
by its request.  These tests pin what the index must still see between
calls: environment pins, backend registrations, plan eviction and
concurrent callers.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.backends import BackendRegistry, NumpyBackend
from repro.engine import AbftConfig, MatmulEngine
from repro.engine import engine as engine_module


@pytest.fixture(autouse=True)
def no_env_pins(monkeypatch):
    # The index must follow these pins; an ambient one would decide the
    # first call of every test.
    monkeypatch.delenv("AABFT_BACKEND", raising=False)
    monkeypatch.delenv("AABFT_FUSION", raising=False)


@pytest.fixture
def operands():
    rng = np.random.default_rng(11)
    return rng.uniform(-1, 1, (96, 64)), rng.uniform(-1, 1, (64, 80))


def counter(engine, name, labelnames=(), **labels) -> float:
    family = engine.registry.counter(name, labelnames=labelnames)
    return family.labels(**labels).get() if labels else family.get()


class TestPinsApplyFromTheNextCall:
    def test_backend_pin_set_then_cleared(
        self, operands, monkeypatch, delegate_backend
    ):
        engine = MatmulEngine()
        a, b = operands
        assert engine.matmul(a, b).backend == "numpy"
        monkeypatch.setenv("AABFT_BACKEND", delegate_backend)
        pinned = engine.matmul(a, b)
        monkeypatch.delenv("AABFT_BACKEND")
        cleared = engine.matmul(a, b)
        assert pinned.backend == delegate_backend
        assert cleared.backend == "numpy"
        assert pinned.c_fc.tobytes() == cleared.c_fc.tobytes()
        dispatch = ("backend",)
        assert counter(engine, "abft_backend_dispatch_total", dispatch,
                       backend=delegate_backend) == 1.0
        assert counter(engine, "abft_backend_dispatch_total", dispatch,
                       backend="numpy") == 2.0

    def test_fusion_pin_set_then_cleared(self, operands, monkeypatch):
        engine = MatmulEngine()
        a, b = operands
        first = engine.matmul(a, b)
        monkeypatch.setenv("AABFT_FUSION", "fused")
        pinned = engine.matmul(a, b)
        monkeypatch.delenv("AABFT_FUSION")
        cleared = engine.matmul(a, b)
        assert (first.fused, pinned.fused, cleared.fused) == (False, True, False)
        assert counter(engine, "abft_fused_calls_total") == 1.0


class TestRegistrationsApplyFromTheNextCall:
    def test_backend_registered_after_the_first_call(self, operands):
        class Late(NumpyBackend):
            name = "late"

        backends = BackendRegistry()
        backends.register("numpy", NumpyBackend)
        engine = MatmulEngine(backends=backends)
        cfg = AbftConfig(backend="late")
        a, b = operands
        before = engine.matmul(a, b, config=cfg)
        assert before.backend == "numpy"
        assert "unknown backend 'late'" in before.backend_fallback

        backends.register("late", Late)
        after = engine.matmul(a, b, config=cfg)
        assert after.backend == "late"
        assert after.backend_fallback is None
        assert counter(
            engine, "abft_backend_fallbacks_total", ("backend", "reason"),
            backend="late", reason="selection",
        ) == 1.0


class TestIndexLivesWithThePlans:
    def test_eviction_and_clear_drop_indexed_requests(self):
        engine = MatmulEngine(plan_cache_size=2)
        rng = np.random.default_rng(3)
        for n in (32, 48, 64, 80):
            a = rng.uniform(-1, 1, (n, n))
            engine.matmul(a, a)
            plans = list(engine._plans._plans.values())
            indexed = [call.plan for call in engine._plans._index.values()]
            assert len(engine._plans._index) <= engine.plan_cache_size <= 2
            assert all(any(p is q for q in plans) for p in indexed)
        engine.clear_plans()
        assert len(engine._plans._index) == 0
        misses = engine.stats().plan_misses
        engine.matmul(a, a)
        assert engine.stats().plan_misses == misses + 1


class TestNegotiatedOnce:
    def test_one_negotiation_over_a_hundred_warm_calls(
        self, operands, monkeypatch
    ):
        calls = []
        real = engine_module.negotiate

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "negotiate", spy)
        engine = MatmulEngine()
        a, b = operands
        first = engine.matmul(a, b)
        for _ in range(100):
            assert engine.matmul(a, b).c_fc.tobytes() == first.c_fc.tobytes()
        assert len(calls) == 1
        stats = engine.stats()
        assert (stats.plan_hits, stats.plan_misses) == (100, 1)


class TestConcurrentCallers:
    def test_four_threads_get_a_fresh_engines_bytes(self):
        rng = np.random.default_rng(5)
        shapes = [(64, 48, 40), (80, 64, 32), (48, 96, 72)]
        pairs = [
            (rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (n, q)))
            for m, n, q in shapes
        ]
        expected = [
            MatmulEngine().matmul(a, b).c_fc.tobytes()
            for i, (a, b) in enumerate(pairs)
        ]
        # Two plan slots for three shapes: indexing races eviction.
        engine = MatmulEngine(plan_cache_size=2)
        rounds = 12
        barrier = threading.Barrier(4)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for r in range(rounds):
                    k = (idx + r) % len(pairs)
                    got = engine.matmul(*pairs[k]).c_fc.tobytes()
                    if got != expected[k]:
                        raise AssertionError(f"bytes differ for shape {shapes[k]}")
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = engine.stats()
        assert stats.calls == 4 * rounds
        # Every call is one plan lookup, whether the index served it or not.
        assert stats.plan_hits + stats.plan_misses == 4 * rounds
        assert len(engine._plans._index) <= engine.plan_cache_size <= 2
