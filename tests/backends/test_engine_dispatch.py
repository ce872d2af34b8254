"""Engine-level backend dispatch: bitwise identity and never-silent fallback."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    BackendRegistry,
    NumpyBackend,
)
from repro.engine import AbftConfig, MatmulEngine
from repro.telemetry import MetricsRegistry


@pytest.fixture(autouse=True)
def clear_env_pin(monkeypatch):
    # These tests assert the negotiation outcome itself, so an ambient
    # AABFT_BACKEND or AABFT_FUSION pin must not leak in.
    monkeypatch.delenv("AABFT_BACKEND", raising=False)
    monkeypatch.delenv("AABFT_FUSION", raising=False)


def fresh_engine() -> MatmulEngine:
    return MatmulEngine(registry=MetricsRegistry())


def operands(m, n, q, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n)).astype(dtype)
    b = rng.uniform(-1, 1, (n, q)).astype(dtype)
    return a, b


class FailsAtDispatch(Backend):
    """Passes negotiation, then dies inside matmul."""

    @property
    def name(self):
        return "flaky"

    def capabilities(self):
        return BackendCapabilities(name="flaky")

    def matmul(self, a, b, *, out=None):
        raise RuntimeError("device lost")


def registry_with_flaky() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register("flaky", FailsAtDispatch)
    return registry


class TestBitwiseIdentity:
    def test_default_tile_matches_historical_bytes(self):
        # The default path is one full-result tile — one BLAS call on the
        # encoded operands: exactly np.matmul's bytes.
        a, b = operands(130, 70, 95, np.float64)
        engine = fresh_engine()
        result = engine.matmul(a, b)
        assert result.backend == "numpy"
        enc_a = engine.encode(a, side="a")
        enc_b = engine.encode(b, side="b")
        expected = np.matmul(enc_a.array, enc_b.array)
        assert result.c_fc.tobytes() == expected.tobytes()

    def test_batch_modes_match_backend_dispatch(self, delegate_backend):
        from repro.engine import ExecutionPolicy

        a, b = operands(96, 64, 80, np.float64)
        cfg = AbftConfig(backend=delegate_backend)
        engine = fresh_engine()
        single = engine.matmul(a, b, config=cfg)
        for mode in ("serial", "pipelined"):
            results = engine.execute_batch(
                [(a, b), (a, b)],
                policy=ExecutionPolicy(mode=mode),
                config=cfg,
            )
            assert [r.backend for r in results] == [delegate_backend] * 2
            assert all(
                r.c_fc.tobytes() == single.c_fc.tobytes() for r in results
            )


class TestNeverSilentFallback:
    def test_selection_fallback_is_recorded_and_counted(self):
        a, b = operands(64, 48, 50, np.float64)
        reg = MetricsRegistry()
        engine = MatmulEngine(registry=reg)
        result = engine.matmul(a, b, config=AbftConfig(backend="cupy"))
        if result.backend_fallback is None:  # pragma: no cover - CUDA host
            pytest.skip("cupy is available here")
        assert result.backend == "numpy"
        assert "cupy" in result.backend_fallback
        fallbacks = reg.counter(
            "abft_backend_fallbacks_total", labelnames=("backend", "reason")
        )
        assert (
            fallbacks.labels(backend="cupy", reason="selection").get() == 1.0
        )
        # The fallback serves the reference bytes.
        reference = engine.matmul(a, b, config=AbftConfig(backend="numpy"))
        assert result.c_fc.tobytes() == reference.c_fc.tobytes()

    def test_env_pin_on_a_removed_backend_falls_back(self, monkeypatch):
        # ``blocked`` was a shipped backend; an operator pin left over
        # from it now names an unknown backend.
        monkeypatch.setenv("AABFT_BACKEND", "blocked")
        a, b = operands(64, 48, 50, np.float64)
        reg = MetricsRegistry()
        result = MatmulEngine(registry=reg).matmul(a, b)
        assert result.backend == "numpy"
        assert "unknown backend 'blocked'" in result.backend_fallback
        fallbacks = reg.counter(
            "abft_backend_fallbacks_total", labelnames=("backend", "reason")
        )
        assert (
            fallbacks.labels(backend="blocked", reason="selection").get()
            == 1.0
        )

    def test_dispatch_failure_retries_on_numpy_same_bytes(self):
        a, b = operands(72, 40, 66, np.float64)
        reg = MetricsRegistry()
        engine = MatmulEngine(registry=reg, backends=registry_with_flaky())
        result = engine.matmul(a, b, config=AbftConfig(backend="flaky"))
        assert result.backend == "numpy"
        assert "device lost" in result.backend_fallback
        fallbacks = reg.counter(
            "abft_backend_fallbacks_total", labelnames=("backend", "reason")
        )
        assert (
            fallbacks.labels(backend="flaky", reason="dispatch").get() == 1.0
        )
        reference = engine.matmul(a, b, config=AbftConfig(backend="numpy"))
        assert result.c_fc.tobytes() == reference.c_fc.tobytes()

    def test_dispatch_counter_tracks_backends(self, delegate_backend):
        a, b = operands(64, 48, 50, np.float64)
        reg = MetricsRegistry()
        engine = MatmulEngine(registry=reg)
        engine.matmul(a, b)
        engine.matmul(a, b, config=AbftConfig(backend=delegate_backend))
        dispatch = reg.counter(
            "abft_backend_dispatch_total", labelnames=("backend",)
        )
        assert dispatch.labels(backend="numpy").get() == 1.0
        assert dispatch.labels(backend=delegate_backend).get() == 1.0

    def test_env_pin_routes_auto_configs(self, monkeypatch, delegate_backend):
        monkeypatch.setenv("AABFT_BACKEND", delegate_backend)
        a, b = operands(64, 48, 50, np.float64)
        result = fresh_engine().matmul(a, b)
        assert result.backend == delegate_backend
        assert result.backend_fallback is None

    def test_stale_cache_winner_cannot_steer_a_call(self, tmp_path):
        from repro.backends import Autotuner, AutotuneCache

        reg = MetricsRegistry()
        path = tmp_path / "cache.json"
        tuner = Autotuner(AutotuneCache(path), repeats=1, metrics_registry=reg)
        engine = MatmulEngine(registry=reg, autotuner=tuner)
        a, b = operands(96, 64, 96, np.float64)
        # A version-1 file: a (backend, tile) winner whose fusion decision
        # was timed on a backend that no longer exists.
        key = tuner.key(96, 64, 96, np.float64, engine.config)
        path.write_text(json.dumps({
            "version": 1,
            "entries": {key: {
                "backend": "blocked", "tile": 64, "per_call_s": 0.5,
                "baseline_per_call_s": 1.0, "fusion": "fused",
                "fused_tile_blocks": None, "fused_per_call_s": 0.4,
                "separate_check_s": 0.3,
            }},
        }))
        result = engine.matmul(a, b)
        assert (result.backend, result.fused) == ("numpy", False)
        assert result.backend_fallback is None
        events = reg.counter(
            "abft_backend_autotune_total", labelnames=("event",)
        )
        assert events.labels(event="cache_miss").get() == 1.0
        assert events.labels(event="cache_hit").get() == 0.0
        fallbacks = reg.snapshot()["abft_backend_fallbacks_total"]["values"]
        assert all(v["value"] == 0 for v in fallbacks)

    def test_engine_autotune_entry_point(self, tmp_path):
        from repro.backends import Autotuner, AutotuneCache

        tuner = Autotuner(AutotuneCache(tmp_path / "c.json"), repeats=1)
        engine = MatmulEngine(registry=MetricsRegistry(), autotuner=tuner)
        choice = engine.autotune(64, 64, 64)
        assert choice.per_call_s > 0
        assert (
            tuner.lookup(64, 64, 64, np.float64, engine.config) == choice
        )
