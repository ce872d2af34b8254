"""Engine-level backend dispatch: bitwise identity and never-silent fallback."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    Backend,
    BackendCapabilities,
    BackendRegistry,
    BlockedBackend,
    NumpyBackend,
)
from repro.engine import AbftConfig, MatmulEngine
from repro.telemetry import MetricsRegistry


@pytest.fixture(autouse=True)
def clear_env_pin(monkeypatch):
    # These tests assert the negotiation outcome itself, so an ambient
    # AABFT_BACKEND pin (e.g. the blocked-backend CI job) must not leak in.
    monkeypatch.delenv("AABFT_BACKEND", raising=False)


def fresh_engine(backends=None) -> MatmulEngine:
    return MatmulEngine(registry=MetricsRegistry(), backends=backends)


def operands(m, n, q, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n)).astype(dtype)
    b = rng.uniform(-1, 1, (n, q)).astype(dtype)
    return a, b


class TestBitwiseIdentity:
    """The acceptance criterion: protected results are bitwise identical
    across the numpy and blocked backends, for any tile geometry —
    including padded edge blocks at non-multiple shapes."""

    @settings(max_examples=12, deadline=None)
    @given(
        m=st.integers(1, 150),
        n=st.integers(2, 96),  # inner dim >= p (the default top-p is 2)
        q=st.integers(1, 150),
        tile=st.sampled_from([None, 16, 33, 64, 200]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_numpy_vs_blocked_property(self, m, n, q, tile, dtype):
        a, b = operands(m, n, q, dtype)
        engine = fresh_engine()
        r_np = engine.matmul(
            a, b, config=AbftConfig(backend="numpy", gemm_tile=tile)
        )
        r_bl = engine.matmul(
            a, b, config=AbftConfig(backend="blocked", gemm_tile=tile)
        )
        assert r_bl.backend == "blocked" and r_bl.backend_fallback is None
        assert r_np.c_fc.tobytes() == r_bl.c_fc.tobytes()
        assert r_np.c.tobytes() == r_bl.c.tobytes()
        assert r_np.report.num_failed == r_bl.report.num_failed

    def test_default_tile_matches_historical_bytes(self):
        # gemm_tile=None is one full-result tile: exactly the bytes the
        # engine produced before backends existed (a single BLAS call).
        a, b = operands(130, 70, 95, np.float64)
        engine = fresh_engine()
        r_default = engine.matmul(a, b)
        r_blocked = engine.matmul(a, b, config=AbftConfig(backend="blocked"))
        assert r_default.backend == "numpy"
        assert r_default.c_fc.tobytes() == r_blocked.c_fc.tobytes()

    def test_batch_modes_match_backend_dispatch(self):
        from repro.engine import ExecutionPolicy

        a, b = operands(96, 64, 80, np.float64)
        cfg = AbftConfig(backend="blocked", gemm_tile=32)
        engine = fresh_engine()
        single = engine.matmul(a, b, config=cfg)
        for mode in ("serial", "pipelined"):
            results = engine.execute_batch(
                [(a, b), (a, b)],
                policy=ExecutionPolicy(mode=mode),
                config=cfg,
            )
            assert [r.backend for r in results] == ["blocked", "blocked"]
            assert all(
                r.c_fc.tobytes() == single.c_fc.tobytes() for r in results
            )


class FailsAtDispatch(Backend):
    """Passes negotiation, then dies inside matmul."""

    @property
    def name(self):
        return "flaky"

    def capabilities(self):
        return BackendCapabilities(name="flaky")

    def matmul(self, a, b, *, out=None, tile=None, pool=None):
        raise RuntimeError("device lost")


def registry_with_flaky() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register("blocked", BlockedBackend)
    registry.register("flaky", FailsAtDispatch)
    return registry


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

    def test_dispatch_failure_retries_on_numpy_same_bytes(self):
        a, b = operands(72, 40, 66, np.float64)
        reg = MetricsRegistry()
        engine = MatmulEngine(registry=reg, backends=registry_with_flaky())
        cfg = AbftConfig(backend="flaky", gemm_tile=32)
        result = engine.matmul(a, b, config=cfg)
        assert result.backend == "numpy"
        assert "device lost" in result.backend_fallback
        fallbacks = reg.counter(
            "abft_backend_fallbacks_total", labelnames=("backend", "reason")
        )
        assert (
            fallbacks.labels(backend="flaky", reason="dispatch").get() == 1.0
        )
        # The numpy retry keeps the SAME tile: bytes stay canonical.
        reference = engine.matmul(
            a, b, config=AbftConfig(backend="numpy", gemm_tile=32)
        )
        assert result.c_fc.tobytes() == reference.c_fc.tobytes()

    def test_dispatch_counter_tracks_backends(self):
        a, b = operands(64, 48, 50, np.float64)
        reg = MetricsRegistry()
        engine = MatmulEngine(registry=reg)
        engine.matmul(a, b)
        engine.matmul(a, b, config=AbftConfig(backend="blocked"))
        dispatch = reg.counter(
            "abft_backend_dispatch_total", labelnames=("backend",)
        )
        assert dispatch.labels(backend="numpy").get() == 1.0
        assert dispatch.labels(backend="blocked").get() == 1.0

    def test_env_pin_routes_auto_configs(self, monkeypatch):
        monkeypatch.setenv("AABFT_BACKEND", "blocked")
        a, b = operands(64, 48, 50, np.float64)
        result = fresh_engine().matmul(a, b)
        assert result.backend == "blocked"

    def test_autotuned_choice_feeds_the_plan(self, tmp_path):
        from repro.backends import Autotuner, AutotuneCache, TunedChoice

        cache = AutotuneCache(tmp_path / "cache.json")
        reg = MetricsRegistry()
        tuner = Autotuner(cache, repeats=1, metrics_registry=reg)
        engine = MatmulEngine(registry=reg, autotuner=tuner)
        a, b = operands(96, 64, 96, np.float64)
        # Plant a blocked winner for exactly this signature.
        key = tuner.key(96, 64, 96, np.float64, engine.config)
        cache.put(
            key,
            TunedChoice(
                backend="blocked", tile=64, per_call_s=0.5,
                baseline_per_call_s=1.0,
            ),
        )
        result = engine.matmul(a, b)
        assert result.backend == "blocked"
        assert result.backend_fallback is None
        # Bitwise: the tuned tile is part of the plan, and numpy at the
        # same tile reproduces the bytes.
        reference = fresh_engine().matmul(
            a, b, config=AbftConfig(backend="numpy", gemm_tile=64)
        )
        assert result.c_fc.tobytes() == reference.c_fc.tobytes()

    def test_engine_autotune_entry_point(self, tmp_path):
        from repro.backends import Autotuner, AutotuneCache

        tuner = Autotuner(AutotuneCache(tmp_path / "c.json"), repeats=1)
        engine = MatmulEngine(registry=MetricsRegistry(), autotuner=tuner)
        choice = engine.autotune(64, 64, 64)
        assert choice.baseline_per_call_s > 0
        assert (
            tuner.lookup(64, 64, 64, np.float64, engine.config) == choice
        )
