"""Engine integration of the fused online-ABFT path.

Negotiation (config pin, env pin, policy knob), bitwise parity against
the separate path across every batch mode, `abft_fused_*` telemetry,
never-silent per-item fallback, and early-abort surfacing through the
chaos seam.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.abft.providers import AABFTEpsilonProvider
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine


@pytest.fixture
def operands():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, (96, 48))
    bs = [rng.uniform(-1, 1, (48, 64)) for _ in range(4)]
    return a, bs


def counter_value(engine, name, **labels):
    family = engine.registry.snapshot().get(name, {"values": []})
    total = 0.0
    for entry in family["values"]:
        if all(entry["labels"].get(k) == v for k, v in labels.items()):
            total += entry["value"]
    return total


FUSED = AbftConfig(block_size=16, fusion="fused")
SEPARATE = AbftConfig(block_size=16, fusion="separate")


class TestNegotiation:
    def test_config_pin_runs_fused_with_identical_bytes(self, operands):
        a, bs = operands
        fused = MatmulEngine(FUSED).matmul(a, bs[0])
        separate = MatmulEngine(SEPARATE).matmul(a, bs[0])
        assert fused.fused and fused.fused_fallback is None
        assert not separate.fused
        # Degenerate single-tile fusion: the separate path's exact bytes.
        assert fused.c_fc.tobytes() == separate.c_fc.tobytes()
        assert np.array_equal(
            fused.report.column_disc, separate.report.column_disc
        )
        assert np.array_equal(fused.report.row_disc, separate.report.row_disc)

    def test_env_pin_routes_auto_configs(self, operands, monkeypatch):
        monkeypatch.setenv("AABFT_FUSION", "fused")
        a, bs = operands
        result = MatmulEngine(AbftConfig(block_size=16)).matmul(a, bs[0])
        assert result.fused

    def test_config_pin_beats_env_pin(self, operands, monkeypatch):
        monkeypatch.setenv("AABFT_FUSION", "fused")
        a, bs = operands
        result = MatmulEngine(SEPARATE).matmul(a, bs[0])
        assert not result.fused

    def test_policy_knob_threads_through_execute_batch(self, operands):
        a, bs = operands
        engine = MatmulEngine(SEPARATE)
        pairs = [(a, b) for b in bs]
        results = engine.execute_batch(
            pairs,
            policy=ExecutionPolicy(mode="serial"),
            config=SEPARATE.replace(fusion="fused"),
        )
        assert all(r.fused for r in results)

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    def test_batch_modes_match_per_call_fused_bytes(self, operands, mode):
        a, bs = operands
        per_call = [MatmulEngine(FUSED).matmul(a, b) for b in bs]
        engine = MatmulEngine(FUSED)
        results = engine.execute_batch(
            [(a, b) for b in bs], policy=ExecutionPolicy(mode=mode)
        )
        for got, want in zip(results, per_call):
            assert got.fused
            assert got.c_fc.tobytes() == want.c_fc.tobytes()


class TestTelemetry:
    def test_fused_counters_advance(self, operands):
        a, bs = operands
        engine = MatmulEngine(FUSED)
        engine.matmul(a, bs[0])
        assert counter_value(engine, "abft_fused_calls_total") == 1.0
        assert counter_value(engine, "abft_fused_tiles_checked_total") >= 1.0
        assert counter_value(engine, "abft_fused_early_aborts_total") == 0.0

    def test_separate_runs_leave_fused_counters_untouched(self, operands):
        a, bs = operands
        engine = MatmulEngine(SEPARATE)
        engine.matmul(a, bs[0])
        assert counter_value(engine, "abft_fused_calls_total") == 0.0


class TestNeverSilent:
    def test_missing_epsilon_grids_fall_back_with_counted_reason(
        self, operands, monkeypatch
    ):
        a, bs = operands
        monkeypatch.setattr(
            AABFTEpsilonProvider,
            "epsilon_grids",
            lambda self, *args, **kwargs: None,
        )
        engine = MatmulEngine(FUSED)
        result = engine.matmul(a, bs[0])
        # The product is still protected, just via the separate path,
        # and the fallback is recorded on the result and in telemetry.
        assert not result.fused
        assert result.fused_fallback is not None
        assert not result.detected
        assert counter_value(
            engine, "abft_fused_fallbacks_total", reason="no_epsilon_grids"
        ) == 1.0

    def test_fallback_bytes_match_the_separate_path(
        self, operands, monkeypatch
    ):
        a, bs = operands
        separate = MatmulEngine(SEPARATE).matmul(a, bs[0])
        monkeypatch.setattr(
            AABFTEpsilonProvider,
            "epsilon_grids",
            lambda self, *args, **kwargs: None,
        )
        fallen_back = MatmulEngine(FUSED).matmul(a, bs[0])
        assert fallen_back.c_fc.tobytes() == separate.c_fc.tobytes()


class TestEarlyAbort:
    def test_persistent_tile_flip_aborts_and_is_detected(self, operands):
        a, bs = operands
        engine = MatmulEngine(
            AbftConfig(block_size=16, fusion="fused", fused_tile_blocks=1)
        )

        def flip(event, **kw):
            if event != "tile_result" or kw["tile_index"] != 0:
                return
            tile = kw["c_tile"]
            cell = np.ascontiguousarray(tile[0, 0:1])
            cell.view(np.uint64)[:] ^= np.uint64(1 << 44)
            tile[0, 0] = cell[0]

        engine.set_chaos_hook(flip)
        result = engine.matmul(a, bs[0])
        assert result.fused
        assert result.detected
        assert counter_value(engine, "abft_fused_early_aborts_total") == 1.0
        assert counter_value(engine, "abft_fused_tile_recomputes_total") >= 1.0
