"""MatmulEngine: plan caching, batching, operand reuse, stats, protocols."""

import numpy as np
import pytest

from repro import ProtectedResult
from repro.abft import aabft_matmul, fixed_abft_matmul, sea_abft_matmul
from repro.abft.checking import check_partitioned
from repro.engine import (
    AbftConfig,
    EncodedOperand,
    ExecutionPolicy,
    MatmulEngine,
    default_engine,
)
from repro.errors import ConfigurationError, ShapeError


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def engine():
    with MatmulEngine(AbftConfig(block_size=16)) as eng:
        yield eng


class TestPlanCache:
    def test_hit_miss_accounting(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        engine.matmul(a, a)
        engine.matmul(a, a)
        engine.matmul(a, a)
        stats = engine.stats()
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2
        assert stats.plan_hit_rate == pytest.approx(2 / 3)

    def test_distinct_shapes_get_distinct_plans(self, rng, engine):
        for k in (16, 32, 48):
            x = rng.uniform(-1, 1, (k, k))
            engine.matmul(x, x)
        assert engine.stats().plan_misses == 3
        assert engine.plan_cache_size == 3

    def test_distinct_configs_get_distinct_plans(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        engine.matmul(a, a)
        engine.matmul(a, a, config=AbftConfig(block_size=16, omega=5.0))
        assert engine.stats().plan_misses == 2

    def test_lru_eviction_under_many_shapes(self, rng):
        engine = MatmulEngine(AbftConfig(block_size=16), plan_cache_size=2)
        mats = {k: rng.uniform(-1, 1, (k, k)) for k in (16, 32, 48)}
        for k in (16, 32, 48):
            engine.matmul(mats[k], mats[k])
        assert engine.plan_cache_size == 2
        assert engine.stats().plan_evictions == 1
        # 16 was evicted (least recently used): touching it again misses...
        engine.matmul(mats[16], mats[16])
        assert engine.stats().plan_misses == 4
        # ...while 48 stayed resident and hits.
        engine.matmul(mats[48], mats[48])
        assert engine.stats().plan_hits == 1

    def test_clear_plans(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        engine.matmul(a, a)
        engine.clear_plans()
        assert engine.plan_cache_size == 0
        engine.matmul(a, a)
        assert engine.stats().plan_misses == 2


class TestBitwiseEquivalence:
    def test_engine_matches_classic_functions(self, rng):
        a = rng.uniform(-1, 1, (50, 40))
        b = rng.uniform(-1, 1, (40, 30))
        engine = MatmulEngine(AbftConfig(block_size=16))
        classic = aabft_matmul(a, b, block_size=16)
        via_engine = engine.matmul(a, b)
        assert np.array_equal(classic.c, via_engine.c)
        assert np.array_equal(classic.c_fc, via_engine.c_fc)
        assert classic.detected == via_engine.detected

    def test_batched_matches_sequential(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        bs = [rng.uniform(-1, 1, (32, 32)) for _ in range(4)]
        sequential = [engine.matmul(a, b) for b in bs]
        batched = engine.execute_batch([(a, b) for b in bs])
        assert len(batched) == 4
        for s, r in zip(sequential, batched):
            assert np.array_equal(s.c, r.c)
            assert np.array_equal(s.c_fc, r.c_fc)

    def test_stacked_3d_input_as_pairs(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        stack = rng.uniform(-1, 1, (3, 32, 32))
        batched = engine.execute_batch([(a, b) for b in stack])
        for i, r in enumerate(batched):
            assert np.array_equal(r.c, engine.matmul(a, stack[i]).c)

    def test_pairwise_lists(self, rng, engine):
        As = [rng.uniform(-1, 1, (16, 16)) for _ in range(3)]
        Bs = [rng.uniform(-1, 1, (16, 16)) for _ in range(3)]
        batched = engine.execute_batch(list(zip(As, Bs)))
        for a, b, r in zip(As, Bs, batched):
            assert np.array_equal(r.c, engine.matmul(a, b).c)

    def test_mismatched_batch_lengths_rejected(self, rng, engine):
        a = rng.uniform(-1, 1, (16, 16))
        with pytest.raises(ShapeError, match="pair"):
            engine.execute_batch([(a, a), (a,)])

    def test_sea_and_fixed_schemes_match(self, rng):
        a = rng.uniform(-1, 1, (32, 32))
        b = rng.uniform(-1, 1, (32, 32))
        eng_sea = MatmulEngine(AbftConfig(block_size=16, scheme="sea"))
        assert np.array_equal(
            sea_abft_matmul(a, b, block_size=16).c, eng_sea.matmul(a, b).c
        )
        eng_fix = MatmulEngine(
            AbftConfig(block_size=16, scheme="fixed", fixed_epsilon=1e-6)
        )
        assert np.array_equal(
            fixed_abft_matmul(a, b, epsilon=1e-6, block_size=16).c,
            eng_fix.matmul(a, b).c,
        )

    def test_float32_stays_float32(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32)).astype(np.float32)
        result = engine.matmul(a, a)
        assert result.c.dtype == np.float32
        assert np.array_equal(result.c, aabft_matmul(a, a, block_size=16).c)


class TestEncodedHandles:
    def test_handle_reuse_matches_raw(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        bs = [rng.uniform(-1, 1, (32, 32)) for _ in range(3)]
        handle = engine.encode(a, side="a")
        assert isinstance(handle, EncodedOperand)
        for b in bs:
            assert np.array_equal(engine.matmul(handle, b).c, engine.matmul(a, b).c)
        assert engine.stats().encode_reuses == 3

    def test_handle_reuse_still_detects_faults(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        b = rng.uniform(-1, 1, (32, 32))
        handle = engine.encode(a, side="a")
        result = engine.matmul(handle, b)
        assert not result.detected
        # Inject a single fault into the full-checksum result and re-check
        # with the result's own provider: the handle path must flag it.
        result.c_fc[5, 7] += 1.0
        report = check_partitioned(
            result.c_fc, result.row_layout, result.col_layout, result.provider
        )
        assert report.error_detected
        assert (5, 7) in report.located_errors

    def test_side_b_handles(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        b = rng.uniform(-1, 1, (32, 32))
        hb = engine.encode(b, side="b")
        assert np.array_equal(engine.matmul(a, hb).c, engine.matmul(a, b).c)

    def test_wrong_side_rejected(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        handle = engine.encode(a, side="a")
        with pytest.raises(ConfigurationError, match="side"):
            engine.matmul(a, handle)

    def test_config_mismatch_rejected(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        handle = engine.encode(a, side="a")
        with pytest.raises(ConfigurationError, match="block_size"):
            engine.matmul(handle, a, config=AbftConfig(block_size=32))

    def test_dtype_mismatch_rejected(self, rng, engine):
        a32 = rng.uniform(-1, 1, (32, 32)).astype(np.float32)
        b64 = rng.uniform(-1, 1, (32, 32))
        handle = engine.encode(a32, side="a")  # encoded float32
        with pytest.raises(ConfigurationError, match="re-encode"):
            engine.matmul(handle, b64)  # pairing resolves to float64

    def test_shared_raw_operand_encoded_once(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        bs = [rng.uniform(-1, 1, (32, 32)) for _ in range(4)]
        engine.execute_batch(
            [(a, b) for b in bs], policy=ExecutionPolicy(mode="serial")
        )
        assert engine.stats().encode_reuses == 4


class TestStatsAndLifecycle:
    def test_counters(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        engine.matmul(a, a)
        engine.execute_batch([(a, a), (a, a)])
        stats = engine.stats()
        assert stats.calls == 3
        assert stats.batched_calls == 1
        assert stats.detections == 0
        assert stats.total_seconds > 0.0
        as_dict = stats.as_dict()
        assert as_dict["calls"] == 3
        assert "plan_hit_rate" in as_dict

    def test_reset_stats_keeps_plans(self, rng, engine):
        a = rng.uniform(-1, 1, (32, 32))
        engine.matmul(a, a)
        engine.reset_stats()
        assert engine.stats().calls == 0
        assert engine.plan_cache_size == 1

    def test_default_engine_is_a_shared_singleton(self):
        assert default_engine() is default_engine()
        assert isinstance(default_engine(), MatmulEngine)

    def test_classic_functions_route_through_default_engine(self, rng):
        a = rng.uniform(-1, 1, (48, 48))
        before = default_engine().stats().calls
        aabft_matmul(a, a, block_size=16)
        assert default_engine().stats().calls == before + 1

    def test_shape_errors(self, rng, engine):
        with pytest.raises(ShapeError):
            engine.matmul(rng.uniform(-1, 1, (4,)), rng.uniform(-1, 1, (4, 4)))
        with pytest.raises(ShapeError, match="inner dimensions"):
            engine.matmul(rng.uniform(-1, 1, (8, 4)), rng.uniform(-1, 1, (8, 4)))

    def test_bad_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            MatmulEngine(config={"block_size": 64})


class TestProtectedResultProtocol:
    def test_abft_result_satisfies_protocol(self, rng, engine):
        a = rng.uniform(-1, 1, (16, 16))
        assert isinstance(engine.matmul(a, a), ProtectedResult)

    def test_pipeline_result_satisfies_protocol(self, rng):
        from repro import AABFTPipeline, GpuSimulator

        a = rng.uniform(-1, 1, (16, 16))
        pipeline = AABFTPipeline(GpuSimulator(), block_size=16)
        assert isinstance(pipeline.run(a, a), ProtectedResult)
