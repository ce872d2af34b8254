"""Batched execute_batch: bitwise identity with the serial path, fallbacks,
metrics, and one verdict for a non-finite operand on every path."""

import numpy as np
import pytest

from repro.engine import (
    AbftConfig,
    ExecutionPolicy,
    MatmulEngine,
    pipeline_supported,
)
from repro.errors import ShapeError

PIPELINED = ExecutionPolicy(mode="pipelined")
SERIAL = ExecutionPolicy(mode="serial")


@pytest.fixture
def engine():
    return MatmulEngine()


def assert_results_bitwise_equal(batched, serial):
    for got, ref in zip(batched, serial):
        assert np.array_equal(got.c, ref.c)
        assert np.array_equal(got.c_fc, ref.c_fc)
        assert got.detected == ref.detected
        assert got.report.num_checks == ref.report.num_checks


def mode_count(engine, mode):
    return engine.registry.counter(
        "abft_engine_execute_batch_total", labelnames=("mode",)
    ).labels(mode=mode).get()


def unsupported_fallbacks(engine):
    return engine.registry.counter(
        "abft_pipeline_fallbacks_total", labelnames=("reason",)
    ).labels(reason="unsupported").get()


class TestBitwiseIdentity:
    def test_shared_left_operand(self, engine):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(4)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        batched = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert_results_bitwise_equal(batched, serial)

    def test_distinct_pairs(self, engine):
        rng = np.random.default_rng(1)
        pairs = [
            (rng.uniform(-1, 1, (64, 64)), rng.uniform(-1, 1, (64, 8)))
            for _ in range(3)
        ]
        serial = [MatmulEngine().matmul(a, b) for a, b in pairs]
        batched = engine.execute_batch(pairs, policy=PIPELINED)
        assert_results_bitwise_equal(batched, serial)

    def test_padded_shapes(self, engine):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (100, 130))  # non-multiples of block size
        bs = [rng.uniform(-1, 1, (130, 70)) for _ in range(3)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        batched = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert_results_bitwise_equal(batched, serial)

    def test_float32_batch(self, engine):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (64, 64)).astype(np.float32)
        bs = [rng.uniform(-1, 1, (64, 8)).astype(np.float32) for _ in range(3)]
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        batched = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert batched[0].c.dtype == np.float32
        assert_results_bitwise_equal(batched, serial)

    def test_epsilon_floor_respected(self, engine):
        rng = np.random.default_rng(4)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        cfg = AbftConfig(epsilon_floor=1e-10)
        serial = [MatmulEngine().matmul(a, b, config=cfg) for b in bs]
        batched = engine.execute_batch(
            [(a, b) for b in bs], policy=PIPELINED, config=cfg
        )
        assert_results_bitwise_equal(batched, serial)

    def test_encoded_handles_reused(self, engine):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        handle = engine.encode(a, side="a")
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        before = engine.stats().encode_reuses
        batched = engine.execute_batch(
            [(handle, b) for b in bs], policy=PIPELINED
        )
        assert_results_bitwise_equal(batched, serial)
        assert engine.stats().encode_reuses - before == 3
        assert mode_count(engine, "pipelined") == 1

    def test_detection_matches_serial(self, engine):
        rng = np.random.default_rng(6)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        batched = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert all(not r.detected for r in batched)
        # inject into a batched result; its provider must still locate it
        from repro.abft.checking import check_partitioned

        res = batched[1]
        res.c_fc[3, 5] += 1.0
        report = check_partitioned(
            res.c_fc, res.row_layout, res.col_layout, res.provider
        )
        assert report.error_detected
        assert (3, 5) in report.located_errors


class TestFallbacks:
    def test_sea_scheme_falls_back_to_serial(self, engine):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        cfg = AbftConfig(scheme="sea")
        results = engine.execute_batch(
            [(a, b) for b in bs], policy=PIPELINED, config=cfg
        )
        serial = [MatmulEngine().matmul(a, b, config=cfg) for b in bs]
        assert_results_bitwise_equal(results, serial)
        assert mode_count(engine, "serial") == 1
        assert unsupported_fallbacks(engine) == 1

    def test_heterogeneous_shapes_fall_back(self, engine):
        rng = np.random.default_rng(8)
        a = rng.uniform(-1, 1, (64, 64))
        b1 = rng.uniform(-1, 1, (64, 8))
        b2 = rng.uniform(-1, 1, (64, 16))
        cfg = engine.config
        assert not pipeline_supported([a, a], [b1, b2], cfg)
        results = engine.execute_batch([(a, b1), (a, b2)], policy=PIPELINED)
        assert results[0].c.shape == (64, 8)
        assert results[1].c.shape == (64, 16)
        assert unsupported_fallbacks(engine) == 1

    def test_single_pair_falls_back(self, engine):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        assert not pipeline_supported([a], [b], engine.config)
        results = engine.execute_batch([(a, b)], policy=PIPELINED)
        assert len(results) == 1 and not results[0].detected
        assert mode_count(engine, "serial") == 1

    def test_mixed_precision_pairs_fall_back(self, engine):
        # an all-float32 pair resolves to float32 while the batch as a
        # whole resolves to float64 -> per-pair dtypes diverge, no batching
        rng = np.random.default_rng(10)
        a64 = rng.uniform(-1, 1, (64, 64))
        b64 = rng.uniform(-1, 1, (64, 8))
        a32 = a64.astype(np.float32)
        b32 = b64.astype(np.float32)
        assert not pipeline_supported([a32, a64], [b32, b64], engine.config)
        results = engine.execute_batch(
            [(a32, b32), (a64, b64)], policy=PIPELINED
        )
        assert results[0].c.dtype == np.float32
        assert results[1].c.dtype == np.float64

    def test_uniform_promotion_still_fuses(self, engine):
        # float32 right operands against a float64 left operand promote
        # uniformly to float64 -> the batch runs pipelined and stays bitwise
        rng = np.random.default_rng(14)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)).astype(np.float32) for _ in range(2)]
        assert pipeline_supported([a, a], bs, engine.config)
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        batched = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert_results_bitwise_equal(batched, serial)

    def test_right_operand_handles_run_serial(self, engine):
        # the chunked encode concatenates raw right operands, so a batch of
        # pre-encoded B handles runs serial, which validates the handles
        rng = np.random.default_rng(18)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        handles = [engine.encode(b, side="b") for b in bs]
        assert not pipeline_supported([a] * 3, handles, engine.config)
        serial = [MatmulEngine().matmul(a, b) for b in bs]
        auto = engine.execute_batch([(a, h) for h in handles])
        assert_results_bitwise_equal(auto, serial)
        assert unsupported_fallbacks(engine) == 0
        pinned = engine.execute_batch(
            [(a, h) for h in handles], policy=PIPELINED
        )
        assert_results_bitwise_equal(pinned, serial)
        assert mode_count(engine, "serial") == 2
        assert unsupported_fallbacks(engine) == 1

    def test_malformed_request_raises(self, engine):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        with pytest.raises(ShapeError):
            engine.execute_batch([(a, b), (a, b, b)], policy=PIPELINED)


class TestMetrics:
    def test_fused_counts_calls_and_reuses(self, engine):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(4)]
        engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        stats = engine.stats()
        assert stats.calls == 4
        assert stats.batched_calls == 1
        # the shared A is encoded once, reused for the other three pairs
        assert stats.encode_reuses == 3

    def test_stage_timers_accumulate(self, engine):
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(3)]
        engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        stats = engine.stats()
        assert stats.encode_seconds > 0
        assert stats.multiply_seconds > 0
        assert stats.check_seconds > 0


SEPARATE = AbftConfig(fusion="separate")
FUSED_ONLINE = AbftConfig(fusion="fused", fused_tile_blocks=1)


def verdict(result):
    """Detection, findings and located errors, NaN discrepancies as 'nan'."""
    report = result.report
    findings = [
        (
            f.axis, f.block_row, f.block_col, f.encoded_row, f.encoded_col,
            f.epsilon, "nan" if np.isnan(f.discrepancy) else f.discrepancy,
        )
        for f in report.findings
    ]
    return result.detected, findings, report.located_errors


def force_probe_verdicts(engine, ok):
    """Pin every probed chunk width of every cached plan to one chunk path."""
    for plan in list(engine._plans._plans.values()):
        with plan.probe_lock:
            for width in plan.probe_verdicts:
                plan.probe_verdicts[width] = ok


class TestNonFiniteParity:
    """A NaN right operand gets one verdict and one set of findings on
    every path, and flags only its own item."""

    @pytest.fixture
    def batch(self):
        rng = np.random.default_rng(19)
        a = rng.uniform(-1, 1, (96, 64))
        bs = [rng.uniform(-1, 1, (64, 40)) for _ in range(4)]
        poisoned = [b.copy() for b in bs]
        poisoned[2][10, 7] = np.nan
        return a, bs, poisoned

    def pipelined(self, a, bs, poisoned, stacked_ok):
        engine = MatmulEngine(SEPARATE, max_workers=1)
        engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        force_probe_verdicts(engine, stacked_ok)
        return engine.execute_batch(
            [(a, b) for b in poisoned], policy=PIPELINED
        )

    def test_nan_operand_verdict_matches_on_every_path(self, batch):
        a, bs, poisoned = batch
        pairs = [(a, b) for b in poisoned]
        serial = MatmulEngine(SEPARATE).execute_batch(pairs, policy=SERIAL)
        assert [r.detected for r in serial] == [False, False, True, False]
        assert all(
            np.isnan(f.discrepancy) for f in serial[2].report.findings
        )

        concatenated = self.pipelined(a, bs, poisoned, stacked_ok=True)
        # item results are views of the chunk's one concatenated GEMM
        assert all(r.c_fc.base is not None for r in concatenated)
        per_item = self.pipelined(a, bs, poisoned, stacked_ok=False)
        assert all(r.c_fc.base is None for r in per_item)
        fused_batch = MatmulEngine(FUSED_ONLINE).execute_batch(
            pairs, policy=PIPELINED
        )
        fused_calls = [
            MatmulEngine(FUSED_ONLINE).matmul(a, b) for a, b in pairs
        ]
        assert all(r.fused for r in fused_batch + fused_calls)

        expected = [verdict(r) for r in serial]
        for path in (concatenated, per_item, fused_batch, fused_calls):
            assert [verdict(r) for r in path] == expected
