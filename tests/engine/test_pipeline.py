"""Stage-pipelined execute_batch: bitwise identity, scheduling, policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AbftConfig,
    ExecutionPolicy,
    MatmulEngine,
    PipelineSchedule,
    pipeline_supported,
    plan_schedule,
)
from repro.engine.pipeline import _WINDOW, _greedy_slots
from repro.engine.stats import StageCost, StageCosts
from repro.errors import ConfigurationError
from repro.telemetry import MetricsRegistry

PIPELINED = ExecutionPolicy(mode="pipelined")


def fresh_engine(**kwargs) -> MatmulEngine:
    kwargs.setdefault("registry", MetricsRegistry())
    return MatmulEngine(**kwargs)


def assert_bitwise_equal(results, reference):
    assert len(results) == len(reference)
    for got, ref in zip(results, reference):
        assert got.c.tobytes() == ref.c.tobytes()
        assert got.c_fc.tobytes() == ref.c_fc.tobytes()
        assert got.detected == ref.detected
        assert got.report.num_checks == ref.report.num_checks
        assert np.array_equal(got.report.column_disc, ref.report.column_disc)
        assert np.array_equal(got.report.row_disc, ref.report.row_disc)


class TestBitwiseIdentity:
    """The hard invariant: pipelined results are bitwise identical to
    sequential matmul calls — including padded edge blocks, float32 and
    the per-item reference fallback when the concat probe fails."""

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(1, 120),
        n=st.integers(2, 96),  # inner dim >= p (the default top-p is 2)
        q=st.integers(1, 80),
        k=st.integers(2, 5),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_pipelined_matches_serial_property(self, m, n, q, k, dtype):
        rng = np.random.default_rng(m * 1000 + n * 10 + q + k)
        a = rng.uniform(-1, 1, (m, n)).astype(dtype)
        bs = [rng.uniform(-1, 1, (n, q)).astype(dtype) for _ in range(k)]
        engine = fresh_engine()
        reference = [MatmulEngine().matmul(a, b) for b in bs]
        results = engine.execute_batch(
            [(a, b) for b in bs], policy=PIPELINED
        )
        assert_bitwise_equal(results, reference)

    def test_pipelined_matches_serial_on_blocked_backend(self):
        rng = np.random.default_rng(21)
        cfg = AbftConfig(backend="blocked", gemm_tile=32)
        a = rng.uniform(-1, 1, (100, 70))
        bs = [rng.uniform(-1, 1, (70, 40)) for _ in range(4)]
        reference = [MatmulEngine().matmul(a, b, config=cfg) for b in bs]
        engine = fresh_engine()
        results = engine.execute_batch(
            [(a, b) for b in bs], policy=PIPELINED, config=cfg
        )
        assert_bitwise_equal(results, reference)

    def test_small_chunks_defeating_coalescing_stay_bitwise(self):
        # Distinct left operands interleaved with a shared one: the
        # singleton groups run as one-pair chunks (no concatenation win)
        # beside a three-pair chunk — the answer must not change.
        rng = np.random.default_rng(22)
        shared = rng.uniform(-1, 1, (64, 48))
        lefts = [shared, rng.uniform(-1, 1, (64, 48)), shared,
                 rng.uniform(-1, 1, (64, 48)), shared]
        pairs = [(a, rng.uniform(-1, 1, (48, 24))) for a in lefts]
        reference = [MatmulEngine().matmul(a, b) for a, b in pairs]
        engine = fresh_engine(max_workers=1)
        results = engine.execute_batch(pairs, policy=PIPELINED)
        assert_bitwise_equal(results, reference)
        chunks = engine.registry.counter("abft_pipeline_chunks_total").get()
        assert chunks == 3

    def test_distinct_left_operands_stay_bitwise(self):
        rng = np.random.default_rng(23)
        pairs = [
            (rng.uniform(-1, 1, (64, 64)), rng.uniform(-1, 1, (64, 16)))
            for _ in range(4)
        ]
        reference = [MatmulEngine().matmul(a, b) for a, b in pairs]
        engine = fresh_engine()
        results = engine.execute_batch(pairs, policy=PIPELINED)
        assert_bitwise_equal(results, reference)

    def test_mixed_shapes_fall_back_and_stay_bitwise(self):
        rng = np.random.default_rng(24)
        a = rng.uniform(-1, 1, (64, 64))
        b1 = rng.uniform(-1, 1, (64, 8))
        b2 = rng.uniform(-1, 1, (64, 16))
        assert not pipeline_supported([a, a], [b1, b2], AbftConfig())
        engine = fresh_engine()
        results = engine.execute_batch([(a, b1), (a, b2)], policy=PIPELINED)
        reference = [MatmulEngine().matmul(a, b) for b in (b1, b2)]
        assert_bitwise_equal(results, reference)
        fallbacks = engine.registry.counter(
            "abft_pipeline_fallbacks_total", labelnames=("reason",)
        )
        assert fallbacks.labels(reason="unsupported").get() == 1

    def test_probe_pinned_signature_stays_bitwise_on_repeat(self):
        # Whatever verdict the first chunk's dual-compute probe reaches,
        # later batches of the same signature must reuse it and stay
        # bitwise — run the same batch twice through one engine.
        rng = np.random.default_rng(25)
        a = rng.uniform(-1, 1, (64, 48))
        bs = [rng.uniform(-1, 1, (48, 40)) for _ in range(4)]
        reference = [MatmulEngine().matmul(a, b) for b in bs]
        engine = fresh_engine()
        for _ in range(2):
            results = engine.execute_batch(
                [(a, b) for b in bs], policy=PIPELINED
            )
            assert_bitwise_equal(results, reference)

    def test_injected_fault_detected_through_pipelined_provider(self):
        from repro.abft.checking import check_partitioned

        rng = np.random.default_rng(26)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(3)]
        engine = fresh_engine()
        results = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        res = results[2]
        assert not res.detected
        res.c_fc[3, 5] += 1.0
        report = check_partitioned(
            res.c_fc, res.row_layout, res.col_layout, res.provider
        )
        assert report.error_detected
        assert (3, 5) in report.located_errors


WARM = StageCosts(
    encode=StageCost(seconds=0.4, observations=100),
    multiply=StageCost(seconds=1.0, observations=100),
    check=StageCost(seconds=0.3, observations=100),
)
COLD = StageCosts()


def stage_complete(schedule: PipelineSchedule) -> None:
    """Every chunk is encoded, multiplied and checked exactly once, in
    dependency order, and the encode lane never runs past the window."""
    n = schedule.num_chunks
    done: dict[str, set[int]] = {"encode": set(), "multiply": set(), "check": set()}
    for stage, idx in schedule.slots:
        assert idx not in done[stage], f"duplicate {stage} slot {idx}"
        if stage == "multiply":
            assert idx in done["encode"], "multiply before encode"
        if stage == "check":
            assert idx in done["multiply"], "check before multiply"
        if stage == "encode":
            lead = len(done["encode"]) - len(done["multiply"])
            assert lead < schedule.window, "encode lane overran the window"
        done[stage].add(idx)
    assert all(len(v) == n for v in done.values())


class TestPlanSchedule:
    def test_cold_engine_stays_serial(self):
        schedule = plan_schedule([8], COLD, workers=4)
        assert not schedule.overlap
        assert schedule.window == 1
        assert schedule.predicted_serial_s == 0.0
        assert schedule.predicted_overlap_s == 0.0
        stage_complete(schedule)

    def test_single_worker_uses_one_chunk_per_group(self):
        schedule = plan_schedule([6, 4], WARM, workers=1)
        assert not schedule.overlap
        # one chunk per group: maximum amortisation when nothing overlaps
        assert schedule.chunks == ((0, 6), (1, 4))
        stage_complete(schedule)

    def test_warm_multiworker_overlaps(self):
        schedule = plan_schedule([24], WARM, workers=4)
        assert schedule.overlap
        assert schedule.window == _WINDOW
        assert schedule.num_chunks >= 2
        assert 0 < schedule.predicted_overlap_s < schedule.predicted_serial_s
        stage_complete(schedule)

    def test_window_one_is_the_serial_slot_order(self):
        slots = _greedy_slots(3, window=1)
        assert slots == (
            ("encode", 0), ("multiply", 0), ("check", 0),
            ("encode", 1), ("multiply", 1), ("check", 1),
            ("encode", 2), ("multiply", 2), ("check", 2),
        )

    def test_wide_window_prefetches_encodes(self):
        slots = _greedy_slots(4, window=3)
        # the warm-up fills the window before the first multiply
        assert slots[:3] == (("encode", 0), ("encode", 1), ("encode", 2))
        assert slots[3] == ("multiply", 0)


class TestExecutionPolicy:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExecutionPolicy(mode="turbo")

    def test_invalid_backend_and_fusion_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            ExecutionPolicy(backend=3)
        with pytest.raises(ConfigurationError, match="fusion"):
            ExecutionPolicy(fusion="online")

    def test_replace_revalidates(self):
        policy = ExecutionPolicy()
        assert policy.replace(mode="pipelined").mode == "pipelined"
        with pytest.raises(ConfigurationError):
            policy.replace(mode="nope")

    def test_execute_batch_rejects_non_policy(self):
        engine = fresh_engine()
        with pytest.raises(ConfigurationError, match="ExecutionPolicy"):
            engine.execute_batch([], policy={"mode": "auto"})


class TestTelemetry:
    def test_pipeline_metrics_publish(self):
        rng = np.random.default_rng(27)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(4)]
        engine = fresh_engine()
        engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        reg = engine.registry
        assert reg.counter("abft_pipeline_batches_total").get() == 1
        assert reg.counter("abft_pipeline_chunks_total").get() >= 1
        busy = reg.counter(
            "abft_pipeline_stage_busy_seconds_total", labelnames=("stage",)
        )
        for stage in ("encode", "multiply", "check"):
            assert busy.labels(stage=stage).get() > 0
        bubble = reg.gauge("abft_pipeline_bubble_fraction").get()
        assert 0.0 <= bubble <= 1.0
        occupancy = reg.gauge(
            "abft_pipeline_stage_occupancy", labelnames=("stage",)
        )
        for stage in ("encode", "multiply", "check"):
            assert 0.0 <= occupancy.labels(stage=stage).get() <= 1.0
        modes = reg.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="pipelined").get() == 1

    def test_mode_counter_tracks_auto_resolution(self):
        rng = np.random.default_rng(28)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(2)]
        engine = fresh_engine()
        engine.execute_batch([(a, b) for b in bs])  # auto -> pipelined
        engine.execute_batch([(a, bs[0])])  # single pair -> serial
        modes = engine.registry.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="pipelined").get() == 1
        assert modes.labels(mode="serial").get() == 1

    def test_stage_costs_in_stats(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(-1, 1, (64, 64))
        engine = fresh_engine()
        engine.matmul(a, a)
        costs = engine.stats().stage_costs
        assert isinstance(costs, StageCosts)
        for cost in (costs.encode, costs.multiply, costs.check):
            assert cost.observations >= 1
            assert cost.seconds > 0
            assert cost.mean == pytest.approx(
                cost.seconds / cost.observations
            )
        assert costs.mean_total() > 0

    def test_reset_stats_clears_pipeline_metrics(self):
        rng = np.random.default_rng(30)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 16)) for _ in range(3)]
        engine = fresh_engine()
        engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        engine.reset_stats()
        reg = engine.registry
        assert reg.counter("abft_pipeline_batches_total").get() == 0
        assert reg.gauge("abft_pipeline_bubble_fraction").get() == 0.0
        modes = reg.counter(
            "abft_engine_execute_batch_total", labelnames=("mode",)
        )
        assert modes.labels(mode="pipelined").get() == 0
