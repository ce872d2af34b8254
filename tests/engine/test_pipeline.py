"""Stage-pipelined execute_batch: bitwise identity, scheduling, policy."""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AbftConfig,
    ExecutionPolicy,
    MatmulEngine,
    pipeline_supported,
)
from repro.engine import pipeline
from repro.errors import ConfigurationError
from repro.kernels.stage_split import ChunkEncodedB
from repro.telemetry import MetricsRegistry

PIPELINED = ExecutionPolicy(mode="pipelined")
#: The probe guards the concatenated path, which fused-online chunks skip.
SEPARATE = AbftConfig(fusion="separate")


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



class TestProbeVerdicts:
    """The first-chunk probe decides, byte for byte, which path every
    later chunk of its ``(plan, chunk width)`` signature takes."""

    def test_prefetched_chunk_after_a_failed_probe_runs_per_item(
        self, monkeypatch
    ):
        # With overlap on, chunk 1's encode slot is prefetched — and
        # concatenated — before chunk 0's probe runs.  The probe's first
        # comparison is made to fail whatever the BLAS does, so chunk 1
        # must take the per-item path too: no concatenated GEMM after the
        # probe's own, and bytes equal to matmul.  The 32x32 items fall
        # below the overlap threshold, so the test lowers it.
        monkeypatch.setattr(pipeline, "_OVERLAP_MIN_FLOPS", 0)
        prefetched = threading.Event()
        encode_calls = []
        real_encode_b_chunk = pipeline.encode_b_chunk

        def encode_b_chunk(*args, **kwargs):
            out = real_encode_b_chunk(*args, **kwargs)
            encode_calls.append(out)
            if len(encode_calls) == 2:
                prefetched.set()
            return out

        real_item_encoded = ChunkEncodedB.item_encoded

        def mismatching_item_encoded(self, j):
            prefetched.wait(10.0)  # chunk 1 is encoded before the verdict
            return real_item_encoded(self, j) + 1.0

        monkeypatch.setattr(pipeline, "encode_b_chunk", encode_b_chunk)
        monkeypatch.setattr(
            ChunkEncodedB, "item_encoded", mismatching_item_encoded
        )
        cfg = AbftConfig(block_size=16, fusion="separate")
        rng = np.random.default_rng(31)
        a = rng.uniform(-1, 1, (32, 32))
        bs = [rng.uniform(-1, 1, (32, 32)) for _ in range(4)]
        reference = [MatmulEngine(cfg).matmul(a, b) for b in bs]
        engine = fresh_engine(config=cfg, max_workers=2)
        widths = []

        def hook(event, **kwargs):
            if event == "result":
                widths.append(kwargs["c_fc"].shape[1])

        engine.set_chaos_hook(hook)
        results = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
        assert prefetched.is_set()
        assert_bitwise_equal(results, reference)
        item_width = reference[0].c_fc.shape[1]
        assert widths.count(2 * item_width) == 1  # the probe's own GEMM

    def test_nan_operand_keeps_the_probe_verdict(self):
        # A NaN is byte-identical to itself on both paths, so it must not
        # pin the signature to the per-item path (np.array_equal would).
        rng = np.random.default_rng(32)
        a = rng.uniform(-1, 1, (128, 128))
        bs = [rng.uniform(-1, 1, (128, 16)) for _ in range(16)]
        poisoned = [b.copy() for b in bs]
        poisoned[0][3, 5] = np.nan

        def run(batch):
            engine = fresh_engine(max_workers=1)
            results = engine.execute_batch(
                [(a, b) for b in batch], policy=PIPELINED, config=SEPARATE
            )
            fallbacks = engine.registry.counter(
                "abft_pipeline_fallbacks_total", labelnames=("reason",)
            )
            return results, fallbacks.labels(reason="bitwise_probe").get()

        _clean, clean_fallbacks = run(bs)
        results, fallbacks = run(poisoned)
        assert fallbacks == clean_fallbacks
        reference = [
            MatmulEngine(SEPARATE).matmul(a, b) for b in poisoned
        ]
        for got, ref in zip(results, reference):
            assert got.c_fc.tobytes() == ref.c_fc.tobytes()
            assert got.report.column_disc.tobytes() == (
                ref.report.column_disc.tobytes()
            )
            assert got.detected == ref.detected

    def test_verdicts_live_and_die_with_their_plan(self, monkeypatch):
        # Each verdict describes one plan: an evicted or cleared plan
        # takes its verdict along, and a rebuilt plan probes again.
        probes = []
        real_probe_chunk = pipeline._probe_chunk

        def probe_chunk(*args):
            probes.append(args[1].q)
            return real_probe_chunk(*args)

        monkeypatch.setattr(pipeline, "_probe_chunk", probe_chunk)
        rng = np.random.default_rng(33)
        a = rng.uniform(-1, 1, (32, 32))
        widths = (8, 16, 24, 40, 48, 56)
        batches = {
            q: [(a, rng.uniform(-1, 1, (32, q))) for _ in range(3)]
            for q in widths
        }
        engine = fresh_engine(config=SEPARATE, max_workers=1, plan_cache_size=2)
        for q in widths:
            engine.execute_batch(batches[q], policy=PIPELINED)
        assert probes == list(widths)
        engine.execute_batch(batches[8], policy=PIPELINED)  # evicted: probes
        engine.execute_batch(batches[56], policy=PIPELINED)  # cached: no probe
        assert probes == list(widths) + [8]
        cached = list(engine._plans._plans.values())
        assert sorted(plan.q for plan in cached) == [8, 56]
        assert all(list(plan.probe_verdicts) == [3] for plan in cached)
        engine.clear_plans()
        engine.execute_batch(batches[56], policy=PIPELINED)
        assert probes == list(widths) + [8, 56]


class _InlineExecutor:
    """Runs each submitted slot at once, so slots run in issue order."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def stage_threads(engine) -> dict[str, set[str]]:
    """Install a stage hook; the names of the threads each stage ran on."""
    threads: dict[str, set[str]] = {}

    def hook(event, **kwargs):
        threads.setdefault(event, set()).add(threading.current_thread().name)

    engine.set_chaos_hook(hook)
    return threads


class TestOverlapRule:
    """Overlap is decided by the batch's shape: two or more workers, two
    or more chunks, and one item's encoded GEMM of at least
    ``_OVERLAP_MIN_FLOPS``."""

    def test_one_worker_runs_one_chunk_per_group_inline(self):
        rng = np.random.default_rng(40)
        lefts = [rng.uniform(-1, 1, (256, 256)) for _ in range(2)]
        pairs = [
            (lefts[i // 6], rng.uniform(-1, 1, (256, 16))) for i in range(10)
        ]
        engine = fresh_engine(config=SEPARATE, max_workers=1)
        threads = stage_threads(engine)
        engine.execute_batch(pairs, policy=PIPELINED)
        chunks = engine.registry.counter("abft_pipeline_chunks_total").get()
        assert chunks == 2
        caller = {threading.current_thread().name}
        for stage in ("encode", "multiply", "check"):
            assert threads[stage] == caller, stage

    def test_serve_burst_batch_overlaps_on_a_cold_engine(self):
        # 32 pairs of 256x256 @ 256x16 float64 in groups 28+1+1+1+1: one
        # serving micro-batch.  Its items' encoded GEMMs (8.65 Mflop) sit
        # above the threshold, so even the engine's first batch overlaps.
        rng = np.random.default_rng(41)
        shared = rng.uniform(-1, 1, (256, 256))
        lefts = [shared] * 28 + [rng.uniform(-1, 1, (256, 256)) for _ in range(4)]
        pairs = [(a, rng.uniform(-1, 1, (256, 16))) for a in lefts]
        engine = fresh_engine(config=SEPARATE, max_workers=2)
        threads = stage_threads(engine)
        results = engine.execute_batch(pairs, policy=PIPELINED)
        chunks = engine.registry.counter("abft_pipeline_chunks_total").get()
        assert chunks == 8
        for stage in ("encode", "check"):
            assert any(
                name.startswith("abft-engine") for name in threads[stage]
            ), (stage, threads[stage])
        assert threads["multiply"] == {threading.current_thread().name}
        reference = MatmulEngine(SEPARATE)
        assert_bitwise_equal(results, [reference.matmul(a, b) for a, b in pairs])

    @pytest.mark.parametrize(
        "m, q, pairs", [(64, 8, 8), (128, 16, 16)], ids=["64x64", "128x128"]
    )
    def test_small_items_run_inline_cold_and_warm(self, m, q, pairs):
        rng = np.random.default_rng(42)
        a = rng.uniform(-1, 1, (m, m))
        batch = [(a, rng.uniform(-1, 1, (m, q))) for _ in range(pairs)]
        engine = fresh_engine(config=SEPARATE, max_workers=2)
        threads = stage_threads(engine)
        for _ in range(2):  # a cold batch, then a warm one
            engine.execute_batch(batch, policy=PIPELINED)
        caller = {threading.current_thread().name}
        for stage in ("encode", "multiply", "check"):
            assert threads[stage] == caller, stage

    def slot_order(self, monkeypatch, engine, pairs) -> list[str]:
        """The batch's stage slots in issue order, as ``E0 M0 C0 ...``."""
        order: list[str] = []
        starts: dict[int, int] = {}

        def record(name, real):
            def slot(engine, plan, cfg, state, *rest):
                first = state.items[0][0]
                chunk = starts.setdefault(first, len(starts))
                order.append(f"{name}{chunk}")
                return real(engine, plan, cfg, state, *rest)

            return slot

        for name, fn in (("E", "_encode_chunk"), ("M", "_multiply_chunk"),
                         ("C", "_check_chunk")):
            monkeypatch.setattr(
                pipeline, fn, record(name, getattr(pipeline, fn))
            )
        monkeypatch.setattr(engine, "_get_executor", _InlineExecutor)
        engine.execute_batch(pairs, policy=PIPELINED)
        return order

    def test_overlapping_slot_order(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_OVERLAP_MIN_FLOPS", 0)
        rng = np.random.default_rng(43)
        a = rng.uniform(-1, 1, (32, 32))
        pairs = [(a, rng.uniform(-1, 1, (32, 8))) for _ in range(10)]
        engine = fresh_engine(config=SEPARATE, max_workers=2)
        # 10 pairs on two workers: chunks of 3, 3, 3 and 1.
        assert self.slot_order(monkeypatch, engine, pairs) == (
            "E0 E1 E2 M0 C0 E3 M1 C1 M2 C2 M3 C3".split()
        )

    def test_inline_slot_order(self, monkeypatch):
        rng = np.random.default_rng(44)
        a = rng.uniform(-1, 1, (32, 32))
        pairs = [(a, rng.uniform(-1, 1, (32, 8))) for _ in range(6)]
        engine = fresh_engine(config=SEPARATE, max_workers=2)
        # 6 pairs on two workers: chunks of 2; 32x32 items run inline.
        assert self.slot_order(monkeypatch, engine, pairs) == (
            "E0 M0 C0 E1 M1 C1 E2 M2 C2".split()
        )


class TestExecutionPolicy:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ExecutionPolicy(mode="turbo")

    def test_mode_is_the_only_field(self):
        # Backend pins, exclusions and fusion live on AbftConfig.
        assert [f.name for f in dataclasses.fields(ExecutionPolicy)] == ["mode"]
        with pytest.raises(TypeError):
            ExecutionPolicy(backend="numpy")

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

    def test_probe_chunk_charges_each_second_to_one_stage(self, monkeypatch):
        # The probe re-encodes the chunk item by item inside its multiply
        # slot.  That time is encode time only: on one worker nothing
        # overlaps, so the three stages add up to no more than the wall.
        stall = 0.2
        real_encode_items = pipeline._encode_items

        def slow_encode_items(*args):
            time.sleep(stall)
            return real_encode_items(*args)

        monkeypatch.setattr(pipeline, "_encode_items", slow_encode_items)
        rng = np.random.default_rng(34)
        a = rng.uniform(-1, 1, (64, 64))
        pairs = [(a, rng.uniform(-1, 1, (64, 16))) for _ in range(4)]
        engine = fresh_engine(config=SEPARATE, max_workers=1)
        t0 = time.perf_counter()
        engine.execute_batch(pairs, policy=PIPELINED)
        wall = time.perf_counter() - t0
        stats = engine.stats()
        assert stats.encode_seconds >= stall
        assert stats.multiply_seconds < stall
        assert stats.total_seconds <= wall
        busy = engine.registry.counter(
            "abft_pipeline_stage_busy_seconds_total", labelnames=("stage",)
        )
        assert busy.labels(stage="encode").get() >= stall
        assert busy.labels(stage="multiply").get() < stall

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
