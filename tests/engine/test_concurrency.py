"""Concurrency stress: parallel batches racing plan-cache eviction.

A small LRU plan cache plus many threads issuing different-shape
``execute_batch`` calls forces constant plan eviction and re-creation
while results are in flight.  Results must stay bitwise correct and the
engine's ``abft_engine_*`` counters must add up exactly.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine, pipeline

SERIAL = ExecutionPolicy(mode="serial")
PIPELINED = ExecutionPolicy(mode="pipelined")
FUSED_ONLINE = AbftConfig(fusion="fused", fused_tile_blocks=1)

THREADS = 8
ROUNDS = 6
# more shapes than cache slots -> guaranteed eviction churn
SHAPES = [(64, 64, 8), (96, 64, 8), (64, 96, 8), (128, 64, 8), (64, 128, 8)]


@pytest.fixture
def workload():
    rng = np.random.default_rng(42)
    pairs = {}
    for m, n, q in SHAPES:
        a = rng.uniform(-1, 1, (m, n))
        bs = [rng.uniform(-1, 1, (n, q)) for _ in range(3)]
        pairs[(m, n, q)] = (a, bs)
    reference = {
        shape: [MatmulEngine().matmul(a, b).c for b in bs]
        for shape, (a, bs) in pairs.items()
    }
    return pairs, reference


class TestPlanCacheRaces:
    def test_parallel_batches_racing_eviction(self, workload):
        pairs, reference = workload
        engine = MatmulEngine(plan_cache_size=2)  # far fewer slots than shapes
        errors = []
        barrier = threading.Barrier(THREADS)

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    shape = SHAPES[(idx + round_no) % len(SHAPES)]
                    a, bs = pairs[shape]
                    results = engine.execute_batch(
                        [(a, b) for b in bs], policy=SERIAL
                    )
                    for res, ref in zip(results, reference[shape]):
                        if not np.array_equal(res.c, ref):
                            raise AssertionError(
                                f"bitwise divergence at shape {shape}"
                            )
                        if res.detected:
                            raise AssertionError(
                                f"false positive at shape {shape}"
                            )
            except Exception as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        engine.close()
        assert not errors, errors[0]

        stats = engine.stats()
        expected_calls = THREADS * ROUNDS * 3  # 3 products per batch
        assert stats.calls == expected_calls
        assert stats.batched_calls == THREADS * ROUNDS
        # every product looked its plan up exactly once: hit or miss, never
        # both, never lost — even while other threads evicted concurrently
        assert stats.plan_hits + stats.plan_misses == expected_calls
        assert stats.plan_evictions > 0  # the small LRU actually churned
        assert stats.detections == 0

    def test_counter_totals_consistent_under_races(self, workload):
        pairs, _ = workload
        engine = MatmulEngine(plan_cache_size=2)
        barrier = threading.Barrier(THREADS)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    shape = SHAPES[(idx + round_no) % len(SHAPES)]
                    a, bs = pairs[shape]
                    engine.execute_batch([(a, b) for b in bs], policy=SERIAL)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        engine.close()
        assert not errors, errors[0]

        stats = engine.stats()
        calls = THREADS * ROUNDS * 3
        assert stats.calls == calls
        # each batch pre-encodes its shared A once; all 3 products then run
        # against the handle, so every product counts one encode reuse
        assert stats.encode_reuses == THREADS * ROUNDS * 3
        # every plan lookup is accounted exactly once
        assert stats.plan_hits + stats.plan_misses == calls
        assert stats.plan_misses >= len(SHAPES)

    def test_fused_batches_race_plan_eviction(self, workload):
        """Fused-online pipelined batches race eviction: chunk grids and
        in-loop tile checks run while the tiny LRU evicts their plans."""
        pairs, _ = workload
        reference = {
            shape: [
                MatmulEngine(FUSED_ONLINE).matmul(a, b).c for b in bs
            ]
            for shape, (a, bs) in pairs.items()
        }
        engine = MatmulEngine(plan_cache_size=2)
        barrier = threading.Barrier(THREADS)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    shape = SHAPES[(idx + round_no) % len(SHAPES)]
                    a, bs = pairs[shape]
                    results = engine.execute_batch(
                        [(a, b) for b in bs],
                        policy=PIPELINED,
                        config=FUSED_ONLINE,
                    )
                    for res, ref in zip(results, reference[shape]):
                        if not res.fused:
                            raise AssertionError(
                                f"fused online did not run at shape {shape}"
                            )
                        if not np.array_equal(res.c, ref):
                            raise AssertionError(
                                f"bitwise divergence at shape {shape}"
                            )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        engine.close()
        assert not errors, errors[0]
        stats = engine.stats()
        assert stats.calls == THREADS * ROUNDS * 3
        assert stats.plan_evictions > 0

    def test_pipelined_batches_race_plan_eviction(self, workload):
        """Pipelined slots race eviction and workspace-pool recycling.

        Every thread walks a different shape sequence, so chunk states,
        the bitwise-probe verdict cache and pooled chunk buffers are all
        exercised while the tiny LRU is evicting plans under them.
        """
        pairs, reference = workload
        engine = MatmulEngine(plan_cache_size=2)
        barrier = threading.Barrier(THREADS)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    shape = SHAPES[(idx + round_no) % len(SHAPES)]
                    a, bs = pairs[shape]
                    results = engine.execute_batch(
                        [(a, b) for b in bs], policy=PIPELINED
                    )
                    for res, ref in zip(results, reference[shape]):
                        if not np.array_equal(res.c, ref):
                            raise AssertionError(
                                f"bitwise divergence at shape {shape}"
                            )
                        if res.detected:
                            raise AssertionError(
                                f"false positive at shape {shape}"
                            )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        engine.close()
        assert not errors, errors[0]
        stats = engine.stats()
        assert stats.calls == THREADS * ROUNDS * 3
        assert stats.plan_evictions > 0
        assert stats.detections == 0

    def test_worker_gemms_race_plan_eviction(self, monkeypatch):
        """Every chunk GEMM that does not probe runs on the engine's pool.

        More pool threads than cores and a short switch interval make the
        caller and the worker hand each chunk back and forth as often as
        the schedule allows, while the tiny LRU evicts plans under them.
        The shapes take all three probe verdicts on OpenBLAS (per_item,
        full, compact).  A chunk read before its GEMM finished, or a
        pooled buffer given back while a GEMM still reads it, breaks the
        bytes; a lost counter update breaks the totals.
        """
        monkeypatch.setattr(pipeline, "_OVERLAP_MIN_FLOPS", 0)
        shapes = [(64, 64, 8), (256, 64, 8), (256, 256, 16), (128, 64, 8),
                  (200, 64, 8)]
        rng = np.random.default_rng(43)
        pairs = {}
        for m, n, q in shapes:
            a = rng.uniform(-1, 1, (m, n))
            # six pairs on four workers: three chunks of two
            pairs[(m, n, q)] = [(a, rng.uniform(-1, 1, (n, q))) for _ in range(6)]
        separate = AbftConfig(fusion="separate")  # fused chunks stay on the caller
        reference = {
            shape: [MatmulEngine(separate).matmul(a, b).c.tobytes() for a, b in batch]
            for shape, batch in pairs.items()
        }
        engine = MatmulEngine(separate, plan_cache_size=2, max_workers=4)
        multiply_threads = set()

        def hook(event, **kwargs):
            name = threading.current_thread().name
            if event == "dispatch" and name.startswith("abft-engine"):
                # hold the worker's GEMM while the caller encodes the next
                # chunk into pooled buffers of the same shapes
                time.sleep(0.002)
            elif event == "multiply":
                multiply_threads.add(name)

        engine.set_chaos_hook(hook)
        barrier = threading.Barrier(THREADS)
        errors = []

        def worker(idx):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    shape = shapes[(idx + round_no) % len(shapes)]
                    results = engine.execute_batch(pairs[shape], policy=PIPELINED)
                    for res, ref in zip(results, reference[shape]):
                        if res.c.tobytes() != ref or res.detected:
                            raise AssertionError(f"divergence at shape {shape}")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        engine.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        stats = engine.stats()
        assert stats.calls == THREADS * ROUNDS * 6
        assert stats.plan_evictions > 0
        assert any(name.startswith("abft-engine") for name in multiply_threads)
