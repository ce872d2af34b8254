"""The per-plan workspace pool: recycling rules and handle safety."""

from __future__ import annotations

import numpy as np

from repro.engine import AbftConfig, MatmulEngine
from repro.engine.plan import WorkspacePool


class TestWorkspacePool:
    def test_take_give_reuses_buffer(self):
        pool = WorkspacePool()
        buf = pool.take((8, 8))
        assert buf.shape == (8, 8) and buf.dtype == np.float64
        pool.give(buf)
        again = pool.take((8, 8))
        assert again is buf
        assert pool.takes == 2 and pool.hits == 1

    def test_keyed_by_shape_and_dtype(self):
        pool = WorkspacePool()
        pool.give(pool.take((4, 4), np.float64))
        assert pool.take((4, 4), np.float32).dtype == np.float32
        assert pool.take((4, 5)).shape == (4, 5)
        assert pool.hits == 0  # neither request matched the retained buffer

    def test_rejects_views(self):
        pool = WorkspacePool()
        backing = np.empty((8, 8))
        pool.give(backing[2:])  # a view must never resurface
        taken = pool.take((6, 8))
        assert not np.shares_memory(taken, backing)
        assert pool.hits == 0

    def test_rejects_non_contiguous(self):
        pool = WorkspacePool()
        fortran = np.asfortranarray(np.empty((8, 4)))
        pool.give(fortran)
        taken = pool.take((8, 4))
        assert taken is not fortran
        assert taken.flags.c_contiguous

    def test_rejects_oversized_buffers(self):
        pool = WorkspacePool(byte_limit=1024)
        big = np.empty((32, 32))  # 8 KiB > the 1 KiB limit
        pool.give(big)
        assert pool.take((32, 32)) is not big

    def test_bucket_capped_per_key(self):
        pool = WorkspacePool(limit_per_key=2)
        bufs = [np.empty((4, 4)) for _ in range(5)]
        for buf in bufs:
            pool.give(buf)
        retained = {id(pool.take((4, 4))) for _ in range(5)}
        assert len(retained & {id(b) for b in bufs}) == 2

    def test_give_none_is_noop(self):
        WorkspacePool().give(None)


class TestHandleSafety:
    """User-visible arrays must never be recycled into the pool."""

    def test_encode_handles_survive_warm_calls(self, small_pair, rng):
        a, b = small_pair
        engine = MatmulEngine(AbftConfig(block_size=32, p=2))
        handle = engine.encode(a, side="a")
        snapshot = handle.array.copy()
        for _ in range(6):  # enough warm calls to cycle every pool bucket
            engine.matmul(handle, rng.uniform(-1, 1, b.shape))
        assert np.array_equal(handle.array, snapshot)

    def test_results_survive_subsequent_calls(self, small_pair, rng):
        a, b = small_pair
        engine = MatmulEngine(AbftConfig(block_size=32, p=2))
        first = engine.matmul(a, b)
        c, c_fc = first.c.copy(), first.c_fc.copy()
        col_disc = first.report.column_disc.copy()
        for _ in range(6):
            engine.matmul(rng.uniform(-1, 1, a.shape), rng.uniform(-1, 1, b.shape))
        assert np.array_equal(first.c, c)
        assert np.array_equal(first.c_fc, c_fc)
        assert np.array_equal(first.report.column_disc, col_disc)

    def test_fused_batch_results_survive(self, small_pair, rng):
        a, b = small_pair
        engine = MatmulEngine(AbftConfig(block_size=32, p=2))
        bs = [rng.uniform(-1, 1, b.shape) for _ in range(4)]
        results = engine.execute_batch([(a, x) for x in bs])
        snapshots = [(r.c.copy(), r.c_fc.copy()) for r in results]
        engine.execute_batch(
            [(a, rng.uniform(-1, 1, b.shape)) for _ in range(4)]
        )
        for r, (c, c_fc) in zip(results, snapshots):
            assert np.array_equal(r.c, c)
            assert np.array_equal(r.c_fc, c_fc)

    def test_warm_calls_hit_the_pool(self, small_pair):
        a, b = small_pair
        engine = MatmulEngine(AbftConfig(block_size=32, p=2))
        engine.matmul(a, b)
        plan = next(iter(engine._plans._plans.values()))
        before = plan.pool.hits
        engine.matmul(a, b)
        assert plan.pool.hits > before


class TestConcurrency:
    """The pool is shared by concurrent engine calls on one plan:
    takes/gives race, but a buffer must never be handed to two owners at
    once."""

    def test_racing_take_give_never_aliases(self):
        import threading

        pool = WorkspacePool()
        shapes = [(16, 16), (16, 16), (8, 32)]
        owners: set[int] = set()
        owners_lock = threading.Lock()
        errors: list[str] = []
        start = threading.Barrier(8)

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            start.wait()
            for _ in range(200):
                shape = shapes[rng.integers(len(shapes))]
                buf = pool.take(shape)
                ident = id(buf)
                with owners_lock:
                    if ident in owners:
                        errors.append(f"buffer {ident:#x} owned twice")
                        return
                    owners.add(ident)
                buf.fill(seed)  # touch while owned
                if not np.all(buf == seed):
                    errors.append("buffer mutated by another owner")
                    return
                with owners_lock:
                    owners.remove(ident)
                pool.give(buf)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert pool.takes == 8 * 200

    def test_threaded_engine_calls_keep_their_bytes(self):
        import threading

        engine = MatmulEngine()
        cfg = AbftConfig(block_size=32)
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (96, 64))
        b = rng.uniform(-1, 1, (64, 80))
        expected = engine.matmul(a, b, config=cfg).c_fc.tobytes()
        failures: list[str] = []

        def caller() -> None:
            for _ in range(5):
                result = engine.matmul(a, b, config=cfg)
                if result.c_fc.tobytes() != expected:
                    failures.append("bytes diverged under concurrency")

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
