"""AutotuneCache cross-process write safety (read-merge-write + flock).

The regression this guards: before the file lock, concurrent workers
each held an in-memory copy of the cache and rewrote the whole file on
``put``, so two processes tuning different keys clobbered each other's
winners despite per-write atomicity (last writer won).  With
merge-on-write under the lock, every key written by every process must
survive.
"""

from __future__ import annotations

import multiprocessing as mp

from repro.backends import AutotuneCache, TunedChoice

KEYS_PER_PROCESS = 20


def _writer(path, worker: int, barrier) -> None:
    cache = AutotuneCache(path)
    # Warm the in-memory copy *before* the other process writes anything,
    # reproducing the stale-snapshot half of the race.
    cache.get("absent")
    barrier.wait()
    for i in range(KEYS_PER_PROCESS):
        cache.put(
            f"w{worker}-k{i}",
            TunedChoice(per_call_s=0.001 * (i + 1)),
        )


class TestCrossProcessWrites:
    def test_two_racing_processes_lose_no_keys(self, tmp_path):
        path = tmp_path / "autotune.json"
        ctx = mp.get_context("spawn")
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_writer, args=(path, w, barrier))
            for w in range(2)
        ]
        for p in workers:
            p.start()
        for p in workers:
            p.join(timeout=120)
            assert p.exitcode == 0
        merged = AutotuneCache(path)
        assert len(merged) == 2 * KEYS_PER_PROCESS
        for w in range(2):
            for i in range(KEYS_PER_PROCESS):
                assert merged.get(f"w{w}-k{i}") is not None

    def test_put_merges_winners_persisted_by_other_processes(self, tmp_path):
        path = tmp_path / "autotune.json"
        ours = AutotuneCache(path)
        ours.get("absent")  # stale in-memory snapshot: empty
        theirs = AutotuneCache(path)
        choice = TunedChoice(per_call_s=1.0)
        theirs.put("theirs", choice)
        ours.put("ours", choice)
        # Pre-fix, "ours" rewrote the file from its stale snapshot and
        # dropped "theirs".
        assert set(AutotuneCache(path).keys()) == {"ours", "theirs"}
        # ...and the merge landed in our in-memory view too.
        assert ours.get("theirs") == choice
