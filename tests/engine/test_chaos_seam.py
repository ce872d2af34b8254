"""The engine's chaos/test-injection seam (``set_chaos_hook``)."""

import numpy as np
import pytest

from repro.engine import ExecutionPolicy, MatmulEngine
from repro.errors import ConfigurationError


@pytest.fixture
def operands():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (64, 32))
    bs = [rng.uniform(-1, 1, (32, 8)) for _ in range(4)]
    return a, bs


class TestHookContract:
    def test_non_callable_hook_rejected(self):
        engine = MatmulEngine()
        with pytest.raises(ConfigurationError, match="callable"):
            engine.set_chaos_hook("not-a-hook")

    def test_none_clears_the_hook(self, operands):
        a, bs = operands
        engine = MatmulEngine()
        events = []
        engine.set_chaos_hook(lambda event, **kw: events.append(event))
        engine.matmul(a, bs[0])
        assert events
        engine.set_chaos_hook(None)
        events.clear()
        engine.matmul(a, bs[1])
        assert not events


class TestStageEvents:
    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    def test_stage_events_fire_on_every_path(self, operands, mode):
        a, bs = operands
        engine = MatmulEngine()
        events = []
        engine.set_chaos_hook(lambda event, **kw: events.append(event))
        engine.execute_batch(
            [(a, b) for b in bs], policy=ExecutionPolicy(mode=mode)
        )
        seen = set(events)
        assert {"encode", "multiply", "check"} <= seen, (mode, seen)
        assert {"dispatch", "result"} <= seen, (mode, seen)

    def test_results_bitwise_identical_with_passive_hook(self, operands):
        a, bs = operands
        reference = [MatmulEngine().matmul(a, b).c for b in bs]
        engine = MatmulEngine()
        engine.set_chaos_hook(lambda event, **kw: None)
        for b, ref in zip(bs, reference):
            assert np.array_equal(engine.matmul(a, b).c, ref)


class TestDispatchEvents:
    def test_dispatch_raise_walks_the_never_silent_fallback(self, operands):
        a, bs = operands

        class Boom(RuntimeError):
            pass

        def hook(event, **kw):
            if event == "dispatch" and kw.get("backend") == "blocked":
                raise Boom("injected")

        from repro.engine import AbftConfig

        engine = MatmulEngine(AbftConfig(backend="blocked"))
        engine.set_chaos_hook(hook)
        result = engine.matmul(a, bs[0])
        assert result.backend == "numpy"
        assert result.backend_fallback is not None
        assert not result.detected
        assert np.allclose(result.c, a @ bs[0])

    def test_result_event_carries_the_backend(self, operands):
        a, bs = operands
        engine = MatmulEngine()
        backends = []

        def hook(event, **kw):
            if event == "result":
                backends.append(kw.get("backend"))

        engine.set_chaos_hook(hook)
        engine.matmul(a, bs[0])
        assert backends and all(isinstance(b, str) for b in backends)


class TestResultMutation:
    def test_high_mantissa_flip_is_detected(self, operands):
        a, bs = operands

        def flip(event, **kw):
            if event == "result" and kw.get("c_fc") is not None:
                view = kw["c_fc"].reshape(-1).view(np.uint64)
                view[0] ^= np.uint64(1) << np.uint64(50)

        engine = MatmulEngine()
        engine.set_chaos_hook(flip)
        result = engine.matmul(a, bs[0])
        assert result.detected
