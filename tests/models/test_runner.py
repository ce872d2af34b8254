"""ModelRunner: verified chains, encoding reuse, injection, degradation."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.engine import AbftConfig, EncodedOperand, MatmulEngine
from repro.errors import ConfigurationError
from repro.fp.bits import flip_bit
from repro.models import (
    LayerSpec,
    ModelInjection,
    ModelInputs,
    ModelRunner,
    ModelSpec,
    ProtectionPlanner,
    attention,
    mlp,
)
from repro.telemetry import MetricsRegistry

CFG = AbftConfig(block_size=16, p=2)


@pytest.fixture(scope="module")
def engine():
    with MatmulEngine(CFG, registry=MetricsRegistry()) as eng:
        yield eng


@pytest.fixture()
def runner(engine):
    return ModelRunner(engine, registry=MetricsRegistry())


def full_plan(model):
    return ProtectionPlanner(
        CFG, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
    ).plan(model)


def counter_value(registry, name, **labels):
    family = registry._families[name]
    return family.labels(**labels).get() if labels else family.get()


class TestEndToEnd:
    def test_fp32_mlp_verifies_against_reference(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.max_abs_diff is not None
        assert result.max_abs_diff <= 1e-5  # fp32 summation-order noise only
        assert result.output.shape == (16, 8)
        assert not result.detected
        assert not result.degraded

    def test_fp16_attention_verifies_and_stays_clean(self, runner):
        model = attention(name="a16", batch=16, d_model=32, dtype="float16")
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.output.dtype == np.float16
        assert not result.detected  # adaptive tolerance: no false positives

    def test_verified_is_none_unless_requested(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        result = runner.run(model, full_plan(model))
        assert result.verified is None
        assert result.max_abs_diff is None

    def test_padded_batch_not_divisible_by_block(self, runner):
        model = mlp(name="m", batch=30, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.output.shape == (30, 8)

    def test_unchecked_layers_recorded_never_silent(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        result = runner.run(model, plan, verify=True)
        assert result.verified is True
        for run in result.layers:
            assert run.rung == "unchecked"
            assert run.scheme is None
            assert not run.protected

    def test_mismatched_plan_rejected(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        other = mlp(name="other", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="was built for"):
            runner.run(model, full_plan(other))

    def test_layer_run_lookup(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        result = runner.run(model, full_plan(model))
        assert result.layer_run("head").planned_rung == "full"
        with pytest.raises(ConfigurationError, match="no layer"):
            result.layer_run("missing")

    def test_to_dict_shape(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        data = runner.run(model, full_plan(model), verify=True).to_dict()
        assert data["model"] == "m"
        assert data["verified"] is True
        assert len(data["layers"]) == 2
        assert {"layer", "rung", "scheme", "reused_encoding"} <= set(
            data["layers"][0]
        )


class TestEncodingReuse:
    def linear_chain(self):
        # Identity activations + uniform width: every inner boundary is
        # legal for checksum propagation.
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, activation="none") for i in range(4)
        )
        return ModelSpec("chain", 32, layers)

    def test_linear_chain_reuses_encodings(self, runner):
        model = self.linear_chain()
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 3  # every layer after the first
        assert not result.layers[0].reused_encoding
        assert all(run.reused_encoding for run in result.layers[1:])

    def test_reuse_counted_in_telemetry(self, engine):
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        model = self.linear_chain()
        runner.run(model, full_plan(model))
        assert counter_value(reg, "abft_model_encode_reuses_total") == 3.0

    def test_alternating_schemes_rebuild_reused_handles(self, runner):
        # full/sea alternate, so every consuming layer computes the other
        # scheme's preprocessing (top-p vs norms) on the reused slice.
        model = self.linear_chain()
        result = runner.run(
            model,
            full_plan(model),
            verify=True,
            rung_cap=lambda i, a: "full" if i % 2 == 0 else "sea",
        )
        assert [run.scheme for run in result.layers] == [
            "aabft", "sea", "aabft", "sea",
        ]
        assert all(run.reused_encoding for run in result.layers[1:])
        assert result.verified is True
        assert not result.detected

    def test_rebuilt_handle_reports_its_own_top_p_depth(self, engine):
        from repro.models.runner import _rebuild_handle

        x = np.random.default_rng(5).uniform(-1, 1, (32, 32))
        handle = engine.encode(x, side="a")
        assert {len(t.values) for t in handle.tops()} == {CFG.p}
        rebuilt = _rebuild_handle(handle, CFG.replace(p=CFG.p + 1))
        assert {len(t.values) for t in rebuilt.tops()} == {CFG.p + 1}
        assert {len(t.values) for t in handle.tops()} == {CFG.p}

    def test_relu_blocks_reuse(self, runner):
        model = mlp(name="m", batch=32, d_in=32, hidden=32, depth=4, d_out=32)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 0  # relu breaks checksum linearity

    def test_fp16_blocks_reuse(self, runner):
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, dtype="float16") for i in range(3)
        )
        model = ModelSpec("chain16", 32, layers)
        result = runner.run(model, full_plan(model), verify=True)
        assert result.verified is True
        assert result.reuse_count == 0  # storage quantisation invalidates


def mlp32():
    # fc1 6.4, fc2 8.0, head 2.9 flops/byte at batch 32.
    return mlp(name="m", batch=32, d_in=32, hidden=64, depth=3, d_out=8)


def attention16():
    return attention(name="a16", batch=32, d_model=32, dtype="float16")


PLANNERS = {
    "full": ProtectionPlanner(
        CFG, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
    ),
    "sea": ProtectionPlanner(
        CFG, coverage_target=0.0, full_intensity=float("inf"), sea_intensity=0.0
    ),
    # fp32 MLP: fc2 full, fc1 sea, head unchecked.
    "mixed": ProtectionPlanner(
        CFG, coverage_target=0.0, full_intensity=7.0, sea_intensity=5.0
    ),
    # fp16 attention: wo unchecked, the rest adaptive.
    "mixed16": ProtectionPlanner(CFG, coverage_target=0.85),
}


def layer_fields(result):
    return [
        {k: v for k, v in run.to_dict().items() if k != "seconds"}
        for run in result.layers
    ]


def assert_same_run(one, two):
    assert one.output.dtype == two.output.dtype
    assert one.output.tobytes() == two.output.tobytes()
    assert layer_fields(one) == layer_fields(two)


def cache_counts(registry):
    return {
        outcome: counter_value(
            registry, "abft_model_weight_cache_total", outcome=outcome
        )
        for outcome in ("hit", "miss", "changed")
    }


def fresh_run(engine, model, plan, inputs):
    return ModelRunner(engine, registry=MetricsRegistry()).run(
        model, plan, inputs
    )


def record_weight_handles(engine, monkeypatch):
    """Spy on ``matmul``: the B handles it receives, in call order."""
    seen = []
    real = engine.matmul

    def spy(a, b, **kwargs):
        if isinstance(b, EncodedOperand):
            seen.append(b)
        return real(a, b, **kwargs)

    monkeypatch.setattr(engine, "matmul", spy)
    return seen


def flip_largest(array, col):
    """Flip a mid exponent bit of the largest-magnitude entry of a column."""
    row = int(np.argmax(np.abs(array[:, col])))
    array[row, col] = flip_bit(array[row, col], 25)


class TestWeightCache:
    @pytest.mark.parametrize(
        "build, plan_name",
        [
            (mlp32, "full"),
            (mlp32, "sea"),
            (mlp32, "mixed"),
            (attention16, "full"),
            (attention16, "sea"),
            (attention16, "mixed16"),
        ],
    )
    def test_ten_passes_match_a_fresh_runner_per_pass(
        self, engine, build, plan_name
    ):
        model = build()
        plan = PLANNERS[plan_name].plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        weights = ModelInputs.generate(model, seed=3).weights
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal((model.batch, model.d_in))
            inputs = ModelInputs(x=x.astype(weights[0].dtype), weights=weights)
            cached = runner.run(model, plan, inputs)
            assert_same_run(cached, fresh_run(engine, model, plan, inputs))
            assert not cached.detected
        protected = sum(1 for a in plan.assignments if a.rung != "unchecked")
        assert protected > 0
        assert cache_counts(reg) == {
            "hit": 9.0 * protected, "miss": protected, "changed": 0.0,
        }

    def test_cached_weight_gives_the_raw_weight_product(self, engine):
        model = ModelSpec("one", 30, (LayerSpec("l0", 40, 24),))
        plan = full_plan(model)
        inputs = ModelInputs.generate(model, seed=1)
        runner = ModelRunner(engine, registry=MetricsRegistry())
        runner.run(model, plan, inputs)
        cached = runner.run(model, plan, inputs)  # served from the cache
        raw = engine.matmul(
            inputs.x, inputs.weights[0], config=plan.assignments[0].config
        )
        assert cached.output.tobytes() == raw.c.tobytes()

    def test_weight_updated_in_place_is_re_encoded(self, engine):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        inputs = ModelInputs.generate(model, seed=5)
        runner.run(model, plan, inputs)
        inputs.weights[1][3, 7] *= 1.5
        updated = runner.run(model, plan, inputs)
        assert not updated.detected
        assert_same_run(updated, fresh_run(engine, model, plan, inputs))
        assert cache_counts(reg) == {"hit": 2.0, "miss": 3.0, "changed": 1.0}

    def test_new_array_with_the_same_bytes_hits(self, engine):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        inputs = ModelInputs.generate(model, seed=6)
        runner.run(model, plan, inputs)
        # Column-major copies: the same values in another memory layout.
        copies = ModelInputs(
            x=inputs.x,
            weights=tuple(w.copy(order="F") for w in inputs.weights),
        )
        runner.run(model, plan, copies)
        assert cache_counts(reg) == {"hit": 3.0, "miss": 3.0, "changed": 0.0}

    def test_signed_zero_is_a_different_weight(self, engine):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        inputs = ModelInputs.generate(model, seed=10)
        inputs.weights[0][2, 5] = 0.0
        runner.run(model, plan, inputs)
        inputs.weights[0][2, 5] = -0.0
        runner.run(model, plan, inputs)
        assert cache_counts(reg) == {"hit": 2.0, "miss": 3.0, "changed": 1.0}

    def test_checksum_fault_in_cached_handle_recomputes_once(
        self, engine, monkeypatch
    ):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        inputs = ModelInputs.generate(model, seed=7)
        clean = runner.run(model, plan, inputs)
        handles = record_weight_handles(engine, monkeypatch)
        runner.run(model, plan, inputs)
        fc2 = handles[1]
        flip_largest(fc2.array, fc2.layout.checksum_index(0))

        faulty = runner.run(model, plan, inputs)
        run = faulty.layer_run("fc2")
        assert run.detected and run.recomputed
        assert faulty.output.tobytes() == clean.output.tobytes()
        assert cache_counts(reg) == {"hit": 6.0, "miss": 3.0, "changed": 0.0}

        after = runner.run(model, plan, inputs)
        assert not after.detected
        assert after.output.tobytes() == clean.output.tobytes()
        assert cache_counts(reg) == {"hit": 8.0, "miss": 4.0, "changed": 0.0}

    def test_data_fault_in_cached_handle_is_re_encoded(
        self, engine, monkeypatch
    ):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        inputs = ModelInputs.generate(model, seed=8)
        clean = runner.run(model, plan, inputs)
        handles = record_weight_handles(engine, monkeypatch)
        runner.run(model, plan, inputs)
        fc2 = handles[1]
        flip_largest(fc2.array, fc2.layout.data_indices(1)[3])

        after = runner.run(model, plan, inputs)
        assert not after.detected
        assert_same_run(after, clean)
        assert cache_counts(reg) == {"hit": 5.0, "miss": 3.0, "changed": 1.0}

    def test_new_weights_every_pass_keep_one_handle_per_slot(
        self, engine, monkeypatch
    ):
        model = mlp32()
        plan = full_plan(model)
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        handles = record_weight_handles(engine, monkeypatch)
        alive = []
        for seed in range(50):
            runner.run(model, plan, ModelInputs.generate(model, seed=seed))
            alive.extend(weakref.ref(h) for h in handles)
            handles.clear()
        gc.collect()
        assert sum(ref() is not None for ref in alive) <= model.depth
        assert cache_counts(reg) == {"hit": 0.0, "miss": 3.0, "changed": 147.0}


    def test_threads_sharing_a_runner_multiply_their_own_weights(
        self, engine
    ):
        # Two weight sets alternate between four threads, so every slot
        # keeps changing under the other threads' byte checks.
        model = mlp32()
        plan = full_plan(model)
        sets = [ModelInputs.generate(model, seed=s) for s in (11, 12)]
        expected = [
            fresh_run(engine, model, plan, inputs).output.tobytes()
            for inputs in sets
        ]
        runner = ModelRunner(engine, registry=MetricsRegistry())
        wrong = []

        def worker(k):
            for i in range(20):
                which = (i + k) % 2
                result = runner.run(model, plan, sets[which])
                if result.detected or result.output.tobytes() != expected[which]:
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestRecompute:
    """A detection without an injection recomputes once from the raw weight."""

    CFG32 = AbftConfig(block_size=32, p=2)

    def run_with_hook(self, hook, cfg=CFG32, **kwargs):
        model = mlp(name="m2", batch=64, d_in=64, hidden=64, depth=2, d_out=32)
        plan = ProtectionPlanner(
            cfg, coverage_target=1.0, full_intensity=0.0, sea_intensity=0.0
        ).plan(model)
        with MatmulEngine(cfg, registry=MetricsRegistry()) as eng:
            runner = ModelRunner(eng, registry=MetricsRegistry())
            clean = runner.run(model, plan, seed=9)
            eng.set_chaos_hook(hook)
            faulty = runner.run(model, plan, seed=9, **kwargs)
        return clean, faulty

    @staticmethod
    def flip_corner(c_fc):
        c_fc[0, 0] = flip_bit(c_fc[0, 0], 25)

    def test_persistent_fault_is_not_reported_recovered(self):
        def every_result(event, c_fc=None, **_):
            if event == "result":
                self.flip_corner(c_fc)

        _clean, faulty = self.run_with_hook(every_result)
        for run in faulty.layers:
            assert run.detected
            assert not run.recomputed

    def test_recovered_fault_is_reported_recomputed(self):
        armed = [True]

        def first_result(event, c_fc=None, **_):
            if event == "result" and armed[0]:
                armed[0] = False
                self.flip_corner(c_fc)

        clean, faulty = self.run_with_hook(first_result, verify=True)
        fc1, head = faulty.layers
        assert fc1.detected and fc1.recomputed
        assert not head.detected and not head.recomputed
        assert faulty.verified is True
        assert faulty.output.tobytes() == clean.output.tobytes()

    def test_recompute_reports_its_own_backend(self, delegate_backend):
        # The first product runs on the pinned backend and is corrupted;
        # the recompute's dispatch fails over to numpy.
        events = {"result": 0, "dispatch": 0}

        def hook(event, c_fc=None, **_):
            if event not in events:
                return
            events[event] += 1
            if event == "result" and events[event] == 1:
                self.flip_corner(c_fc)
            if event == "dispatch" and events[event] == 2:
                raise RuntimeError("backend lost")

        _clean, faulty = self.run_with_hook(
            hook, cfg=self.CFG32.replace(backend=delegate_backend)
        )
        fc1, head = faulty.layers
        assert fc1.detected and fc1.recomputed
        assert fc1.backend == "numpy"
        assert head.backend == delegate_backend


class TestInjection:
    def test_injected_fault_detected_on_protected_layer(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        inject = ModelInjection(layer="fc2", row=3, col=5)
        result = runner.run(model, full_plan(model), inject=inject)
        run = result.layer_run("fc2")
        assert run.injected
        assert run.detected
        assert result.detected

    def test_injected_fault_detected_on_fp16_adaptive_layer(self, runner):
        model = attention(name="a16", batch=16, d_model=32, dtype="float16")
        inject = ModelInjection(layer="wk", row=1, col=2)
        result = runner.run(model, full_plan(model), inject=inject)
        assert result.layer_run("wk").detected

    def test_unchecked_layer_never_detects(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        inject = ModelInjection(layer="head", row=0, col=0)
        result = runner.run(model, plan, inject=inject)
        run = result.layer_run("head")
        assert run.injected
        assert not run.detected  # the explicit coverage hole

    def test_injection_blocks_downstream_reuse(self, runner):
        layers = tuple(
            LayerSpec(f"l{i}", 32, 32, activation="none") for i in range(3)
        )
        model = ModelSpec("chain", 32, layers)
        inject = ModelInjection(layer="l0", row=0, col=0)
        result = runner.run(model, full_plan(model), inject=inject)
        assert not result.layers[1].reused_encoding

    def test_unknown_layer_rejected_eagerly(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="no layer"):
            runner.run(
                model, full_plan(model), inject=ModelInjection(layer="nope")
            )

    def test_bad_fault_field_rejected(self):
        with pytest.raises(ConfigurationError, match="fault_field"):
            ModelInjection(layer="fc1", fault_field="parity")

    def test_injection_telemetry_labels_detection(self, engine):
        reg = MetricsRegistry()
        runner = ModelRunner(engine, registry=reg)
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        runner.run(
            model, full_plan(model), inject=ModelInjection(layer="fc1")
        )
        assert counter_value(
            reg, "abft_model_injections_total", layer="fc1", detected="true"
        ) == 1.0


class TestDegradation:
    def test_rung_cap_degrades_and_records(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=3, d_out=8)
        result = runner.run(
            model,
            full_plan(model),
            rung_cap=lambda i, a: "unchecked" if i == 1 else "full",
        )
        capped = result.layers[1]
        assert capped.rung == "unchecked"
        assert capped.planned_rung == "full"
        assert capped.degraded
        assert result.degraded
        assert not result.layers[0].degraded

    def test_cap_never_upgrades(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        plan = ProtectionPlanner(
            CFG,
            coverage_target=0.0,
            full_intensity=float("inf"),
            sea_intensity=float("inf"),
        ).plan(model)
        result = runner.run(model, plan, rung_cap=lambda i, a: "full")
        assert all(run.rung == "unchecked" for run in result.layers)
        assert not result.degraded

    def test_invalid_cap_value_rejected(self, runner):
        model = mlp(name="m", batch=16, d_in=32, hidden=32, depth=2)
        with pytest.raises(ConfigurationError, match="rung_cap"):
            runner.run(
                model, full_plan(model), rung_cap=lambda i, a: "paranoid"
            )


class TestInputs:
    def test_generation_is_deterministic(self):
        model = mlp(name="m", batch=8, d_in=16, hidden=16, depth=2)
        one = ModelInputs.generate(model, seed=5)
        two = ModelInputs.generate(model, seed=5)
        assert np.array_equal(one.x, two.x)
        for w1, w2 in zip(one.weights, two.weights):
            assert np.array_equal(w1, w2)

    def test_dtypes_follow_the_layers(self):
        model = attention(name="a16", batch=8, d_model=16, dtype="float16")
        inputs = ModelInputs.generate(model)
        assert inputs.x.dtype == np.float16
        assert all(w.dtype == np.float16 for w in inputs.weights)
