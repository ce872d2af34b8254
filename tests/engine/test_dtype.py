"""AbftConfig.dtype validation and the engine's mixed-precision contract."""

import numpy as np
import pytest

from repro.engine import (
    AbftConfig,
    ExecutionPolicy,
    MatmulEngine,
    pipeline_supported,
)
from repro.engine.config import DTYPE_NAMES
from repro.errors import ConfigurationError
from repro.fp.constants import bfloat16_dtype


@pytest.fixture(scope="module")
def fp16_operands():
    rng = np.random.default_rng(11)
    a = (rng.uniform(-1, 1, (48, 32)) * 0.5).astype(np.float16)
    b = (rng.uniform(-1, 1, (32, 24)) * 0.5).astype(np.float16)
    return a, b


class TestConfigDtypeField:
    def test_default_is_unset(self):
        assert AbftConfig().dtype is None

    @pytest.mark.parametrize("name", ["float32", "float64"])
    def test_full_precision_names_accepted_with_any_scheme(self, name):
        assert AbftConfig(dtype=name).dtype == name
        assert AbftConfig(dtype=name, scheme="sea").dtype == name

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown dtype"):
            AbftConfig(dtype="float8")

    def test_error_lists_the_accepted_names(self):
        with pytest.raises(ConfigurationError, match="float16"):
            AbftConfig(dtype="int32")
        assert DTYPE_NAMES == ("float16", "bfloat16", "float32", "float64")

    def test_low_precision_requires_adaptive_or_fixed_scheme(self):
        # The aabft/sea bounds model compute rounding only; fp16 storage
        # would false-positive on every clean run under them.
        with pytest.raises(ConfigurationError, match="quantisation noise"):
            AbftConfig(dtype="float16")
        with pytest.raises(ConfigurationError, match="quantisation noise"):
            AbftConfig(dtype="float16", scheme="sea")

    def test_low_precision_with_adaptive_scheme_accepted(self):
        cfg = AbftConfig(dtype="float16", scheme="adaptive")
        assert cfg.dtype == "float16"
        assert cfg.scheme == "adaptive"

    def test_low_precision_with_fixed_scheme_accepted(self):
        cfg = AbftConfig(dtype="float16", scheme="fixed", fixed_epsilon=0.5)
        assert cfg.dtype == "float16"

    @pytest.mark.skipif(
        bfloat16_dtype() is not None, reason="ml_dtypes installed"
    )
    def test_bfloat16_without_ml_dtypes_names_the_missing_dependency(self):
        with pytest.raises(ConfigurationError, match="ml_dtypes"):
            AbftConfig(dtype="bfloat16", scheme="adaptive")

    @pytest.mark.skipif(
        bfloat16_dtype() is None, reason="ml_dtypes not installed"
    )
    def test_bfloat16_with_ml_dtypes_accepted(self):
        assert AbftConfig(dtype="bfloat16", scheme="adaptive").dtype == (
            "bfloat16"
        )

    def test_describe_mentions_dtype(self):
        cfg = AbftConfig(dtype="float16", scheme="adaptive")
        assert "dtype=float16" in cfg.describe()

    def test_dtype_participates_in_equality(self):
        plain = AbftConfig(scheme="adaptive")
        fp16 = AbftConfig(scheme="adaptive", dtype="float16")
        assert plain != fp16
        assert fp16 == AbftConfig(scheme="adaptive", dtype="float16")


class TestEngineMixedPrecision:
    def test_fp16_operands_without_config_dtype_are_refused(self, fp16_operands):
        a, b = fp16_operands
        with MatmulEngine(AbftConfig(block_size=16)) as engine:
            with pytest.raises(ConfigurationError, match="silently upcast"):
                engine.matmul(a, b)

    def test_refusal_names_the_fix(self, fp16_operands):
        a, b = fp16_operands
        with MatmulEngine(AbftConfig(block_size=16)) as engine:
            with pytest.raises(ConfigurationError, match="adaptive"):
                engine.matmul(a, b)

    def test_fp16_with_adaptive_config_runs_clean(self, fp16_operands):
        a, b = fp16_operands
        cfg = AbftConfig(block_size=16, scheme="adaptive", dtype="float16")
        with MatmulEngine(cfg) as engine:
            result = engine.matmul(a, b)
        assert not result.report.error_detected
        assert result.c.shape == (48, 24)
        # Results quantise back to the declared storage dtype.
        assert result.c.dtype == np.float16

    def test_fp16_result_matches_fp32_reference_within_storage_noise(
        self, fp16_operands
    ):
        a, b = fp16_operands
        cfg = AbftConfig(block_size=16, scheme="adaptive", dtype="float16")
        with MatmulEngine(cfg) as engine:
            result = engine.matmul(a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        scale = float(np.abs(ref).max())
        assert float(
            np.abs(result.c.astype(np.float32) - ref).max()
        ) <= 2.0 ** -10 * max(scale, 1.0) * 4

    def test_conflicting_operand_dtype_rejected(self, fp16_operands):
        a, _ = fp16_operands
        cfg = AbftConfig(block_size=16, scheme="adaptive", dtype="float32")
        b32 = np.ones((32, 24), dtype=np.float32)
        with MatmulEngine(cfg) as engine:
            with pytest.raises(ConfigurationError, match="conflicts"):
                engine.matmul(a, b32)


def batch_count(engine, name, label, value) -> float:
    return engine.registry.counter(name, labelnames=(label,)).labels(
        **{label: value}
    ).get()


class TestBatchedMixedPrecision:
    """A batch refuses low-precision operands as ``matmul`` does, in every
    execution mode: no mode may upcast them silently."""

    @pytest.fixture
    def fp16_pairs(self):
        rng = np.random.default_rng(12)
        a = (rng.uniform(-1, 1, (32, 32)) * 0.5).astype(np.float16)
        return [
            (a, (rng.uniform(-1, 1, (32, 8)) * 0.5).astype(np.float16))
            for _ in range(3)
        ]

    @pytest.mark.parametrize("mode", ["auto", "pipelined"])
    def test_batch_refuses_fp16_without_config_dtype(self, fp16_pairs, mode):
        a_items = [a for a, _b in fp16_pairs]
        b_items = [b for _a, b in fp16_pairs]
        assert not pipeline_supported(a_items, b_items, AbftConfig())
        engine = MatmulEngine()
        with pytest.raises(ConfigurationError, match="silently upcast"):
            engine.execute_batch(fp16_pairs, policy=ExecutionPolicy(mode=mode))
        with pytest.raises(ConfigurationError, match="silently upcast"):
            engine.execute_batch(fp16_pairs[:1], policy=ExecutionPolicy(mode=mode))
        with pytest.raises(ConfigurationError, match="silently upcast"):
            engine.matmul(*fp16_pairs[0])
        name = "abft_pipeline_fallbacks_total"
        assert batch_count(engine, name, "reason", "unsupported") == (
            2 if mode == "pipelined" else 0
        )
        assert batch_count(
            engine, "abft_engine_execute_batch_total", "mode", "pipelined"
        ) == 0

    @pytest.mark.parametrize("mode", ["auto", "serial"])
    def test_batch_of_shared_fp16_operands_is_refused(self, fp16_pairs, mode):
        # Both operands shared by every pair: the serial path pre-encodes
        # each once, and must refuse rather than encode them as float64.
        a, b = fp16_pairs[0]
        with pytest.raises(ConfigurationError, match="silently upcast"):
            MatmulEngine().execute_batch(
                [(a, b), (a, b)], policy=ExecutionPolicy(mode=mode)
            )

    def test_adaptive_fp16_config_still_runs_serial(self, fp16_pairs):
        cfg = AbftConfig(dtype="float16", scheme="adaptive", block_size=16)
        engine = MatmulEngine(cfg)
        results = engine.execute_batch(fp16_pairs)
        assert batch_count(
            engine, "abft_engine_execute_batch_total", "mode", "serial"
        ) == 1
        for (a, b), result in zip(fp16_pairs, results):
            assert result.c.dtype == np.float16
            assert result.c.tobytes() == MatmulEngine(cfg).matmul(a, b).c.tobytes()
