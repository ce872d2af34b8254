"""AbftConfig: validation, immutability, hashing, the deprecation shims."""

import numpy as np
import pytest

from repro.engine import SCHEMES, AbftConfig
from repro.errors import BoundSchemeError, ConfigurationError


class TestValidation:
    def test_defaults_match_paper(self):
        cfg = AbftConfig()
        assert cfg.block_size == 64
        assert cfg.p == 2
        assert cfg.omega == 3.0
        assert cfg.fma is False
        assert cfg.epsilon_floor == 0.0
        assert cfg.scheme == "aabft"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            AbftConfig(scheme="huang")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"p": 0},
            {"omega": 0.0},
            {"omega": float("inf")},
            {"epsilon_floor": -1.0},
        ],
    )
    def test_bad_numeric_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AbftConfig(**kwargs)

    def test_epsilon_floor_message_names_the_field(self):
        with pytest.raises(ValueError, match="epsilon_floor"):
            AbftConfig(epsilon_floor=-0.5)

    def test_fixed_scheme_requires_epsilon(self):
        with pytest.raises(ConfigurationError, match="fixed_epsilon"):
            AbftConfig(scheme="fixed")

    def test_fixed_epsilon_validated_eagerly(self):
        with pytest.raises(BoundSchemeError):
            AbftConfig(scheme="fixed", fixed_epsilon=-1.0)

    def test_all_listed_schemes_constructible(self):
        for scheme in SCHEMES:
            kwargs = {"fixed_epsilon": 1e-8} if scheme == "fixed" else {}
            assert AbftConfig(scheme=scheme, **kwargs).scheme == scheme


class TestValueSemantics:
    def test_frozen(self):
        cfg = AbftConfig()
        with pytest.raises(AttributeError):
            cfg.block_size = 32

    def test_equal_configs_hash_equal(self):
        assert AbftConfig(block_size=32) == AbftConfig(block_size=32)
        assert hash(AbftConfig(block_size=32)) == hash(AbftConfig(block_size=32))
        assert AbftConfig(block_size=32) != AbftConfig(block_size=16)

    def test_replace_revalidates(self):
        cfg = AbftConfig()
        assert cfg.replace(block_size=32).block_size == 32
        assert cfg.block_size == 64  # original untouched
        with pytest.raises(ValueError):
            cfg.replace(p=0)

    def test_describe_mentions_scheme(self):
        assert "aabft" in AbftConfig().describe()
        assert "epsilon" in AbftConfig(scheme="fixed", fixed_epsilon=1e-6).describe()


class TestDeprecationShims:
    def test_positional_tuning_args_rejected(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (32, 32))
        from repro.abft import aabft_matmul, fixed_abft_matmul, sea_abft_matmul

        with pytest.raises(TypeError):
            aabft_matmul(a, a, 16)
        with pytest.raises(TypeError):
            sea_abft_matmul(a, a, 16)
        with pytest.raises(TypeError):
            fixed_abft_matmul(a, a, 1e-6, 16)
        # epsilon stays positional
        assert fixed_abft_matmul(a, a, 1e-6).row_layout.block_size == 64

    def test_keyword_call_does_not_warn(self):
        import warnings

        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (32, 32))
        from repro.abft import aabft_matmul

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            aabft_matmul(a, a, block_size=16)

    def test_config_and_kwarg_override(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (32, 32))
        from repro.abft import aabft_matmul

        cfg = AbftConfig(block_size=32, omega=5.0)
        result = aabft_matmul(a, a, config=cfg, block_size=16)
        assert result.row_layout.block_size == 16
        assert result.provider.scheme.omega == 5.0

    def test_fixed_requires_epsilon_somewhere(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (16, 16))
        from repro.abft import fixed_abft_matmul

        with pytest.raises(TypeError, match="epsilon"):
            fixed_abft_matmul(a, a)
        cfg = AbftConfig(scheme="fixed", fixed_epsilon=1e-6, block_size=16)
        result = fixed_abft_matmul(a, a, config=cfg)
        assert result.provider.epsilon_value == 1e-6
