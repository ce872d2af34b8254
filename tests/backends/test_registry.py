"""Backend registry: registration, lazy build, capability negotiation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    Backend,
    BackendCapabilities,
    BackendRegistry,
    NumpyBackend,
    default_registry,
    get_backend,
    negotiate,
)
from repro.backends.registry import ENV_BACKEND
from repro.engine import AbftConfig
from repro.errors import ConfigurationError


class CountingBackend(Backend):
    """A numpy clone that records how many times it was constructed."""

    built = 0

    def __init__(self):
        type(self).built += 1
        self._inner = NumpyBackend()

    @property
    def name(self):
        return "counting"

    def capabilities(self):
        return BackendCapabilities(name="counting")

    def matmul(self, a, b, *, out=None):
        return self._inner.matmul(a, b, out=out)


class UnavailableBackend(Backend):
    @property
    def name(self):
        return "broken"

    def capabilities(self):
        return BackendCapabilities(name="broken")

    def availability(self):
        return False, "hardware missing"

    def matmul(self, a, b, *, out=None):
        raise AssertionError("must never dispatch")


class NonDeterministicBackend(Backend):
    @property
    def name(self):
        return "fuzzy"

    def capabilities(self):
        return BackendCapabilities(name="fuzzy", deterministic=False)

    def matmul(self, a, b, *, out=None):
        return a @ b


class TinyBackend(Backend):
    """Capability-limited: refuses anything beyond 100 elements."""

    @property
    def name(self):
        return "tiny"

    def capabilities(self):
        return BackendCapabilities(name="tiny", max_elements=100)

    def matmul(self, a, b, *, out=None):
        return a @ b


def make_registry() -> BackendRegistry:
    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register("counting", CountingBackend)
    registry.register("broken", UnavailableBackend)
    registry.register("fuzzy", NonDeterministicBackend)
    registry.register("tiny", TinyBackend)
    return registry


class TestRegistry:
    def test_lazy_single_instantiation(self):
        registry = make_registry()
        CountingBackend.built = 0
        assert CountingBackend.built == 0  # registration builds nothing
        first = registry.get("counting")
        second = registry.get("counting")
        assert first is second
        assert CountingBackend.built == 1

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_registry().get("nope")

    def test_duplicate_requires_replace(self):
        registry = make_registry()
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("numpy", NumpyBackend)
        registry.register("numpy", CountingBackend, replace=True)
        assert isinstance(registry.get("numpy"), CountingBackend)

    def test_contains_and_names(self):
        registry = make_registry()
        assert "numpy" in registry and "nope" not in registry
        assert registry.names()[0] == "numpy"

    def test_default_registry_ships_numpy_and_cupy(self):
        names = default_registry().names()
        assert names == ["numpy", "cupy"]
        assert get_backend("numpy").availability() == (True, None)

    def test_describe_reports_availability(self):
        rows = {row["name"]: row for row in make_registry().describe()}
        assert rows["numpy"]["available"]
        assert not rows["broken"]["available"]
        assert rows["broken"]["reason"] == "hardware missing"
        assert rows["fuzzy"]["deterministic"] is False


class TestNegotiation:
    DTYPE = np.dtype(np.float64)

    def negotiate(self, config, *, m=64, n=64, q=64, environ=None):
        return negotiate(
            config,
            m,
            n,
            q,
            self.DTYPE,
            registry=make_registry(),
            environ=environ if environ is not None else {},
        )

    def test_auto_defaults_to_numpy(self):
        sel = self.negotiate(AbftConfig())
        assert (sel.backend, sel.source) == ("numpy", "default")
        assert sel.fallback_from is None

    def test_config_pin_wins(self):
        sel = self.negotiate(AbftConfig(backend="counting"))
        assert (sel.backend, sel.source) == ("counting", "pinned")

    def test_env_pin_applies_to_auto_configs(self):
        sel = self.negotiate(
            AbftConfig(), environ={ENV_BACKEND: "counting"}
        )
        assert (sel.backend, sel.source) == ("counting", "env")

    def test_config_pin_beats_env_pin(self):
        sel = self.negotiate(
            AbftConfig(backend="counting"), environ={ENV_BACKEND: "fuzzy"}
        )
        assert (sel.backend, sel.source) == ("counting", "pinned")

    def test_unavailable_pin_falls_back_with_reason(self):
        sel = self.negotiate(AbftConfig(backend="broken"))
        assert sel.backend == "numpy"
        assert sel.fallback_from == "broken"
        assert sel.fallback_reason == "hardware missing"

    def test_unknown_pin_falls_back_with_reason(self):
        sel = self.negotiate(AbftConfig(backend="imaginary"))
        assert sel.backend == "numpy"
        assert "unknown backend" in sel.fallback_reason

    def test_capability_mismatch_falls_back(self):
        sel = self.negotiate(AbftConfig(backend="tiny"), m=64, n=64, q=64)
        assert sel.backend == "numpy"
        assert sel.fallback_from == "tiny"

    def test_pinned_non_deterministic_backend_is_allowed(self):
        sel = self.negotiate(AbftConfig(backend="fuzzy"))
        assert sel.backend == "fuzzy"


class TestConfigValidation:
    def test_describe_mentions_backend_choices(self):
        text = AbftConfig(backend="cupy").describe()
        assert "backend=cupy" in text
        assert "backend" not in AbftConfig().describe()
