"""Shared fixtures for the A-ABFT reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; tests that need several draws share the stream."""
    return np.random.default_rng(0xA_ABF7)


@pytest.fixture
def small_pair(rng):
    """A 96x96 operand pair with uniform(-1, 1) entries (block size 32)."""
    a = rng.uniform(-1.0, 1.0, (96, 96))
    b = rng.uniform(-1.0, 1.0, (96, 96))
    return a, b


@pytest.fixture
def rect_pair(rng):
    """A rectangular (m != n != q) pair exercising non-square paths."""
    a = rng.uniform(-1.0, 1.0, (64, 96))
    b = rng.uniform(-1.0, 1.0, (96, 128))
    return a, b


@pytest.fixture
def simulator():
    """A fresh K20c simulator."""
    from repro.gpusim import GpuSimulator

    return GpuSimulator()


@pytest.fixture
def delegate_backend(monkeypatch):
    """Register ``"delegate"``, numpy's GEMM under another name, beside the
    shipped backends of the process-wide registry for one test.

    It is the second backend that tests of pins, backend attribution and
    dispatch faults need; its results are numpy's bytes.
    """
    from dataclasses import replace

    from repro.backends import BackendRegistry, CupyBackend, NumpyBackend
    from repro.backends import registry as registry_module

    class DelegateBackend(NumpyBackend):
        name = "delegate"

        def capabilities(self):
            return replace(super().capabilities(), name=self.name)

    registry = BackendRegistry()
    registry.register("numpy", NumpyBackend)
    registry.register("cupy", CupyBackend)
    registry.register("delegate", DelegateBackend)
    monkeypatch.setattr(registry_module, "_default_registry", registry)
    return "delegate"
