"""The ``numpy`` backend: the host BLAS reference.

Runs the whole product as one ``np.matmul`` call and lets BLAS own the
cores.  It is the byte-for-byte reference every deterministic backend is
held against, and the terminal fallback of the never-silent fallback
chain, so it must always be available.
"""

from __future__ import annotations

import numpy as np

from .base import Backend, BackendCapabilities

__all__ = ["NumpyBackend"]


class NumpyBackend(Backend):
    """One host-BLAS call per product."""

    name = "numpy"

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            dtypes=("float64", "float32"),
            max_elements=None,
            fused_encode=True,
            deterministic=True,
            fused_online=True,
            description="host BLAS (bitwise reference, terminal fallback)",
        )

    def matmul(
        self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        return np.matmul(a, b, out=out)
