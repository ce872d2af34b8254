"""The ``cupy`` backend: device GEMM behind a guarded import.

Executes the whole multiplication as one device GEMM via cupy when a CUDA
device is present.  The import is guarded and the probe result cached, so
on hosts without cupy (or without a GPU) the backend reports itself
unavailable with a reason and negotiation skips it cleanly — no import
error ever escapes to callers.

Device GEMM accumulation order differs from the host BLAS, so the
capability descriptor declares ``deterministic=False``.  Negotiation
only runs it when pinned (``AbftConfig(backend="cupy")`` or
``AABFT_BACKEND=cupy``), accepting results that are numerically
equivalent but not bitwise-identical to the host reference.
"""

from __future__ import annotations

import threading

import numpy as np

from .base import Backend, BackendCapabilities, BackendUnavailable

__all__ = ["CupyBackend"]


class CupyBackend(Backend):
    """CUDA device GEMM via cupy (capability-gated, pinned only)."""

    name = "cupy"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probed = False
        self._cupy = None
        self._reason: str | None = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            dtypes=("float64", "float32"),
            max_elements=None,
            # Host-pooled encode buffers would need explicit device
            # transfer staging; keep the fused path off this backend.
            fused_encode=False,
            deterministic=False,
            # Per-tile host-side checks would force a device sync per
            # tile; fused online needs a device-side check kernel first.
            fused_online=False,
            description="CUDA device GEMM via cupy (pin explicitly; "
            "not bitwise vs the host reference)",
        )

    def availability(self) -> tuple[bool, str | None]:
        """Probe cupy + a CUDA device once; cache the outcome."""
        with self._lock:
            if not self._probed:
                self._probed = True
                try:
                    import cupy  # noqa: PLC0415 - optional dependency

                    if cupy.cuda.runtime.getDeviceCount() < 1:
                        self._reason = "no CUDA device visible"
                    else:
                        self._cupy = cupy
                except ImportError:
                    self._reason = "cupy is not installed"
                except Exception as exc:  # pragma: no cover - driver-specific
                    self._reason = (
                        f"CUDA runtime unavailable ({type(exc).__name__})"
                    )
            return self._cupy is not None, self._reason

    def matmul(
        self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        available, reason = self.availability()
        if not available:
            raise BackendUnavailable(reason)
        cp = self._cupy
        result = cp.asnumpy(cp.matmul(cp.asarray(a), cp.asarray(b)))
        if out is not None:
            out[...] = result
            return out
        return result
