"""Pluggable compute backends with capability negotiation.

The engine's heavy GEMM stage dispatches through this subsystem instead
of a hard-wired ``a @ b``:

* :class:`Backend` / :class:`BackendCapabilities` — the execution
  contract and the capability descriptor negotiation consults;
* :class:`BackendRegistry` / :func:`negotiate` — name -> backend mapping
  and the selection policy (config pin > ``AABFT_BACKEND`` env pin >
  ``numpy``), with a never-silent fallback to ``numpy`` recorded on
  results and in ``abft_backend_*`` telemetry;
* two shipped backends — :class:`NumpyBackend` (one host BLAS call that
  lets BLAS own the cores; the bitwise reference) and
  :class:`CupyBackend` (guarded-import device GEMM, capability-gated —
  the seam for a real GPU);
* :class:`Autotuner` / :class:`AutotuneCache` — per-``(shape, dtype,
  scheme)`` timing of the fused online-ABFT loop against the separate
  GEMM + check, with decisions persisted on disk and fed into
  negotiation.

Example
-------
>>> import numpy as np
>>> from repro.backends import get_backend
>>> a = np.ones((8, 4)); b = np.ones((4, 6))
>>> bool((get_backend("numpy").matmul(a, b) == a @ b).all())
True
"""

from .autotune import (
    ENV_AUTOTUNE_CACHE,
    Autotuner,
    AutotuneCache,
    TunedChoice,
    default_cache_path,
)
from .base import Backend, BackendCapabilities, BackendUnavailable
from .cupy_backend import CupyBackend
from .numpy_backend import NumpyBackend
from .registry import (
    DEFAULT_BACKEND,
    ENV_BACKEND,
    ENV_FUSION,
    BackendRegistry,
    BackendSelection,
    default_registry,
    get_backend,
    negotiate,
)

__all__ = [
    "Backend",
    "BackendCapabilities",
    "BackendRegistry",
    "BackendSelection",
    "BackendUnavailable",
    "CupyBackend",
    "NumpyBackend",
    "Autotuner",
    "AutotuneCache",
    "TunedChoice",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "ENV_AUTOTUNE_CACHE",
    "ENV_FUSION",
    "default_cache_path",
    "default_registry",
    "get_backend",
    "negotiate",
]
