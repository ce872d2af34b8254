"""The unified configuration object for protected multiplications.

Every tuning knob of the matmul family — encoding block size, top-p depth,
confidence scale, FMA modelling, tolerance floor, bound scheme — lives in
one frozen, hashable :class:`AbftConfig`.  Engines key their execution-plan
caches on ``(shape, dtype, config)``, so two calls with equal configs share
all shape-dependent setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..bounds.fixed import FixedBound
from ..errors import ConfigurationError
from ..fp.constants import (
    LOW_PRECISION_NAMES,
    format_for_name,
    supported_storage_dtypes,
)

__all__ = ["AbftConfig", "SCHEMES", "DTYPE_NAMES"]

#: The bound schemes a config may select (paper Table I rows, plus the
#: V-ABFT-style variance-adaptive scheme for low-precision storage).
SCHEMES = ("aabft", "sea", "fixed", "adaptive")

#: Operand storage dtypes a config may name.  ``bfloat16`` is listed so
#: the error for a build without ``ml_dtypes`` names the real problem
#: (missing optional dependency) rather than "unknown dtype".
DTYPE_NAMES = ("float16", "bfloat16", "float32", "float64")


@dataclass(frozen=True)
class AbftConfig:
    """Immutable tuning parameters of one protected multiplication.

    Parameters
    ----------
    block_size:
        Partitioned-encoding block size ``BS`` (paper Section VI-B: 64).
    p:
        Number of tracked largest absolute values per vector (Section IV-E).
        Only the ``"aabft"`` scheme consumes it.
    omega:
        Confidence scale of the probabilistic bound (paper default: 3).
    fma:
        Model a fused multiply-add pipeline (Section IV-D).
    epsilon_floor:
        Absolute tolerance floor for inputs whose checksum vectors cancel
        to (near) zero; the default 0 is paper-faithful (see docs/THEORY.md).
    scheme:
        ``"aabft"`` (autonomous), ``"sea"`` (norm-based baseline),
        ``"fixed"`` (manual tolerance) or ``"adaptive"`` (variance-based
        adaptive tolerance for low-precision storage; see
        :mod:`repro.bounds.adaptive`).
    fixed_epsilon:
        The manual tolerance; required when ``scheme="fixed"``.
    dtype:
        Operand *storage* dtype name (``"float16"``, ``"bfloat16"``,
        ``"float32"``, ``"float64"``), or ``None`` (default) to infer it
        from the operands.  Low-precision operands (float16/bfloat16)
        **require** naming it — together with an adaptive-capable scheme —
        instead of being silently upcast; the GEMM and checksums then
        accumulate in float32 while results quantise back to the storage
        dtype.  ``"bfloat16"`` additionally requires the optional
        ``ml_dtypes`` package (numpy has no native bfloat16).
    backend:
        Compute backend for the GEMM stage: a registered backend name to
        pin it, or ``"auto"`` (default) to let capability negotiation
        choose (``AABFT_BACKEND`` env pin > ``numpy``).
    fusion:
        Online-ABFT fusion strategy for the multiply+check stages:
        ``"fused"`` pins the per-tile fused kernel
        (:func:`repro.kernels.online_fused.online_fused_matmul`),
        ``"separate"`` pins the classic separate passes, and ``"auto"``
        (default) lets negotiation choose (``AABFT_FUSION`` env pin >
        autotuned decision > separate).  A fused pin against a backend
        without the ``fused_online`` capability falls back to separate
        with a counted reason — never silently.
    fused_tile_blocks:
        Fused tile edge in whole encoded checksum blocks per axis (the
        tile spans ``fused_tile_blocks * (block_size + 1)`` encoded
        rows/cols).  ``None`` (default) is the single full-result fused
        tile, whose result bytes and discrepancy grids are bitwise equal
        to the separate default path.  Multi-tile fusion changes result
        bytes deterministically: each tile is its own BLAS call.

    The dataclass is frozen and hashable, so it can key plan caches and be
    shared freely between threads.  Use :meth:`replace` to derive variants.
    """

    block_size: int = 64
    p: int = 2
    omega: float = 3.0
    fma: bool = False
    epsilon_floor: float = 0.0
    scheme: str = "aabft"
    fixed_epsilon: float | None = None
    dtype: str | None = None
    backend: str = "auto"
    fusion: str = "auto"
    fused_tile_blocks: int | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if self.epsilon_floor < 0.0 or not math.isfinite(self.epsilon_floor):
            raise ValueError(
                f"epsilon_floor must be >= 0, got {self.epsilon_floor}"
            )
        if self.scheme == "fixed":
            if self.fixed_epsilon is None:
                raise ConfigurationError("scheme='fixed' requires fixed_epsilon")
            FixedBound(float(self.fixed_epsilon))  # validate eagerly
        if self.dtype is not None:
            if self.dtype not in DTYPE_NAMES:
                raise ConfigurationError(
                    f"unknown dtype {self.dtype!r}; expected one of "
                    f"{DTYPE_NAMES}"
                )
            try:
                format_for_name(self.dtype)  # bfloat16 gates on ml_dtypes
            except KeyError as exc:
                raise ConfigurationError(str(exc)) from None
        if self.dtype in LOW_PRECISION_NAMES and self.scheme not in (
            "adaptive",
            "fixed",
        ):
            raise ConfigurationError(
                f"storage dtype {self.dtype!r} carries quantisation noise "
                f"the {self.scheme!r} bound does not model; use "
                "scheme='adaptive' (variance-adaptive tolerance) or "
                "scheme='fixed' with an explicit tolerance"
            )
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigurationError(
                f"backend must be a non-empty str, got {self.backend!r}"
            )
        if self.fusion not in ("auto", "fused", "separate"):
            raise ConfigurationError(
                f"fusion must be 'auto', 'fused' or 'separate', got "
                f"{self.fusion!r}"
            )
        if self.fused_tile_blocks is not None and self.fused_tile_blocks < 1:
            raise ValueError(
                f"fused_tile_blocks must be >= 1, got {self.fused_tile_blocks}"
            )

    def replace(self, **changes) -> "AbftConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [f"scheme={self.scheme}", f"block_size={self.block_size}"]
        if self.scheme == "aabft":
            parts += [f"p={self.p}", f"omega={self.omega:g}"]
            if self.fma:
                parts.append("fma")
            if self.epsilon_floor:
                parts.append(f"floor={self.epsilon_floor:g}")
        if self.scheme == "fixed":
            parts.append(f"epsilon={self.fixed_epsilon:g}")
        if self.dtype is not None:
            parts.append(f"dtype={self.dtype}")
        if self.backend != "auto":
            parts.append(f"backend={self.backend}")
        if self.fusion != "auto":
            parts.append(f"fusion={self.fusion}")
        if self.fused_tile_blocks is not None:
            parts.append(f"fused_tile_blocks={self.fused_tile_blocks}")
        return "AbftConfig(" + ", ".join(parts) + ")"
