"""Variance-adaptive tolerances for low-precision (fp16/bf16) storage.

The probabilistic and SEA bounds model rounding noise of the *compute*
dtype.  When operands and results are stored in a narrower dtype but the
GEMM and the checksums accumulate in float32/float64 (the mixed-precision
discipline this library follows, after V-ABFT), every stored result
element additionally carries a quantisation error of up to ``u_s * |c|``
(``u_s`` the storage unit roundoff), while the checksum values — which
never round-trip through storage — do not.  A checksum comparison over an
encoding block of ``m`` elements therefore sees an extra discrepancy term
the compute-dtype bounds cannot explain, and a naive check false-positives
on every fault-free low-precision run.

V-ABFT's remedy is a variance-based adaptive threshold: estimate the
per-block quantisation noise scale sigma from data the encode pass already
produced, and widen the tolerance by ``k * sigma`` with ``k`` calibrated
per dtype.  Here sigma is estimated from the same Euclidean norms the SEA
scheme computes: by Cauchy–Schwarz every block element satisfies
``|c_ij| <= ||a_i|| * ||b_j||``, so the summed absolute quantisation error
over one block is at most::

    sum_i u_s * |c_ij| <= u_s * ||b_j|| * sum_i ||a_i||

With ``k = 1`` this is a deterministic worst case (zero false positives by
construction, up to subnormal rounding); the per-dtype calibration table
:data:`ADAPTIVE_K` keeps a small safety margin on top.  The full adaptive
tolerance is the SEA compute-dtype term plus the quantisation term::

    eps = sea_epsilon(...t_compute...) + k * u_s * ||b_j|| * sum_i ||a_i||
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import BoundSchemeError
from ..fp.constants import BINARY32, FloatFormat
from .base import BoundContext, BoundScheme
from .sea import sea_epsilon, sea_epsilon_array

__all__ = [
    "ADAPTIVE_K",
    "adaptive_k_for",
    "quantization_epsilon",
    "quantization_epsilon_array",
    "adaptive_epsilon",
    "adaptive_epsilon_array",
    "AdaptiveBound",
]

#: Calibrated threshold scale ``k`` per storage dtype (the V-ABFT knob).
#: ``k = 1`` is the deterministic Cauchy–Schwarz worst case; the margins
#: absorb subnormal quantisation (absolute, not relative, rounding) and
#: bf16's coarser mantissa without giving up detection headroom.
ADAPTIVE_K = {
    "binary16": 1.25,
    "bfloat16": 1.25,
    "binary32": 1.0,
    "binary64": 1.0,
}


def adaptive_k_for(storage_fmt: FloatFormat) -> float:
    """The calibrated ``k`` for a storage format (1.0 for unknown names)."""
    return ADAPTIVE_K.get(storage_fmt.name, 1.0)


def quantization_epsilon(
    data_norm_sum: float, b_norm: float, u_storage: float, k: float
) -> float:
    """The ``k * sigma`` quantisation term of one checksum comparison.

    ``data_norm_sum`` is the summed Euclidean norm of the block's data
    rows of ``A``, ``b_norm`` the norm of the checked column of ``B`` and
    ``u_storage`` the unit roundoff of the storage dtype.
    """
    if u_storage < 0.0:
        raise ValueError(f"u_storage must be >= 0, got {u_storage}")
    if k < 0.0:
        raise ValueError(f"k must be >= 0, got {k}")
    return k * u_storage * data_norm_sum * b_norm


def quantization_epsilon_array(
    data_norm_sum: float | np.ndarray, b_norms: np.ndarray, u_storage: float, k: float
) -> np.ndarray:
    """Vectorised :func:`quantization_epsilon` over many checked columns."""
    if u_storage < 0.0:
        raise ValueError(f"u_storage must be >= 0, got {u_storage}")
    if k < 0.0:
        raise ValueError(f"k must be >= 0, got {k}")
    b_norms = np.asarray(b_norms, dtype=np.float64)
    return (k * u_storage * data_norm_sum) * b_norms


def adaptive_epsilon(
    n: int,
    data_row_norms: np.ndarray,
    checksum_row_norm: float,
    b_norm: float,
    t_compute: int,
    u_storage: float,
    k: float,
) -> float:
    """One adaptive tolerance: SEA compute term + quantisation term."""
    norms = np.asarray(data_row_norms, dtype=np.float64).ravel()
    base = sea_epsilon(
        n=n,
        data_row_norms=norms,
        checksum_row_norm=checksum_row_norm,
        b_norm=b_norm,
        t=t_compute,
    )
    return base + quantization_epsilon(
        float(norms.sum()), b_norm, u_storage, k
    )


def adaptive_epsilon_array(
    n: int,
    m: int,
    data_norm_sum: float | np.ndarray,
    checksum_row_norm: float | np.ndarray,
    b_norms: np.ndarray,
    t_compute: int,
    u_storage: float,
    k: float,
) -> np.ndarray:
    """Vectorised :func:`adaptive_epsilon` over many checked columns.

    Operation order mirrors the scalar form (SEA term first, quantisation
    term added last), so scalar and array paths agree bitwise.  As in
    :func:`~repro.bounds.sea.sea_epsilon_array`, the per-group values may
    be arrays broadcasting against ``b_norms``.
    """
    base = sea_epsilon_array(
        n=n,
        m=m,
        data_norm_sum=data_norm_sum,
        checksum_row_norm=checksum_row_norm,
        b_norms=b_norms,
        t=t_compute,
    )
    return base + quantization_epsilon_array(
        data_norm_sum, b_norms, u_storage, k
    )


@dataclass
class AdaptiveBound(BoundScheme):
    """Variance-adaptive bound for low-precision storage (V-ABFT style).

    Parameters
    ----------
    fmt:
        The *compute* format (checksums accumulate in it — float32 or
        float64).
    storage_fmt:
        The *storage* format of operands and results (float16/bfloat16;
        using the compute format degenerates to a slightly padded SEA).
    k:
        Calibrated threshold scale; defaults to the
        :data:`ADAPTIVE_K` entry for ``storage_fmt``.

    Consumes the same :class:`~repro.bounds.base.BoundContext` fields as
    :class:`~repro.bounds.sea.SEABound` (``n``, ``a_norms``, ``b_norm``).
    """

    fmt: FloatFormat = BINARY32
    storage_fmt: FloatFormat = BINARY32
    k: float | None = None
    name: str = "adaptive"
    _k: float = field(init=False, repr=False, default=1.0)

    def __post_init__(self) -> None:
        self._k = (
            adaptive_k_for(self.storage_fmt) if self.k is None else float(self.k)
        )
        if self._k < 0.0 or not math.isfinite(self._k):
            raise ValueError(f"k must be >= 0 and finite, got {self._k}")

    @property
    def effective_k(self) -> float:
        """The resolved threshold scale (explicit ``k`` or the table's)."""
        return self._k

    def epsilon(self, ctx: BoundContext) -> float:
        if ctx.a_norms is None or ctx.b_norm is None:
            raise BoundSchemeError(
                "AdaptiveBound requires row norms of A (data rows + "
                "checksum row) and the norm of the checked column of B"
            )
        norms = np.asarray(ctx.a_norms, dtype=np.float64).ravel()
        if norms.size < 2:
            raise BoundSchemeError(
                "a_norms must contain at least one data row and the checksum row"
            )
        return adaptive_epsilon(
            n=ctx.n,
            data_row_norms=norms[:-1],
            checksum_row_norm=float(norms[-1]),
            b_norm=float(ctx.b_norm),
            t_compute=self.fmt.t,
            u_storage=self.storage_fmt.unit_roundoff,
            k=self._k,
        )

    def describe(self) -> str:
        return (
            f"variance-adaptive low-precision bound "
            f"(compute t={self.fmt.t}, storage {self.storage_fmt.name}, "
            f"k={self._k:g})"
        )
