"""Simplified Error Analysis (SEA) bounds — the paper's main baseline.

Roy-Chowdhury/Banerjee (FTCS'93) derive ABFT tolerances by a first-order
rounding-error analysis over groups of variables.  For the matrix-vector
product ``A . b = c`` with an ``(m+1) x n`` column-checksum matrix ``A`` the
paper states the SEA tolerance (Section III) as::

    |c_{n+1} - c*_{n+1}| < ( (n + 2m - 2) * ||b||_2 * sum_{i=1}^m ||a_i||_2
                             + n * ||a_{m+1}||_2 * ||b||_2 ) * eps_M

where ``a_i`` are the data rows, ``a_{m+1}`` the checksum row, and
``eps_M = 2**-t`` the unit rounding error.  In the partitioned (block-based)
scheme ``m`` is the encoding block size and ``n`` the full inner dimension.

The scheme needs the Euclidean norms of all participating row vectors and of
the checked column — the "compute-intensive evaluation of numerous vector
norms" whose poor GPU utilisation shows up in the paper's Table I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BoundSchemeError
from ..fp.constants import BINARY64, FloatFormat
from .base import BoundContext, BoundScheme

__all__ = ["sea_epsilon", "sea_epsilon_array", "SEABound"]


def sea_epsilon(
    n: int,
    data_row_norms: np.ndarray,
    checksum_row_norm: float,
    b_norm: float,
    t: int,
) -> float:
    """The SEA tolerance for one checksum comparison.

    Parameters
    ----------
    n:
        Inner-product length (inner dimension of the multiplication).
    data_row_norms:
        Euclidean norms of the ``m`` data rows folded into the checksum.
    checksum_row_norm:
        Euclidean norm of the checksum row vector ``a_{m+1}``.
    b_norm:
        Euclidean norm of the checked column vector of ``B``.
    t:
        Significand precision in bits.
    """
    norms = np.asarray(data_row_norms, dtype=np.float64).ravel()
    m = norms.size
    if m < 1:
        raise ValueError("at least one data row norm is required")
    if n < 1:
        raise ValueError(f"inner dimension must be >= 1, got {n}")
    eps_m = math.ldexp(1.0, -t)
    first = (n + 2 * m - 2) * b_norm * float(norms.sum())
    second = n * checksum_row_norm * b_norm
    return (first + second) * eps_m


def sea_epsilon_array(
    n: int,
    m: int,
    data_norm_sum: float | np.ndarray,
    checksum_row_norm: float | np.ndarray,
    b_norms: np.ndarray,
    t: int,
) -> np.ndarray:
    """Vectorised :func:`sea_epsilon` over many checked columns at once.

    ``data_norm_sum`` is the summed Euclidean norm of the ``m`` data rows of
    one checksum group and ``b_norms`` the norms of all checked columns.
    ``data_norm_sum`` and ``checksum_row_norm`` may also be arrays of many
    groups' values that broadcast against ``b_norms`` (one call then builds
    a whole tolerance grid).  Operation order mirrors the scalar form
    exactly, so results are bitwise equal; used by the engine's
    plan-cached fast checking path.
    """
    if m < 1:
        raise ValueError("at least one data row norm is required")
    if n < 1:
        raise ValueError(f"inner dimension must be >= 1, got {n}")
    b_norms = np.asarray(b_norms, dtype=np.float64)
    eps_m = math.ldexp(1.0, -t)
    first = (n + 2 * m - 2) * b_norms * data_norm_sum
    second = n * checksum_row_norm * b_norms
    return (first + second) * eps_m


@dataclass
class SEABound(BoundScheme):
    """SEA-ABFT bound scheme over a :class:`~repro.bounds.base.BoundContext`.

    Reads ``ctx.n``, ``ctx.a_norms`` (data rows first, checksum row last)
    and ``ctx.b_norm``.
    """

    fmt: FloatFormat = BINARY64
    name: str = "sea-abft"

    def epsilon(self, ctx: BoundContext) -> float:
        if ctx.a_norms is None or ctx.b_norm is None:
            raise BoundSchemeError(
                "SEABound requires row norms of A (data rows + checksum row) "
                "and the norm of the checked column of B"
            )
        norms = np.asarray(ctx.a_norms, dtype=np.float64).ravel()
        if norms.size < 2:
            raise BoundSchemeError(
                "a_norms must contain at least one data row and the checksum row"
            )
        return sea_epsilon(
            n=ctx.n,
            data_row_norms=norms[:-1],
            checksum_row_norm=float(norms[-1]),
            b_norm=float(ctx.b_norm),
            t=self.fmt.t,
        )

    def describe(self) -> str:
        return f"SEA-ABFT simplified-error-analysis bound (t={self.fmt.t})"
