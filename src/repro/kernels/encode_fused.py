"""Fused host-side encode kernel: checksums + top-p + norms in one pass.

This is the array-level analog of the paper's Algorithm 1, which fuses the
partitioned checksum encoding with the top-p max search so the operand is
read once.  :func:`fused_encode` performs, for one operand, in a single
kernel invocation:

* the partitioned checksum encoding (block-reshaped copy + reduction, no
  per-block Python loop) — bitwise identical to the reference loop kernels
  ``encode_partitioned_*_reference``;
* the top-p absolute values/indices of every encoded vector for the
  ``aabft`` scheme, via ``p`` rounds of a strict vectorised max search
  (Algorithm 1's tie semantics: first occurrence wins) over ``|x|`` at
  the operand's own width — a float32 operand is never copied to
  float64, and NaN rows are found from the first round's picks rather
  than by a separate pass over the operand;
* the Euclidean norms of every encoded vector for the ``sea`` scheme.

All scratch buffers — including the encoded output itself — can come from
a :class:`~repro.engine.plan.WorkspacePool`, so warm engine calls and
pipelined batches run allocation-free on the encode path.  The cycle-level
simulated GPU kernels live in :mod:`repro.kernels.encode`;
``encode_reference.algorithm1_reference`` remains the per-block oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..abft.encoding import (
    PartitionedLayout,
    encode_partitioned_columns,
    encode_partitioned_rows,
)
from ..bounds.upper_bound import top_p_arrays
from ..errors import ConfigurationError

__all__ = ["FusedEncodeResult", "fused_encode"]


@dataclass(frozen=True)
class FusedEncodeResult:
    """Everything one operand contributes to the protected multiplication.

    ``encoded`` may be a pooled buffer when a ``pool`` was passed: the
    caller owns it and decides whether to give it back (the engine does so
    after the multiply has consumed it) or let it escape (never pooled
    again once handed to user code).
    """

    encoded: np.ndarray
    layout: PartitionedLayout
    top_values: np.ndarray | None = None
    top_indices: np.ndarray | None = None
    norms: np.ndarray | None = None


def fused_encode(
    matrix: np.ndarray,
    side: str,
    block_size: int,
    *,
    p: int | None = None,
    norms: bool = False,
    pool=None,
) -> FusedEncodeResult:
    """Encode one operand and compute its bound-scheme preprocessing.

    Parameters
    ----------
    matrix:
        The (already padded, dtype-resolved) operand.
    side:
        ``"a"`` encodes checksum rows and searches the encoded *rows*;
        ``"b"`` encodes checksum columns and searches the encoded *columns*.
    block_size:
        The partitioned-encoding block size ``BS``.
    p:
        When given, compute the top-``p`` values/indices of every encoded
        vector (``aabft``).  Mutually exclusive with ``norms``.
    norms:
        When true, compute every encoded vector's Euclidean norm (``sea``).
    pool:
        Optional :class:`~repro.engine.plan.WorkspacePool` supplying the
        encoded output buffer and the top-p search workspace.
    """
    if side not in ("a", "b"):
        raise ConfigurationError(f"side must be 'a' or 'b', got {side!r}")
    if p is not None and norms:
        raise ConfigurationError("p and norms are mutually exclusive")
    matrix = np.asarray(matrix)
    axis = 1 if side == "a" else 0
    if side == "a":
        out = None
        if pool is not None:
            layout = PartitionedLayout(matrix.shape[0], block_size)
            out = pool.take((layout.encoded_rows, matrix.shape[1]), matrix.dtype)
        encoded, layout = encode_partitioned_columns(matrix, block_size, out=out)
    else:
        out = None
        if pool is not None:
            layout = PartitionedLayout(matrix.shape[1], block_size)
            out = pool.take((matrix.shape[0], layout.encoded_rows), matrix.dtype)
        encoded, layout = encode_partitioned_rows(matrix, block_size, out=out)
    top_vals = top_idx = vec_norms = None
    if p is not None:
        top_vals, top_idx = top_p_arrays(encoded, p, axis=axis, pool=pool)
    elif norms:
        vec_norms = np.linalg.norm(encoded, axis=axis)
    return FusedEncodeResult(
        encoded=encoded,
        layout=layout,
        top_values=top_vals,
        top_indices=top_idx,
        norms=vec_norms,
    )
