"""Runtime determination of the upper bound ``y`` (paper Section IV-E).

The probabilistic model needs, for every checked element ``c_{i,j}``, an
upper bound ``y >= |a_{i,k} * b_{k,j}|`` on every intermediate product.  The
autonomous scheme pre-computes, during encoding, the ``p`` elements with the
largest absolute values (and their indices) of every row of ``A`` and every
column of ``B``.  At check time ``y`` is the **maximum of three cases**:

1. shared indices ``S = A_idx ∩ B_idx ≠ ∅``: candidate ``max_{s∈S} |a_s b_s|``
   — two large values actually meet;
2. the largest ``|a|`` pairs with some element outside ``B``'s top-p, which
   is at most ``min_{s∈B_idx} |b_s|``: candidate ``max|a| * min_top|b|``;
3. symmetrically ``max|b| * min_top|a|``.

Cases 2 and 3 are always valid bounds for products whose index is missing
from one of the top-p sets, so the overall ``y`` is the maximum of all
candidates.  Larger ``p`` tightens cases 2/3 (the ``min`` shrinks) at higher
pre-processing cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TopP",
    "top_p_of_rows",
    "top_p_of_columns",
    "top_p_arrays",
    "determine_upper_bound",
    "upper_bound_grid_arrays",
    "missing_index_bound_arrays",
    "add_shared_index_bound",
    "exact_upper_bound",
]


@dataclass(frozen=True)
class TopP:
    """The ``p`` largest absolute values (descending) and their indices
    for one vector.

    ``values[0]`` is the global maximum of the vector's absolute values;
    ``values[-1]`` is the ``p``-th largest (the ``min`` of cases 2/3).
    """

    values: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.indices.shape:
            raise ValueError("values and indices must have matching shapes")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("TopP requires a non-empty 1-D value array")

    @property
    def p(self) -> int:
        return int(self.values.size)

    @property
    def max(self) -> float:
        return float(self.values[0])

    @property
    def min(self) -> float:
        return float(self.values[-1])


def top_p_arrays(
    matrix: np.ndarray, p: int, axis: int, *, pool=None
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked top-p values and indices of every vector along ``axis``.

    Returns ``(values, indices)`` of shape ``(k, p)`` where ``k`` is the
    number of vectors (rows for ``axis=1``, columns for ``axis=0``) and each
    row holds the vector's ``p`` largest absolute values in descending order.
    This is the array form of :func:`top_p_of_rows` /
    :func:`top_p_of_columns`; the engine's vectorised checking path consumes
    it directly without materialising per-vector :class:`TopP` objects.

    The search runs ``p`` rounds of a strict maximum over all vectors at
    once — the array analog of Algorithm 1's max search — so ties in
    absolute value resolve to the *lowest* index, exactly like the
    reference kernel's ``>`` comparison.  Both axes share one row-major
    core (``axis=0`` searches a contiguous transposed ``|x|``), so
    :func:`top_p_of_rows` of ``M.T`` and :func:`top_p_of_columns` of ``M``
    agree bitwise.

    float32 and float64 matrices are searched at their own width; other
    dtypes are converted to float64 first.  ``|x|``, strict comparisons
    and the float32 -> float64 widening of the returned values are all
    exact, so both widths give the bytes of a float64 search.

    ``pool``, when given, must provide ``take(shape, dtype)`` / ``give(buf)``
    (see :class:`repro.engine.plan.WorkspacePool`); the absolute-value
    scratch buffer is then recycled instead of allocated per call.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype not in (np.float32, np.float64):
        matrix = matrix.astype(np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    length = matrix.shape[axis]
    if not 1 <= p <= length:
        raise ValueError(f"p must be in 1..{length}, got {p}")
    # axis=0 searches the transpose written C-contiguous, which keeps every
    # round on the fast row-major argmax loop (a strided column argmax is
    # ~10x slower).
    source = matrix if axis == 1 else matrix.T
    work = _take(pool, source.shape, matrix.dtype)
    np.abs(source, out=work)
    k = work.shape[0]
    vals = np.empty((k, p))
    idx = np.empty((k, p), dtype=np.intp)
    rows = np.arange(k)
    for j in range(p):
        best = np.argmax(work, axis=1)
        picked = work[rows, best]
        if j == 0:
            # NaNs are never selected (they lose every strict ``>``
            # comparison in the reference kernel), but np.argmax returns a
            # row's first NaN — so the first round's picks name exactly the
            # rows holding one.  Mask those rows and search them again.
            nan_rows = np.flatnonzero(np.isnan(picked))
            if nan_rows.size:
                sub = work[nan_rows]
                sub[np.isnan(sub)] = -np.inf
                work[nan_rows] = sub
                best[nan_rows] = np.argmax(sub, axis=1)
                picked = work[rows, best]
        idx[:, j] = best
        vals[:, j] = picked
        if j + 1 < p:
            work[rows, best] = -np.inf
    _give(pool, work)
    return vals, idx


def _take(pool, shape: tuple[int, int], dtype) -> np.ndarray:
    if pool is None:
        return np.empty(shape, dtype=dtype)
    return pool.take(shape, dtype)


def _give(pool, buffer: np.ndarray) -> None:
    if pool is not None:
        pool.give(buffer)


def _top_p_along(matrix: np.ndarray, p: int, axis: int) -> list[TopP]:
    vals, idx = top_p_arrays(matrix, p, axis)
    return [TopP(values=v, indices=i) for v, i in zip(vals, idx)]


def top_p_of_rows(matrix: np.ndarray, p: int) -> list[TopP]:
    """Top-p absolute values of every row (for the rows of ``A``)."""
    return _top_p_along(matrix, p, axis=1)


def top_p_of_columns(matrix: np.ndarray, p: int) -> list[TopP]:
    """Top-p absolute values of every column (for the columns of ``B``)."""
    return _top_p_along(matrix, p, axis=0)


def determine_upper_bound(row_top: TopP, col_top: TopP) -> float:
    """The three-case maximum ``y`` for one (row of A, column of B) pair."""
    # Cases 2 and 3 are valid bounds regardless of the intersection.
    candidates = [row_top.max * col_top.min, col_top.max * row_top.min]
    # Case 1: indices present in both top-p sets pair their actual values.
    shared, a_pos, b_pos = np.intersect1d(
        row_top.indices, col_top.indices, return_indices=True
    )
    if shared.size:
        candidates.append(float(np.max(row_top.values[a_pos] * col_top.values[b_pos])))
    return max(candidates)


def upper_bound_grid_arrays(
    row_vals: np.ndarray,
    row_idx: np.ndarray,
    col_vals: np.ndarray,
    col_idx: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised three-case ``y`` for every (row, column) pair.

    Array form of :func:`determine_upper_bound`: ``row_vals``/``row_idx`` are
    the stacked ``(k_rows, p)`` top-p data of the row vectors (as produced by
    :func:`top_p_arrays`), ``col_vals``/``col_idx`` of the column vectors.
    Returns the ``(k_rows, k_cols)`` grid of upper bounds, bitwise equal to
    calling :func:`determine_upper_bound` on every pair.  ``out``, when
    given, receives the grid in place (it must be float64 of the right
    shape).  The build is :func:`missing_index_bound_arrays` followed by
    :func:`add_shared_index_bound`.
    """
    out = missing_index_bound_arrays(row_vals, col_vals, out=out)
    return add_shared_index_bound(out, row_vals, row_idx, col_vals, col_idx)


def missing_index_bound_arrays(
    row_vals: np.ndarray, col_vals: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Cases 2 and 3 for every (row, column) pair: a lower bound of ``y``.

    One side's maximum times the other side's ``p``-th largest value,
    whichever is larger.  The three-case ``y`` is the maximum of this grid
    and the shared-index candidates, so every entry is ``<=`` the matching
    :func:`upper_bound_grid_arrays` entry; :func:`add_shared_index_bound`
    turns it into that grid in place.
    """
    if out is None:
        out = np.empty((row_vals.shape[0], col_vals.shape[0]))
    np.multiply(row_vals[:, 0][:, None], col_vals[:, -1][None, :], out=out)
    np.maximum(out, row_vals[:, -1][:, None] * col_vals[:, 0][None, :], out=out)
    return out


def add_shared_index_bound(
    out: np.ndarray,
    row_vals: np.ndarray,
    row_idx: np.ndarray,
    col_vals: np.ndarray,
    col_idx: np.ndarray,
) -> np.ndarray:
    """Case 1 in place: shared indices pair their actual values.

    Raises a :func:`missing_index_bound_arrays` grid to the full
    three-case ``y``.  ``where=match`` leaves non-matching entries
    untouched, and two scratch arrays serve all ``p x p`` rounds.
    """
    shape = out.shape
    candidate = np.empty(shape)
    match = np.empty(shape, dtype=bool)
    for ri in range(row_vals.shape[1]):
        for ci in range(col_vals.shape[1]):
            np.equal(row_idx[:, ri][:, None], col_idx[:, ci][None, :], out=match)
            if np.any(match):
                np.multiply(
                    row_vals[:, ri][:, None], col_vals[:, ci][None, :],
                    out=candidate,
                )
                np.maximum(out, candidate, out=out, where=match)
    return out


def exact_upper_bound(a_row: np.ndarray, b_col: np.ndarray) -> float:
    """Ground truth ``max_k |a_k * b_k|`` for validating the three-case rule."""
    a_row = np.asarray(a_row, dtype=np.float64).ravel()
    b_col = np.asarray(b_col, dtype=np.float64).ravel()
    if a_row.shape != b_col.shape:
        raise ValueError("vectors must have equal length")
    return float(np.max(np.abs(a_row * b_col)))
