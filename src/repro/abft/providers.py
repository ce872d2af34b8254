"""Epsilon providers: adapting bound schemes to the partitioned check.

A bound scheme (:mod:`repro.bounds`) is a pure function of a per-comparison
context; a provider owns the *preprocessed runtime data* — top-p sets for
A-ABFT, vector norms for SEA — and builds that context for every comparison
the checker performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds.adaptive import AdaptiveBound, adaptive_epsilon_array
from ..bounds.base import BoundContext, BoundScheme
from ..bounds.probabilistic import (
    LINEAR_BOUND_MIN_Y,
    ProbabilisticBound,
    safe_epsilon_coefficient,
)
from ..bounds.sea import SEABound, sea_epsilon_array
from ..bounds.upper_bound import (
    TopP,
    add_shared_index_bound,
    determine_upper_bound,
    missing_index_bound_arrays,
)
from .encoding import PartitionedLayout

__all__ = [
    "ConstantEpsilonProvider",
    "AABFTEpsilonProvider",
    "SEAEpsilonProvider",
    "AdaptiveEpsilonProvider",
    "AABFTToleranceGrids",
]


@dataclass
class ConstantEpsilonProvider:
    """Same tolerance for every comparison (manual fixed-bound ABFT)."""

    epsilon_value: float

    def column_epsilon(self, block_row: int, encoded_col: int) -> float:
        return self.epsilon_value

    def row_epsilon(self, encoded_row: int, block_col: int) -> float:
        return self.epsilon_value

    def epsilon_grids(
        self,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        *,
        pool=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dense ``(column, row)`` tolerance grids for the fast check path.

        ``pool`` (a :class:`~repro.engine.plan.WorkspacePool`) supplies the
        grid buffers when given; the engine gives them back after checking.
        """
        col_shape = (row_layout.num_blocks, col_layout.encoded_rows)
        row_shape = (row_layout.encoded_rows, col_layout.num_blocks)
        if pool is None:
            return (
                np.full(col_shape, self.epsilon_value),
                np.full(row_shape, self.epsilon_value),
            )
        col = pool.take(col_shape)
        col.fill(self.epsilon_value)
        row = pool.take(row_shape)
        row.fill(self.epsilon_value)
        return col, row


class AABFTEpsilonProvider:
    """Autonomous tolerances from runtime top-p data (the A-ABFT scheme).

    Parameters
    ----------
    scheme:
        The probabilistic bound scheme (or any scheme consuming
        ``upper_bound``).
    row_tops:
        Top-p of every *encoded* row of ``A_cc`` (data and checksum rows).
    col_tops:
        Top-p of every *encoded* column of ``B_rc``.
    row_layout / col_layout:
        Partitioned layouts of the encoded operands.
    inner_dim:
        Length ``n`` of the inner products (the shared dimension of the
        multiplication).
    epsilon_floor:
        Absolute lower bound on every tolerance.  The paper's model bounds
        the rounding of the checksum *that went through the multiplication*;
        when a checksum vector cancels to exactly zero (structured inputs
        such as full-encoding graph Laplacians, whose column sums vanish),
        its ``y`` — and hence the modelled tolerance — is zero, while the
        *reference* summation still carries rounding noise.  A small floor
        (e.g. ``n * eps_M * max|C|``) absorbs that; the default 0 is
        paper-faithful.
    """

    def __init__(
        self,
        scheme: BoundScheme,
        row_tops: list[TopP],
        col_tops: list[TopP],
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        inner_dim: int,
        epsilon_floor: float = 0.0,
    ) -> None:
        if len(row_tops) != row_layout.encoded_rows:
            raise ValueError(
                f"expected {row_layout.encoded_rows} row top-p sets, "
                f"got {len(row_tops)}"
            )
        if len(col_tops) != col_layout.encoded_rows:
            raise ValueError(
                f"expected {col_layout.encoded_rows} column top-p sets, "
                f"got {len(col_tops)}"
            )
        if epsilon_floor < 0.0:
            raise ValueError(f"epsilon_floor must be >= 0, got {epsilon_floor}")
        self.scheme = scheme
        self._row_tops = list(row_tops)
        self._col_tops = list(col_tops)
        self._stacked = None
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.inner_dim = inner_dim
        self.epsilon_floor = epsilon_floor

    @classmethod
    def from_arrays(
        cls,
        scheme: BoundScheme,
        row_values: np.ndarray,
        row_indices: np.ndarray,
        col_values: np.ndarray,
        col_indices: np.ndarray,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        inner_dim: int,
        epsilon_floor: float = 0.0,
    ) -> "AABFTEpsilonProvider":
        """Build a provider directly from stacked ``(k, p)`` top-p arrays.

        This is the array-native fast path: :func:`~repro.bounds.
        upper_bound.top_p_arrays` output (what :class:`~repro.engine.engine.
        EncodedOperand` stores) feeds the vectorised grids without ever
        materialising per-vector :class:`TopP` objects.  The scalar
        ``row_tops`` / ``col_tops`` views are built lazily on first access,
        so the hot check path never pays for them.  Tolerances are bitwise
        identical to the list-based constructor.
        """
        if row_values.shape[0] != row_layout.encoded_rows:
            raise ValueError(
                f"expected {row_layout.encoded_rows} row top-p sets, "
                f"got {row_values.shape[0]}"
            )
        if col_values.shape[0] != col_layout.encoded_rows:
            raise ValueError(
                f"expected {col_layout.encoded_rows} column top-p sets, "
                f"got {col_values.shape[0]}"
            )
        if epsilon_floor < 0.0:
            raise ValueError(f"epsilon_floor must be >= 0, got {epsilon_floor}")
        self = cls.__new__(cls)
        self.scheme = scheme
        self._row_tops = None
        self._col_tops = None
        self._stacked = (row_values, row_indices, col_values, col_indices)
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.inner_dim = inner_dim
        self.epsilon_floor = epsilon_floor
        return self

    @property
    def row_tops(self) -> list[TopP]:
        """Per-vector top-p of every encoded row (materialised lazily)."""
        if self._row_tops is None:
            row_vals, row_idx, _, _ = self._stacked
            self._row_tops = [
                TopP(values=v, indices=i) for v, i in zip(row_vals, row_idx)
            ]
        return self._row_tops

    @property
    def col_tops(self) -> list[TopP]:
        """Per-vector top-p of every encoded column (materialised lazily)."""
        if self._col_tops is None:
            _, _, col_vals, col_idx = self._stacked
            self._col_tops = [
                TopP(values=v, indices=i) for v, i in zip(col_vals, col_idx)
            ]
        return self._col_tops

    def _epsilon(self, row_top: TopP, col_top: TopP) -> float:
        y = determine_upper_bound(row_top, col_top)
        ctx = BoundContext(
            n=self.inner_dim,
            m=self.row_layout.block_size,
            upper_bound=y,
        )
        return max(self.scheme.epsilon(ctx), self.epsilon_floor)

    def column_epsilon(self, block_row: int, encoded_col: int) -> float:
        cs_row = self.row_layout.checksum_index(block_row)
        return self._epsilon(self.row_tops[cs_row], self.col_tops[encoded_col])

    def row_epsilon(self, encoded_row: int, block_col: int) -> float:
        cs_col = self.col_layout.checksum_index(block_col)
        return self._epsilon(self.row_tops[encoded_row], self.col_tops[cs_col])

    def upper_bound(self, encoded_row: int, encoded_col: int) -> float:
        """The runtime ``y`` for an arbitrary result element (diagnostics)."""
        return determine_upper_bound(
            self.row_tops[encoded_row], self.col_tops[encoded_col]
        )

    def _stacked_tops(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Top-p data stacked into ``(k, p)`` arrays (cached after first use)."""
        cached = self._stacked
        if cached is None:
            cached = (
                np.stack([t.values for t in self.row_tops]),
                np.stack([t.indices for t in self.row_tops]),
                np.stack([t.values for t in self.col_tops]),
                np.stack([t.indices for t in self.col_tops]),
            )
            self._stacked = cached
        return cached

    def tolerance_grids(self, *, pool=None) -> "AABFTToleranceGrids | None":
        """The two-step grid build of this product (see
        :class:`AABFTToleranceGrids`), or ``None`` when the bound scheme
        has no array form.  ``pool`` recycles its scratch grids."""
        if getattr(self.scheme, "epsilon_array", None) is None:
            return None
        row_vals, row_idx, col_vals, col_idx = self._stacked_tops()
        return AABFTToleranceGrids(
            self.scheme,
            self.inner_dim,
            row_vals,
            row_idx,
            col_vals,
            col_idx,
            self.row_layout.checksum_slice(),
            self.col_layout.checksum_slice(),
            epsilon_floor=self.epsilon_floor,
            pool=pool,
        )

    def epsilon_grids(
        self,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        *,
        pool=None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Dense tolerance grids, vectorised (the engine's fast check path).

        Returns ``(column, row)`` epsilon arrays bitwise equal to looping
        :meth:`column_epsilon` / :meth:`row_epsilon` over every comparison,
        or ``None`` when the bound scheme has no array form (the caller then
        falls back to the scalar check).  The provider's own layouts are
        authoritative; the arguments are accepted for interface uniformity.
        ``pool`` (a :class:`~repro.engine.plan.WorkspacePool`) recycles the
        intermediate upper-bound grids; the returned epsilon arrays are
        freshly owned either way (the engine gives them back itself).
        """
        grids = self.tolerance_grids(pool=pool)
        if grids is None:
            return None
        exact = grids.exact()
        grids.release()
        return exact


class AABFTToleranceGrids:
    """The A-ABFT ``(column, row)`` tolerance grids, built in two steps.

    Construction evaluates cases 2 and 3 of the upper bound for every
    comparison (:func:`~repro.bounds.upper_bound.
    missing_index_bound_arrays`), a grid ``y_lb <= y``.  :meth:`lower`
    turns it into certified lower bounds of the tolerances in three array
    operations (both grids share one buffer); :meth:`exact` adds case 1
    to the same ``y_lb`` grids (cases 2 and 3 are not recomputed) and
    applies the scheme's ``epsilon_array`` — the exact grids, bitwise the
    scalar :meth:`AABFTEpsilonProvider.column_epsilon` /
    :meth:`~AABFTEpsilonProvider.row_epsilon` values.  Every grid entry
    is an elementwise function of one (row top-p, column top-p) pair, so
    the columns of several right operands may be stacked: the grids then
    hold each operand's grids side by side.  ``cs_rows`` / ``cs_cols``
    (index arrays or slices) pick the checksum vectors among the stacked
    rows / columns.

    :meth:`lower` certifies, i.e. ``lower <= exact`` elementwise and
    :meth:`exact` does not raise, under these conditions; it returns
    ``None`` (take the exact path) unless all of them hold:

    * **Scheme.** The scheme is exactly
      :class:`~repro.bounds.probabilistic.ProbabilisticBound` with
      ``t <= 53``, whose tolerance is ``K * y`` evaluated in floats.
    * **Raise parity.** Every top-p value is finite and non-negative
      (NaN-holding vectors can carry ``-inf`` fill values) and the
      largest row value times the largest column value is finite.  Every
      candidate of the three-case rule, and so every ``y`` and ``y_lb``,
      then lies in ``[0, inf)``: the exact build would not raise, so an
      Inf operand still reaches :class:`~repro.errors.BoundSchemeError`
      there.
    * **Lower bound.** ``y >= y_lb`` exactly (case 1 only raises entries)
      and the float tolerance formula is monotone in ``y``.
    * **Margin.** The coefficient is ``K * (1 - 2**-30)``
      (:func:`~repro.bounds.probabilistic.safe_epsilon_coefficient`),
      which covers the rounding of ``K``, of ``K * y`` and of the float
      tolerance formula.
    * **Underflow.** The bound is ``K_safe * (y_lb - 2**-400)``: equal to
      ``K_safe * y_lb`` for any ``y_lb`` above ``2**-340``, and negative
      below ``2**-400``.  The float formula's ``y * y`` terms lose
      precision to underflow from about ``y = 2**-469`` on, where
      ``K * y`` would exceed it.
    * **Floor.** The bound is clamped from below at ``epsilon_floor`` (at
      0 without one), as the exact tolerances are, so below ``2**-400``
      only a discrepancy within the floor certifies.

    ``pool`` (a :class:`~repro.engine.plan.WorkspacePool`) supplies the
    ``y_lb`` and lower grids; :meth:`release` gives them back.  The exact
    grids are freshly owned by the caller.
    """

    def __init__(
        self,
        scheme: BoundScheme,
        inner_dim: int,
        row_values: np.ndarray,
        row_indices: np.ndarray,
        col_values: np.ndarray,
        col_indices: np.ndarray,
        cs_rows,
        cs_cols,
        *,
        epsilon_floor: float = 0.0,
        pool=None,
    ) -> None:
        self.scheme = scheme
        self.inner_dim = inner_dim
        self.epsilon_floor = epsilon_floor
        self._tops = (row_values, row_indices, col_values, col_indices)
        self._checksums = (cs_rows, cs_cols)
        self._pool = pool
        cs_row_values = row_values[cs_rows]
        cs_col_values = col_values[cs_cols]
        # Both grids live in one buffer, so lower() is three operations.
        col_size = cs_row_values.shape[0] * col_values.shape[0]
        self._y_lb = self._take(col_size + row_values.shape[0] * cs_col_values.shape[0])
        self._y = (
            missing_index_bound_arrays(
                cs_row_values, col_values,
                out=self._y_lb[:col_size].reshape(-1, col_values.shape[0]),
            ),
            missing_index_bound_arrays(
                row_values, cs_col_values,
                out=self._y_lb[col_size:].reshape(row_values.shape[0], -1),
            ),
        )
        self._scratch = [self._y_lb]

    def _take(self, size: int) -> np.ndarray:
        return np.empty(size) if self._pool is None else self._pool.take((size,))

    def _coefficient(self) -> float | None:
        """``K_safe`` when every soundness condition holds, else ``None``."""
        scheme = self.scheme
        if type(scheme) is not ProbabilisticBound or scheme.fmt.t > 53:
            return None
        row_values, _, col_values, _ = self._tops
        lowest, highest = np.minimum.reduce, np.maximum.reduce
        if not (
            lowest(row_values, axis=None) >= 0.0
            and lowest(col_values, axis=None) >= 0.0
            and math.isfinite(
                float(highest(row_values, axis=None))
                * float(highest(col_values, axis=None))
            )
        ):
            return None
        return safe_epsilon_coefficient(
            self.inner_dim, scheme.fmt.t, scheme.omega, scheme.fma
        )

    def lower(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Certified lower bounds of the exact grids, or ``None``."""
        k_safe = self._coefficient()
        if k_safe is None:
            return None
        bound = self._take(self._y_lb.size)
        self._scratch.append(bound)
        np.subtract(self._y_lb, LINEAR_BOUND_MIN_Y, out=bound)
        bound *= k_safe
        np.maximum(bound, self.epsilon_floor, out=bound)
        col_y, row_y = self._y
        return (
            bound[: col_y.size].reshape(col_y.shape),
            bound[col_y.size :].reshape(row_y.shape),
        )

    def exact(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact grids: case 1 added to ``y_lb``, then the tolerances.

        Call at most once; the ``y_lb`` grids become ``y`` in place.
        """
        row_values, row_indices, col_values, col_indices = self._tops
        cs_rows, cs_cols = self._checksums
        col_y, row_y = self._y
        add_shared_index_bound(
            col_y, row_values[cs_rows], row_indices[cs_rows],
            col_values, col_indices,
        )
        add_shared_index_bound(
            row_y, row_values, row_indices,
            col_values[cs_cols], col_indices[cs_cols],
        )
        col_eps = self.scheme.epsilon_array(self.inner_dim, col_y)
        row_eps = self.scheme.epsilon_array(self.inner_dim, row_y)
        if self.epsilon_floor > 0.0:
            np.maximum(col_eps, self.epsilon_floor, out=col_eps)
            np.maximum(row_eps, self.epsilon_floor, out=row_eps)
        return col_eps, row_eps

    def release(self) -> None:
        """Give the scratch buffers back to the pool."""
        if self._pool is not None:
            for buffer in self._scratch:
                self._pool.give(buffer)
        self._scratch = []


class SEAEpsilonProvider:
    """Tolerances from the simplified error analysis (SEA-ABFT baseline).

    Owns the Euclidean norms of all encoded rows of ``A_cc`` and columns of
    ``B_rc`` (what the paper's norm kernels compute) and feeds the per-block
    norm groups into :class:`~repro.bounds.sea.SEABound`.
    """

    def __init__(
        self,
        scheme: BoundScheme,
        a_row_norms: np.ndarray,
        b_col_norms: np.ndarray,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        inner_dim: int,
    ) -> None:
        a_row_norms = np.asarray(a_row_norms, dtype=np.float64).ravel()
        b_col_norms = np.asarray(b_col_norms, dtype=np.float64).ravel()
        if a_row_norms.size != row_layout.encoded_rows:
            raise ValueError(
                f"expected {row_layout.encoded_rows} row norms, got {a_row_norms.size}"
            )
        if b_col_norms.size != col_layout.encoded_rows:
            raise ValueError(
                f"expected {col_layout.encoded_rows} column norms, "
                f"got {b_col_norms.size}"
            )
        self.scheme = scheme
        self.a_row_norms = a_row_norms
        self.b_col_norms = b_col_norms
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.inner_dim = inner_dim

    def _group_norms(self, block_row: int) -> np.ndarray:
        """Norms of block ``block_row``'s data rows plus its checksum row."""
        idx = np.concatenate(
            [
                self.row_layout.data_indices(block_row),
                [self.row_layout.checksum_index(block_row)],
            ]
        )
        return self.a_row_norms[idx]

    def column_epsilon(self, block_row: int, encoded_col: int) -> float:
        ctx = BoundContext(
            n=self.inner_dim,
            m=self.row_layout.block_size,
            a_norms=self._group_norms(block_row),
            b_norm=float(self.b_col_norms[encoded_col]),
        )
        return self.scheme.epsilon(ctx)

    def row_epsilon(self, encoded_row: int, block_col: int) -> float:
        # The row check is the column check of the transposed problem: the
        # roles of A-rows and B-columns swap.
        idx = np.concatenate(
            [
                self.col_layout.data_indices(block_col),
                [self.col_layout.checksum_index(block_col)],
            ]
        )
        ctx = BoundContext(
            n=self.inner_dim,
            m=self.col_layout.block_size,
            a_norms=self.b_col_norms[idx],
            b_norm=float(self.a_row_norms[encoded_row]),
        )
        return self.scheme.epsilon(ctx)

    def epsilon_grids(
        self,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        *,
        pool=None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Dense tolerance grids, vectorised (the engine's fast check path).

        Bitwise equal to looping the scalar methods; ``None`` when the bound
        scheme is not the plain :class:`~repro.bounds.sea.SEABound` (custom
        schemes fall back to the scalar check).  One broadcast per grid:
        each block's summed data norms and checksum norm form a column
        (column grid) or a row (row grid) against every checked vector's
        norm.  ``pool`` is accepted for interface uniformity.
        """
        if type(self.scheme) is not SEABound:
            return None
        return self._broadcast_grids(sea_epsilon_array, t=self.scheme.fmt.t)

    def _broadcast_grids(self, epsilon_array, **terms) -> tuple[np.ndarray, np.ndarray]:
        """``epsilon_array`` over every comparison, one call per grid.

        The column check of block ``blk`` against encoded column ``j``
        reads block ``blk``'s row norms and column ``j``'s norm; the row
        check is the column check of the transposed problem.
        """
        a_sums, a_checksums = _block_norms(self.a_row_norms, self.row_layout)
        b_sums, b_checksums = _block_norms(self.b_col_norms, self.col_layout)
        col_eps = epsilon_array(
            n=self.inner_dim,
            m=self.row_layout.block_size,
            data_norm_sum=a_sums[:, None],
            checksum_row_norm=a_checksums[:, None],
            b_norms=self.b_col_norms[None, :],
            **terms,
        )
        row_eps = epsilon_array(
            n=self.inner_dim,
            m=self.col_layout.block_size,
            data_norm_sum=b_sums[None, :],
            checksum_row_norm=b_checksums[None, :],
            b_norms=self.a_row_norms[:, None],
            **terms,
        )
        return col_eps, row_eps


def _block_norms(
    norms: np.ndarray, layout: PartitionedLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Per block: the summed norms of its data vectors and the norm of its
    checksum vector.  Each row sum is the pairwise sum of that block's
    norms, bitwise the scalar path's ``norms[data_indices].sum()``."""
    blocks = norms.reshape(layout.num_blocks, layout.stride)
    return blocks[:, : layout.block_size].sum(axis=1), blocks[:, layout.block_size]


class AdaptiveEpsilonProvider(SEAEpsilonProvider):
    """Variance-adaptive tolerances for low-precision storage (V-ABFT).

    Owns the same encoded-vector norms as :class:`SEAEpsilonProvider` and
    produces the SEA compute-dtype tolerance *plus* the per-block
    quantisation term of :class:`~repro.bounds.adaptive.AdaptiveBound`.
    The scalar methods are inherited — they delegate to the bound scheme,
    which reads the same context fields — so only the dense grid path is
    specialised here.
    """

    def epsilon_grids(
        self,
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        *,
        pool=None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Dense tolerance grids, vectorised (the engine's fast check path).

        Bitwise equal to looping the scalar methods; ``None`` when the
        bound scheme is not the plain
        :class:`~repro.bounds.adaptive.AdaptiveBound`.
        """
        if type(self.scheme) is not AdaptiveBound:
            return None
        return self._broadcast_grids(
            adaptive_epsilon_array,
            t_compute=self.scheme.fmt.t,
            u_storage=self.scheme.storage_fmt.unit_roundoff,
            k=self.scheme.effective_k,
        )
