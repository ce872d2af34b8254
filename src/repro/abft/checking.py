"""Checksum verification for partitioned full-checksum result matrices.

After the multiplication ``C_fc = A_cc @ B_rc`` every ``(BS+1) x (BS+1)``
result block carries a checksum row and column that "went through" the
multiplication.  Checking (paper Eq. 4-6, Algorithm 2) recomputes reference
checksums from the result data and compares::

    |c*_ref - c_original| < epsilon

with a per-comparison tolerance from an error-bound scheme.  Mismatching
column and row checks intersect at the erroneous element (error location).

All coordinates in this module are *encoded* coordinates of ``C_fc`` (the
product of the encoded operands); :class:`~repro.abft.encoding.PartitionedLayout`
maps them back to data coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..errors import ShapeError
from .encoding import PartitionedLayout

__all__ = [
    "EpsilonProvider",
    "CheckFinding",
    "CheckReport",
    "column_discrepancies",
    "row_discrepancies",
    "check_partitioned",
    "checks_pass",
    "check_grids",
    "decide_checks",
    "item_grids",
    "build_report",
]


class EpsilonProvider(Protocol):
    """Supplies the tolerance for each checksum comparison.

    Implementations adapt the bound schemes of :mod:`repro.bounds` to the
    per-block/per-vector context of the partitioned check (see
    :mod:`repro.abft.providers`).
    """

    def column_epsilon(self, block_row: int, encoded_col: int) -> float:
        """Tolerance for the column check of ``encoded_col`` in ``block_row``."""
        ...

    def row_epsilon(self, encoded_row: int, block_col: int) -> float:
        """Tolerance for the row check of ``encoded_row`` in ``block_col``."""
        ...


@dataclass(frozen=True)
class CheckFinding:
    """One failed checksum comparison."""

    axis: str  # "column" or "row"
    block_row: int
    block_col: int
    encoded_row: int  # for axis="row": the checked row; else the checksum row
    encoded_col: int  # for axis="column": the checked column; else the checksum col
    discrepancy: float
    epsilon: float


@dataclass
class CheckReport:
    """Outcome of checking one full-checksum result matrix.

    Attributes
    ----------
    findings:
        Every failed comparison.
    num_checks:
        Total comparisons performed (columns + rows).
    located_errors:
        Encoded ``(row, col)`` positions where a failing row check and a
        failing column check intersect within the same block — the ABFT
        error-location rule.
    column_disc / row_disc:
        Dense discrepancy arrays (useful for analysis), shapes
        ``(num_row_blocks, encoded_cols)`` and ``(encoded_rows,
        num_col_blocks)``.
    """

    findings: list[CheckFinding] = field(default_factory=list)
    num_checks: int = 0
    located_errors: list[tuple[int, int]] = field(default_factory=list)
    column_disc: np.ndarray | None = None
    row_disc: np.ndarray | None = None

    @property
    def error_detected(self) -> bool:
        """Whether any comparison failed."""
        return bool(self.findings)

    @property
    def num_failed(self) -> int:
        return len(self.findings)

    def findings_by_axis(self, axis: str) -> list[CheckFinding]:
        return [f for f in self.findings if f.axis == axis]


def column_discrepancies(
    c_fc: np.ndarray, row_layout: PartitionedLayout, *, out: np.ndarray | None = None
) -> np.ndarray:
    """|reference - original| for every (block-row, encoded column) pair.

    ``reference`` is the sum of the block's data rows; ``original`` the
    checksum row that went through the multiplication (Eq. 4).  One
    block-reshaped reduction over the whole result — bitwise identical to
    the per-block loop it replaced (same sequential accumulation over each
    block's data rows).  A narrower result accumulates in float64 on the
    fly, with no float64 copy.  ``out`` (float64, may be a view such as a
    tile's slice of a full grid) receives the grid when given.
    """
    c_fc = np.asarray(c_fc)
    if c_fc.shape[0] != row_layout.encoded_rows:
        raise ShapeError(
            f"result has {c_fc.shape[0]} rows, layout expects "
            f"{row_layout.encoded_rows}"
        )
    bs = row_layout.block_size
    cols = c_fc.shape[1]
    view = c_fc.reshape(row_layout.num_blocks, row_layout.stride, cols)
    if out is None:
        out = np.empty((row_layout.num_blocks, cols))
    _block_sums(view[:, :bs, :], 1, out)
    out -= view[:, bs, :]
    np.abs(out, out=out)
    return out


def row_discrepancies(
    c_fc: np.ndarray, col_layout: PartitionedLayout, *, out: np.ndarray | None = None
) -> np.ndarray:
    """|reference - original| for every (encoded row, block-column) pair.

    Computed directly on the result — the checked sums run along each
    row's contiguous block columns, the same reduction the GPU check
    kernel performs — instead of transposing ``c_fc`` into
    :func:`column_discrepancies` (which forced two full copies).  ``out``
    and the float64 accumulation are as in :func:`column_discrepancies`.
    """
    c_fc = np.asarray(c_fc)
    if c_fc.shape[1] != col_layout.encoded_rows:
        raise ShapeError(
            f"result has {c_fc.shape[1]} columns, layout expects "
            f"{col_layout.encoded_rows}"
        )
    bs = col_layout.block_size
    rows = c_fc.shape[0]
    view = c_fc.reshape(rows, col_layout.num_blocks, col_layout.stride)
    if out is None:
        out = np.empty((rows, col_layout.num_blocks))
    _block_sums(view[:, :, :bs], 2, out)
    out -= view[:, :, bs]
    np.abs(out, out=out)
    return out


def _compact_row_discrepancies(
    c: np.ndarray,
    col_layout: PartitionedLayout,
    kept: int,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`row_discrepancies` of products side by side that each hold
    only ``kept`` of their ``col_layout.encoded_rows`` encoded columns:
    every full block with its checksum, then the last block's real
    columns and its checksum, leaving out that block's zero padding.
    Bitwise what :func:`row_discrepancies` gives for the zero-padded
    products; ``out`` is as there.  (The pipelined executor's check of
    its compact chunk products.)

    numpy sums a contiguous run of up to 128 elements in eight
    interleaved partial sums; a zero appended past the next multiple of
    eight only adds ``+0.0`` to one, which changes at most the sign of a
    zero sum (``|.|`` removes it).  So a padded last block sums its real
    columns zero-extended to that multiple, capped at ``BS``.  Longer
    runs split in halves at length-dependent places, so blocks wider
    than 128 sum the whole zero-padded block.
    """
    c = np.asarray(c)
    bs, stride, blocks = col_layout.block_size, col_layout.stride, col_layout.num_blocks
    real = kept - 1 - (blocks - 1) * stride  # the last block's data columns
    if not 1 <= real <= bs or c.shape[1] % kept:
        raise ShapeError(
            f"result has {c.shape[1]} columns, not products of {kept} kept "
            f"columns in a {col_layout.encoded_rows}-column layout"
        )
    rows, products = c.shape[0], c.shape[1] // kept
    if out is None:
        out = np.empty((rows, products * blocks))
    if real == bs:  # no padding: every product's blocks lie back to back
        view = c.reshape(rows, products * blocks, stride)
        _block_sums(view[..., :bs], 2, out)
        out -= view[..., bs]
    else:
        grid = out.reshape(rows, products, blocks)  # a view: it splits an axis
        per_product = c.reshape(rows, products, kept)
        whole = blocks - 1
        if whole:
            view = per_product[:, :, : whole * stride].reshape(
                rows, products, whole, stride
            )
            _block_sums(view[..., :bs], 3, grid[:, :, :whole])
            grid[:, :, :whole] -= view[..., bs]
        last = per_product[:, :, whole * stride :]  # real columns, checksum
        extended = bs if bs > 128 else min(bs, -(-real // 8) * 8)
        data = last[..., :real]
        if extended > real:
            data = np.zeros((rows, products, extended))
            data[..., :real] = last[..., :real]
        _block_sums(data, 2, grid[:, :, -1])
        grid[:, :, -1] -= last[..., real]
    np.abs(out, out=out)
    return out


def _block_sums(blocks: np.ndarray, axis: int, out: np.ndarray) -> None:
    # Widening inside the reduction gives a float64 copy's bytes while a
    # block fits numpy's cast buffer; a longer one would be summed buffer
    # by buffer (another pairwise grouping), so it is widened up front.
    if blocks.dtype != np.float64 and blocks.shape[axis] > np.getbufsize():
        blocks = blocks.astype(np.float64)
    np.sum(blocks, axis=axis, dtype=np.float64, out=out)


def check_partitioned(
    c_fc: np.ndarray,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    epsilons: EpsilonProvider,
    *,
    use_grids: bool = True,
) -> CheckReport:
    """Full check of a partitioned full-checksum result matrix.

    Performs every column and row comparison with tolerances from
    ``epsilons``, collects failures, and intersects them per block to locate
    erroneous elements.  ``use_grids=False`` forces the scalar
    per-comparison tolerance loop even for providers with an array form
    (the reference path property tests compare against).
    """
    c_fc = np.asarray(c_fc)
    if c_fc.shape != (row_layout.encoded_rows, col_layout.encoded_rows):
        raise ShapeError(
            f"result shape {c_fc.shape} does not match layouts "
            f"({row_layout.encoded_rows} x {col_layout.encoded_rows})"
        )
    col_disc = column_discrepancies(c_fc, row_layout)
    row_disc = row_discrepancies(c_fc, col_layout)

    # Providers exposing the array form supply both dense tolerance grids in
    # one vectorised evaluation (bitwise equal to the scalar loops below);
    # scalar-only providers fall back to one call per comparison.
    grids = None
    epsilon_grids = getattr(epsilons, "epsilon_grids", None)
    if use_grids and epsilon_grids is not None:
        try:
            grids = epsilon_grids(row_layout, col_layout)
        except Exception:
            # The array form may reject inputs the scalar path tolerates
            # (e.g. non-finite upper bounds from corrupted operands, where
            # the scalar loop yields NaN tolerances and the non-finite
            # discrepancy still fails the comparison).  The scalar loop is
            # the semantic reference, so fall back to it.
            grids = None
    if grids is not None:
        col_eps, row_eps = grids
    else:
        col_eps = np.empty_like(col_disc)
        for blk_row in range(row_layout.num_blocks):
            for col in range(col_layout.encoded_rows):
                col_eps[blk_row, col] = epsilons.column_epsilon(blk_row, col)
        row_eps = np.empty_like(row_disc)
        for blk_col in range(col_layout.num_blocks):
            for row in range(row_layout.encoded_rows):
                row_eps[row, blk_col] = epsilons.row_epsilon(row, blk_col)

    return build_report(col_disc, col_eps, row_disc, row_eps, row_layout, col_layout)


def checks_pass(
    col_disc: np.ndarray,
    col_eps: np.ndarray,
    row_disc: np.ndarray,
    row_eps: np.ndarray,
) -> bool:
    """Whether every comparison passes: each discrepancy finite and within
    its tolerance.  The clean-path test every execution path shares (the
    fused online kernel runs it per tile)."""
    return (
        bool(np.all(col_disc <= col_eps))
        and bool(np.all(row_disc <= row_eps))
        and bool(np.all(np.isfinite(col_disc)))
        and bool(np.all(np.isfinite(row_disc)))
    )


def check_grids(
    col_disc: np.ndarray,
    col_eps: np.ndarray,
    row_disc: np.ndarray,
    row_eps: np.ndarray,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
) -> CheckReport:
    """The check decision over dense discrepancy and tolerance grids.

    A clean result gets a findings-free report straight away; anything
    else goes through :func:`build_report`, so finding order and error
    location match the reference checker exactly.  The report keeps the
    discrepancy arrays but not the tolerance grids, so callers may
    recycle those.
    """
    if not checks_pass(col_disc, col_eps, row_disc, row_eps):
        return build_report(
            col_disc, col_eps, row_disc, row_eps, row_layout, col_layout
        )
    return _clean_report(col_disc, row_disc)


def _clean_report(col_disc: np.ndarray, row_disc: np.ndarray) -> CheckReport:
    report = CheckReport(column_disc=col_disc, row_disc=row_disc)
    report.num_checks = col_disc.size + row_disc.size
    return report


def decide_checks(
    discrepancies: Callable[[], tuple[np.ndarray, np.ndarray]],
    lower: tuple[np.ndarray, np.ndarray] | None,
    exact: Callable[[], tuple[np.ndarray, np.ndarray]],
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    *,
    items: int = 1,
    widen: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[list[CheckReport], bool]:
    """The check decision of ``items`` products, lower bound first.

    ``discrepancies`` computes the products' ``(column, row)`` discrepancy
    grids, side by side (see :func:`item_grids`).  ``lower`` is a pair of
    tolerance grids of the same shapes, each entry at most the exact
    tolerance, or ``None``; ``exact`` builds the exact pair.  When
    :func:`checks_pass` accepts every discrepancy against ``lower`` it
    would accept it against the exact grids too, so each product gets the
    clean report :func:`check_grids` returns and the exact grids are never
    built.  Otherwise they are built once and :func:`check_grids` decides
    each product.  Without ``lower`` the exact grids are built before the
    discrepancies, so a build that raises (an Inf operand) does so first.
    Returns the reports and whether the lower bound decided.

    ``widen`` serves products that hold only some of their encoded
    columns (see :func:`_compact_row_discrepancies`): the column grids of
    ``discrepancies`` and ``lower`` then cover the held columns, and
    ``widen`` places that column discrepancy grid at full width after the
    lower test.  The reports and the ``exact`` grids are full width.
    """
    exact_grids = exact() if lower is None else None
    col_disc, row_disc = discrepancies()
    if exact_grids is None and not checks_pass(
        col_disc, lower[0], row_disc, lower[1]
    ):
        exact_grids = exact()
    if widen is not None:
        col_disc = widen(col_disc)
    reports = []
    for j in range(items):
        cd, rd = item_grids(col_disc, row_disc, col_layout, j, items)
        if exact_grids is None:
            reports.append(_clean_report(cd, rd))
        else:
            ce, re_ = item_grids(*exact_grids, col_layout, j, items)
            reports.append(check_grids(cd, ce, rd, re_, row_layout, col_layout))
    return reports, exact_grids is None


def item_grids(
    col_grid: np.ndarray,
    row_grid: np.ndarray,
    col_layout: PartitionedLayout,
    j: int,
    items: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Product ``j``'s slices of ``items`` products' grids side by side.

    The products share the left operand; right operand ``j`` owns
    encoded columns ``[j * w, (j + 1) * w)`` of a column grid and block
    columns ``[j * b, (j + 1) * b)`` of a row grid (``w`` encoded columns
    and ``b`` blocks per product, from ``col_layout``).  A single
    product's grids are returned as they are.
    """
    if items == 1:
        return col_grid, row_grid
    w = col_layout.encoded_rows
    b = col_layout.num_blocks
    return col_grid[:, j * w : (j + 1) * w], row_grid[:, j * b : (j + 1) * b]


def build_report(
    col_disc: np.ndarray,
    col_eps: np.ndarray,
    row_disc: np.ndarray,
    row_eps: np.ndarray,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
) -> CheckReport:
    """Assemble a :class:`CheckReport` from dense discrepancy/tolerance arrays.

    Used both by the host-side checker and by the GPU pipeline, whose
    checking kernel writes exactly these arrays to device buffers.
    A comparison fails when the discrepancy exceeds its tolerance *or* is
    non-finite (a NaN result must never pass the check silently).
    """
    report = CheckReport(column_disc=col_disc, row_disc=row_disc)
    report.num_checks = col_disc.size + row_disc.size

    stride_cols = col_layout.stride
    stride_rows = row_layout.stride

    # Failures are masked out in two vectorised comparisons; CheckFinding
    # objects are only materialised for the (rare) flagged entries.  The
    # elementwise ``>`` matches the scalar ``disc > eps`` (NaN compares
    # false, so the explicit non-finite term keeps NaNs failing loudly).
    col_bad = (col_disc > col_eps) | ~np.isfinite(col_disc)
    if col_bad.any():
        # argwhere walks row-major: block-row outer, column inner — the
        # order the scalar loop appended findings in.
        for blk_row, col in np.argwhere(col_bad):
            blk_row = int(blk_row)
            col = int(col)
            report.findings.append(
                CheckFinding(
                    axis="column",
                    block_row=blk_row,
                    block_col=col // stride_cols,
                    encoded_row=row_layout.checksum_index(blk_row),
                    encoded_col=col,
                    discrepancy=float(col_disc[blk_row, col]),
                    epsilon=float(col_eps[blk_row, col]),
                )
            )

    row_bad = (row_disc > row_eps) | ~np.isfinite(row_disc)
    if row_bad.any():
        # Transposed argwhere: block-column outer, encoded row inner.
        for blk_col, row in np.argwhere(row_bad.T):
            blk_col = int(blk_col)
            row = int(row)
            report.findings.append(
                CheckFinding(
                    axis="row",
                    block_row=row // stride_rows,
                    block_col=blk_col,
                    encoded_row=row,
                    encoded_col=col_layout.checksum_index(blk_col),
                    discrepancy=float(row_disc[row, blk_col]),
                    epsilon=float(row_eps[row, blk_col]),
                )
            )

    report.located_errors = _locate(report, row_layout, col_layout)
    return report


def _locate(
    report: CheckReport,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
) -> list[tuple[int, int]]:
    """Intersect failing row/column checks block-by-block (error location)."""
    cols_by_block: dict[tuple[int, int], list[int]] = {}
    rows_by_block: dict[tuple[int, int], list[int]] = {}
    for f in report.findings:
        key = (f.block_row, f.block_col)
        if f.axis == "column":
            cols_by_block.setdefault(key, []).append(f.encoded_col)
        else:
            rows_by_block.setdefault(key, []).append(f.encoded_row)
    located: list[tuple[int, int]] = []
    for key in sorted(set(cols_by_block) & set(rows_by_block)):
        for row in sorted(rows_by_block[key]):
            for col in sorted(cols_by_block[key]):
                located.append((row, col))
    return located
