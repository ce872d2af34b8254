"""Single-error correction from checksum mismatch intersections.

ABFT locates an erroneous element at the intersection of a failing row check
and a failing column check (paper Section II).  The correction magnitude is
the signed column discrepancy ``reference - original``; subtracting it from
the located element restores the correct value up to rounding.  The row
discrepancy provides an independent estimate — if the two disagree by more
than the combined tolerances, the pattern is not a correctable single error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CorrectionError
from .checking import CheckReport, check_partitioned
from .encoding import PartitionedLayout

__all__ = ["CorrectionResult", "correct_single_error"]


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of a correction attempt."""

    corrected: np.ndarray
    position: tuple[int, int]
    magnitude: float
    row_estimate: float
    column_estimate: float

    @property
    def estimate_gap(self) -> float:
        """Disagreement between the two independent delta estimates."""
        return abs(self.row_estimate - self.column_estimate)


def _signed_column_delta(
    c_fc: np.ndarray, row_layout: PartitionedLayout, row: int, col: int
) -> float:
    blk = row // row_layout.stride
    data = c_fc[row_layout.data_indices(blk), col]
    original = c_fc[row_layout.checksum_index(blk), col]
    if row_layout.is_checksum_index(row):
        # The checksum element itself is corrupted: it deviates from the
        # (correct) data sum by -delta.
        return float(original - data.sum())
    return float(data.sum() - original)


def correct_single_error(
    c_fc: np.ndarray,
    report: CheckReport,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    epsilons,
    verify: bool = True,
) -> CorrectionResult:
    """Correct a single located error in a full-checksum result matrix.

    Parameters
    ----------
    c_fc:
        The (possibly corrupted) full-checksum result; not modified.  The
        corrected copy keeps its dtype.
    report:
        The check report that located the error.
    row_layout / col_layout:
        Encoding layouts of the result.
    epsilons:
        Epsilon provider, used to re-verify the corrected matrix.
    verify:
        Re-run the full check on the corrected matrix and fail loudly if
        mismatches remain.

    Raises
    ------
    CorrectionError
        If zero or multiple error locations were found, the two delta
        estimates disagree wildly, or verification still fails.
    """
    if not report.located_errors:
        raise CorrectionError("no located errors to correct")
    if len(report.located_errors) > 1:
        raise CorrectionError(
            f"{len(report.located_errors)} candidate locations; "
            "single-error correction requires exactly one"
        )
    row, col = report.located_errors[0]

    col_delta = _signed_column_delta(c_fc, row_layout, row, col)
    row_delta = _signed_column_delta(c_fc.T, col_layout, col, row)

    corrected = np.array(c_fc, copy=True)
    corrected[row, col] -= col_delta

    result = CorrectionResult(
        corrected=corrected,
        position=(row, col),
        magnitude=col_delta,
        row_estimate=row_delta,
        column_estimate=col_delta,
    )
    if verify:
        recheck = check_partitioned(corrected, row_layout, col_layout, epsilons)
        if recheck.error_detected:
            raise CorrectionError(
                f"correction at {result.position} did not clear the check: "
                f"{recheck.num_failed} comparisons still failing"
            )
    return result
