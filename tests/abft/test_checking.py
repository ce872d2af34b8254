"""Checksum checking: discrepancies, findings, location, NaN safety."""

import numpy as np
import pytest

from repro.abft.checking import (
    CheckReport,
    _compact_row_discrepancies,
    check_partitioned,
    column_discrepancies,
    row_discrepancies,
)
from repro.abft.encoding import (
    PartitionedLayout,
    encode_partitioned_columns,
    encode_partitioned_rows,
)
from repro.abft.providers import ConstantEpsilonProvider
from repro.errors import ShapeError


@pytest.fixture
def clean_result(rng):
    a = rng.uniform(-1, 1, (64, 32))
    b = rng.uniform(-1, 1, (32, 64))
    a_cc, rows = encode_partitioned_columns(a, 32)
    b_rc, cols = encode_partitioned_rows(b, 32)
    return a_cc @ b_rc, rows, cols


class TestDiscrepancies:
    def test_clean_result_has_tiny_discrepancies(self, clean_result):
        c, rows, cols = clean_result
        col_d = column_discrepancies(c, rows)
        row_d = row_discrepancies(c, cols)
        assert col_d.shape == (2, 66)
        assert row_d.shape == (66, 2)
        assert col_d.max() < 1e-12
        assert row_d.max() < 1e-12

    def test_corruption_shows_in_both_axes(self, clean_result):
        c, rows, cols = clean_result
        c = c.copy()
        c[5, 40] += 0.5
        assert column_discrepancies(c, rows)[0, 40] == pytest.approx(0.5, rel=1e-9)
        assert row_discrepancies(c, cols)[5, 1] == pytest.approx(0.5, rel=1e-9)

    def test_shape_validation(self, clean_result):
        _, rows, _ = clean_result
        with pytest.raises(ShapeError):
            column_discrepancies(np.zeros((10, 10)), rows)


def upcast_column_discrepancies(c_fc, row_layout):
    """The column grid computed on a float64 copy of the result: the bytes
    the on-the-fly float64 accumulation must reproduce."""
    c = np.asarray(c_fc, dtype=np.float64)
    bs = row_layout.block_size
    view = c.reshape(row_layout.num_blocks, row_layout.stride, c.shape[1])
    return np.abs(np.sum(view[:, :bs, :], axis=1) - view[:, bs, :])


def upcast_row_discrepancies(c_fc, col_layout):
    """The row grid computed on a float64 copy of the result."""
    c = np.asarray(c_fc, dtype=np.float64)
    bs = col_layout.block_size
    view = c.reshape(c.shape[0], col_layout.num_blocks, col_layout.stride)
    return np.abs(np.sum(view[:, :, :bs], axis=2) - view[:, :, bs])


def wide_range_result(rng, row_layout, col_layout, dtype):
    """Entries spanning 24 binades: summing them in float64 rounds, so a
    different accumulation order or width changes the bytes."""
    shape = (row_layout.encoded_rows, col_layout.encoded_rows)
    c = rng.standard_normal(shape) * 2.0 ** rng.integers(-12, 12, shape)
    return c.astype(dtype)


class TestDiscrepancyWidths:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("bs", [1, 7, 32, 130])
    def test_narrow_results_match_a_float64_copy(self, rng, dtype, bs):
        rows = PartitionedLayout(3 * bs, bs)
        cols = PartitionedLayout(2 * bs, bs)
        c = wide_range_result(rng, rows, cols, dtype)
        col_ref = upcast_column_discrepancies(c, rows)
        row_ref = upcast_row_discrepancies(c, cols)
        assert column_discrepancies(c, rows).tobytes() == col_ref.tobytes()
        assert row_discrepancies(c, cols).tobytes() == row_ref.tobytes()

    def test_blocks_longer_than_the_cast_buffer_match_a_float64_copy(self, rng):
        # numpy widens a narrow input in buffers of np.getbufsize()
        # elements; a block longer than one buffer must still give the
        # float64 copy's bytes.  A 16-element buffer makes that cheap.  A
        # single-column result makes the column sums run along memory too.
        rows = PartitionedLayout(2 * 600, 600)
        cols = PartitionedLayout(3 * 600, 600)
        c = wide_range_result(rng, rows, cols, np.float32)
        column = np.ascontiguousarray(c[:, :1])
        saved = np.setbufsize(16)
        try:
            col = column_discrepancies(column, rows)
            row = row_discrepancies(c, cols)
        finally:
            np.setbufsize(saved)
        assert col.tobytes() == upcast_column_discrepancies(column, rows).tobytes()
        assert row.tobytes() == upcast_row_discrepancies(c, cols).tobytes()

    def test_out_receives_the_grid_in_place(self, rng):
        rows = PartitionedLayout(64, 32)
        cols = PartitionedLayout(96, 32)
        c = wide_range_result(rng, rows, cols, np.float32)
        full = np.full((4, 99), np.nan)
        col = column_discrepancies(c, rows, out=full[1:3, 0:99])
        assert np.shares_memory(col, full)
        assert full[1:3].tobytes() == upcast_column_discrepancies(c, rows).tobytes()
        assert np.isnan(full[[0, 3]]).all()
        row_out = np.empty((66, 3))
        assert row_discrepancies(c, cols, out=row_out) is row_out
        assert row_out.tobytes() == upcast_row_discrepancies(c, cols).tobytes()


def padded_products(rng, dtype, q, bs, items=3):
    """``items`` made-up products side by side, full width and compact.

    Each product has ``q`` data columns in ``bs``-column blocks, each block
    followed by its checksum column; the last block's padding columns are
    ``+0.0``, as the GEMM of a zero column gives, and the compact product
    leaves them out.  Row 0 is all ``-0.0``, and a NaN, a ``+Inf`` and a
    ``-Inf`` sit among the kept columns.  Returns ``(full, compact,
    kept_mask, col_layout, row_layout)``.
    """
    blocks = -(-q // bs)
    width = blocks * (bs + 1)
    padding = blocks * bs - q
    row_layout = PartitionedLayout(2 * bs, bs)
    rows = row_layout.encoded_rows
    full = rng.uniform(-1, 1, (rows, items, width)).astype(dtype)
    kept = np.ones(width, dtype=bool)
    kept[width - 1 - padding : width - 1] = False
    full[:, :, ~kept] = 0.0
    full[0, :, kept] = -0.0
    kept_cols = np.flatnonzero(np.tile(kept, items))
    full = full.reshape(rows, items * width)
    for row, value in zip((1, 2, 3), (np.nan, np.inf, -np.inf)):
        full[row, rng.choice(kept_cols)] = value
    kept_mask = np.tile(kept, items)
    col_layout = PartitionedLayout(blocks * bs, bs)
    return full, np.ascontiguousarray(full[:, kept_mask]), kept_mask, col_layout, row_layout


class TestCompactDiscrepancies:
    """The discrepancies of products that hold only their data and
    checksum columns are the zero-padded products' bytes (no GEMM: the
    products are made up, so this holds whatever the BLAS)."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bs", [8, 16, 32, 64])
    def test_every_ragged_last_block_matches_the_padded_product(self, rng, bs, dtype):
        mismatched = []
        for rest in range(1, bs):  # q mod BS
            for q in (rest, bs + rest):  # one padded block; a full one first
                full, compact, kept, col_layout, row_layout = padded_products(
                    rng, dtype, q, bs
                )
                cat = PartitionedLayout(3 * col_layout.data_rows, bs)
                rows = _compact_row_discrepancies(
                    compact, col_layout, compact.shape[1] // 3
                )
                cols = column_discrepancies(compact, row_layout)
                full_cols = column_discrepancies(full, row_layout)
                if rows.tobytes() != row_discrepancies(full, cat).tobytes():
                    mismatched.append(("row", q))
                if cols.tobytes() != np.ascontiguousarray(full_cols[:, kept]).tobytes():
                    mismatched.append(("column", q))
        assert mismatched == []

    def test_full_width_products_match_row_discrepancies(self, rng):
        full, _compact, _kept, col_layout, _rows = padded_products(
            rng, np.float64, 128, 64
        )
        cat = PartitionedLayout(3 * 128, 64)
        got = _compact_row_discrepancies(full, col_layout, col_layout.encoded_rows)
        assert got.tobytes() == row_discrepancies(full, cat).tobytes()

    def test_shape_validation(self, rng):
        _full, compact, _kept, col_layout, _rows = padded_products(
            rng, np.float64, 20, 16
        )
        with pytest.raises(ShapeError):
            _compact_row_discrepancies(compact[:, 1:], col_layout, 21)
        with pytest.raises(ShapeError):
            _compact_row_discrepancies(compact, col_layout, 16)


class TestCheckPartitioned:
    def test_clean_passes(self, clean_result):
        c, rows, cols = clean_result
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert not report.error_detected
        assert report.num_failed == 0
        assert report.num_checks == 2 * 66 + 66 * 2
        assert report.located_errors == []

    def test_data_corruption_detected_and_located(self, clean_result):
        c, rows, cols = clean_result
        c = c.copy()
        c[10, 7] += 1e-3
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert report.error_detected
        axes = {f.axis for f in report.findings}
        assert axes == {"column", "row"}
        assert report.located_errors == [(10, 7)]

    def test_checksum_row_corruption_located(self, clean_result):
        c, rows, cols = clean_result
        c = c.copy()
        cs_row = rows.checksum_index(1)
        c[cs_row, 3] += 1e-3
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert report.located_errors == [(cs_row, 3)]

    def test_corner_checksum_corruption_located(self, clean_result):
        c, rows, cols = clean_result
        c = c.copy()
        r, q = rows.checksum_index(0), cols.checksum_index(0)
        c[r, q] += 1e-3
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert (r, q) in report.located_errors

    def test_nan_result_always_detected(self, clean_result):
        """A NaN in the result must fail the check even though NaN
        comparisons are false — the explicit non-finite guard."""
        c, rows, cols = clean_result
        c = c.copy()
        c[2, 2] = float("nan")
        report = check_partitioned(
            c, rows, cols, ConstantEpsilonProvider(float("1e300"))
        )
        assert report.error_detected

    def test_inf_result_detected(self, clean_result):
        c, rows, cols = clean_result
        c = c.copy()
        c[2, 2] = float("inf")
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert report.error_detected

    def test_sub_tolerance_corruption_passes(self, clean_result):
        """Errors below the tolerance are tolerable by design."""
        c, rows, cols = clean_result
        c = c.copy()
        c[10, 7] += 1e-14
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        assert not report.error_detected

    def test_two_errors_same_block_give_cross_product_locations(
        self, clean_result
    ):
        c, rows, cols = clean_result
        c = c.copy()
        c[1, 2] += 1e-3
        c[3, 4] += 1e-3
        report = check_partitioned(c, rows, cols, ConstantEpsilonProvider(1e-9))
        # Two row + two column failures in one block: 4 candidate positions
        # (the classic ABFT ambiguity for multi-errors).
        located = set(report.located_errors)
        assert {(1, 2), (3, 4), (1, 4), (3, 2)} <= located

    def test_wrong_shape_rejected(self, clean_result):
        _, rows, cols = clean_result
        with pytest.raises(ShapeError):
            check_partitioned(
                np.zeros((5, 5)), rows, cols, ConstantEpsilonProvider(1.0)
            )


class TestCheckReport:
    def test_findings_by_axis(self):
        report = CheckReport()
        assert report.findings_by_axis("row") == []
        assert not report.error_detected
