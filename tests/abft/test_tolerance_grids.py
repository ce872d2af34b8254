"""Tolerance grids: the certified A-ABFT lower grid and the vectorised
SEA / adaptive grids, each against its reference."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abft.encoding import encode_partitioned_columns, encode_partitioned_rows
from repro.abft.providers import (
    AABFTToleranceGrids,
    AdaptiveEpsilonProvider,
    SEAEpsilonProvider,
)
from repro.bounds.adaptive import AdaptiveBound
from repro.bounds.probabilistic import LINEAR_BOUND_MIN_Y, ProbabilisticBound
from repro.bounds.sea import SEABound
from repro.bounds.upper_bound import top_p_arrays, upper_bound_grid_arrays
from repro.errors import BoundSchemeError
from repro.fp.constants import BINARY16, BINARY32, BINARY64

FORMATS = {np.float64: BINARY64, np.float32: BINARY32}

FAMILIES = (
    "uniform",
    "range200",
    "tiny",
    "subnormal",
    "zero_lines",
    "dominant",
    "nonfinite",
)


def family_matrix(rng, family: str, shape, dtype) -> np.ndarray:
    """An operand from one of the input families where a bound is weakest."""
    sign = rng.choice([-1.0, 1.0], shape)
    if family == "range200":
        # 2**+-200 between elements of one row (2**+-120 in binary32)
        span = 200 if dtype == np.float64 else 120
        x = sign * rng.uniform(1, 2, shape) * 2.0 ** rng.integers(-span, span + 1, shape)
    elif family == "tiny":
        # products straddle the 2**-469 underflow edge of the float formula
        x = sign * 2.0 ** rng.uniform(-480, -400, shape)
    elif family == "subnormal":
        tiny = np.finfo(dtype).smallest_subnormal
        x = sign * tiny * rng.integers(1, 2**12, shape)
    elif family == "dominant":
        x = rng.uniform(-1, 1, shape)
        rows = np.arange(shape[0])
        x[rows, rng.integers(0, shape[1], shape[0])] = 2.0**100
    else:
        x = rng.uniform(-1, 1, shape)
    if family == "zero_lines":
        x[rng.random(shape[0]) < 0.4, :] = 0.0
        x[:, rng.random(shape[1]) < 0.4] = 0.0
    if family == "nonfinite":
        for value in (np.nan, np.inf, -np.inf):
            if rng.random() < 0.5:
                x[rng.integers(shape[0]), rng.integers(shape[1])] = value
    return x.astype(dtype)


def staged_grids(a, b, bs, p, scheme, floor=0.0):
    """Encode ``a @ b`` and return its two-step grid build with the
    pieces needed to rebuild the exact grids independently."""
    a_cc, rows = encode_partitioned_columns(a, bs)
    b_rc, cols = encode_partitioned_rows(b, bs)
    rv, ri = top_p_arrays(a_cc, p, 1)
    cv, ci = top_p_arrays(b_rc, p, 0)
    cs_rows = rows.all_checksum_indices()
    cs_cols = cols.all_checksum_indices()
    grids = AABFTToleranceGrids(
        scheme, a.shape[1], rv, ri, cv, ci, cs_rows, cs_cols, epsilon_floor=floor
    )
    return grids, (rv, ri, cv, ci, cs_rows, cs_cols)


def reference_exact(scheme, n, tops, floor):
    """The exact grids the way the parent build made them: the full
    three-case ``y`` in one call, then the tolerance formula."""
    rv, ri, cv, ci, cs_rows, cs_cols = tops
    col_y = upper_bound_grid_arrays(rv[cs_rows], ri[cs_rows], cv, ci)
    row_y = upper_bound_grid_arrays(rv, ri, cv[cs_cols], ci[cs_cols])
    return tuple(
        np.maximum(scheme.epsilon_array(n, y), floor) for y in (col_y, row_y)
    )


def assert_lower_certifies(grids, scheme, n, tops, floor):
    lower = grids.lower()
    try:
        exact = grids.exact()
    except BoundSchemeError:
        assert lower is None, "certified a product whose exact build raises"
        with pytest.raises(BoundSchemeError):
            reference_exact(scheme, n, tops, floor)
        return
    for got, ref in zip(exact, reference_exact(scheme, n, tops, floor)):
        assert got.tobytes() == ref.tobytes()
    if lower is not None:
        for low, ex in zip(lower, exact):
            assert low.shape == ex.shape
            assert np.all(low <= ex), np.max(low - ex)


class TestLowerGridSoundness:
    """Every lower-grid entry is at most its exact tolerance, and the
    lower grid exists only where the exact build cannot raise."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(FAMILIES),
        other=st.sampled_from(FAMILIES),
        dtype=st.sampled_from([np.float64, np.float32]),
        n=st.sampled_from([1, 2, 3, 7, 33, 256, 8192]),
        p=st.integers(1, 3),
        bs=st.sampled_from([1, 2, 5, 8]),
        blocks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        fma=st.booleans(),
        floor=st.sampled_from([0.0, 1e-300, 1e-12]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_lower_grid_is_below_the_exact_grid(
        self, family, other, dtype, n, p, bs, blocks, fma, floor, seed
    ):
        p = min(p, n)
        rng = np.random.default_rng(seed)
        a = family_matrix(rng, family, (blocks[0] * bs, n), dtype)
        b = family_matrix(rng, other, (n, blocks[1] * bs), dtype)
        scheme = ProbabilisticBound(fma=fma, fmt=FORMATS[dtype])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grids, tops = staged_grids(a, b, bs, p, scheme, floor)
            assert_lower_certifies(grids, scheme, n, tops, floor)


def direct_grids(row_values, col_values, n, scheme, floor=0.0):
    """A grid build over hand-made top-p data: every row and every
    column is a checksum vector, and no index is shared (case 1 idle)."""
    rows, p = row_values.shape
    cols = col_values.shape[0]
    row_idx = np.tile(np.arange(p), (rows, 1))
    col_idx = np.tile(np.arange(p, 2 * p), (cols, 1))
    return AABFTToleranceGrids(
        scheme, n, row_values, row_idx, col_values, col_idx,
        np.arange(rows), np.arange(cols), epsilon_floor=floor,
    )


def y_scan(rng, low_exp: int, high_exp: int, size: int) -> np.ndarray:
    """``size`` values spread over ``2**low_exp .. 2**high_exp``."""
    return rng.uniform(1, 2, size) * 2.0 ** rng.integers(low_exp, high_exp, size)


class TestLowerGridConditions:
    """One deterministic case per soundness condition."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("fma", [False, True])
    @pytest.mark.parametrize("fmt", [BINARY64, BINARY32])
    @pytest.mark.parametrize("n", [1, 7, 256, 4096])
    def test_margin_covers_the_float_evaluation(self, fma, fmt, n):
        # y = row value * 1.0 over 2**-400 .. 2**500: the plain K * y sits
        # within a few ulps of the float tolerance on either side.
        rng = np.random.default_rng(n)
        y = y_scan(rng, -400, 500, 4000)
        scheme = ProbabilisticBound(fma=fma, fmt=fmt)
        grids = direct_grids(
            np.stack([y, y], axis=1), np.ones((1, 2)), n, scheme
        )
        lower = grids.lower()
        exact = grids.exact()
        for low, ex in zip(lower, exact):
            assert np.all(low <= ex)
        # and the bound stays useful: within 1e-8 of a finite tolerance,
        # once the 2**-400 shift is below half an ulp of y
        useful = (y[:, None] >= 2.0**-340) & np.isfinite(exact[0])
        assert np.all((lower[0] >= exact[0] * (1 - 1e-8))[useful])

    @pytest.mark.parametrize("fma", [False, True])
    def test_underflow_region_bounds_only_to_the_floor(self, fma):
        # Below 2**-469 the tolerance formula's y * y terms underflow, so
        # K * y would exceed the float tolerance; the bound must be the
        # floor there (0 without one) and certify only exact zeros.
        rng = np.random.default_rng(7)
        y = np.concatenate([y_scan(rng, -520, -400, 2000), [0.0]])
        scheme = ProbabilisticBound(fma=fma)
        grids = direct_grids(np.stack([y, y], axis=1), np.ones((1, 2)), 1, scheme)
        lower = grids.lower()
        exact = grids.exact()
        assert np.all(lower[0] <= exact[0])
        assert np.all(lower[0][y[:, None] < LINEAR_BOUND_MIN_Y] == 0.0)
        floored = direct_grids(
            np.stack([y, y], axis=1), np.ones((1, 2)), 1, scheme, floor=1e-320
        )
        assert np.all(floored.lower()[0] == 1e-320)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_non_finite_top_value_takes_the_exact_path(self, value):
        # +inf: an Inf operand, whose exact build raises.  -inf: the fill
        # value of a vector with fewer than p non-NaN entries, whose
        # shared-index products can make y NaN.
        row_values = np.array([[4.0, 2.0], [3.0, 1.0]])
        row_values[1, 0 if value > 0 else 1] = value
        grids = direct_grids(
            row_values, np.array([[1.0, 0.5]]), 8, ProbabilisticBound()
        )
        assert grids.lower() is None

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_product_of_the_largest_values_must_be_finite(self):
        big = np.array([[1e200, 1e200]])
        grids = direct_grids(big, big, 8, ProbabilisticBound())
        assert grids.lower() is None
        with pytest.raises(BoundSchemeError):
            grids.exact()

    def test_nan_row_with_shared_minus_inf_index_raises_on_both(self):
        # A row with one non-NaN value at p=2 carries a -inf fill at the
        # first NaN's index; a column whose top 2 hold a 0 there makes
        # case 1 NaN, while cases 2 and 3 stay finite (y_lb = 0).
        a = np.array([[np.nan, 5.0, np.nan]])
        b = np.array([[0.0], [1.0], [0.0]])
        scheme = ProbabilisticBound()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grids, tops = staged_grids(a, b, 1, 2, scheme)
            assert_lower_certifies(grids, scheme, 3, tops, 0.0)
            assert grids.lower() is None

    def test_only_the_plain_probabilistic_scheme_certifies(self):
        class Scaled(ProbabilisticBound):
            def epsilon_array(self, n, y):
                return super().epsilon_array(n, y) * 0.5

        values = np.array([[1.0, 0.5]])
        assert direct_grids(values, values, 8, Scaled()).lower() is None
        assert direct_grids(values, values, 8, ProbabilisticBound()).lower() is not None

    def test_exact_continues_the_lower_grid_with_case_1(self):
        # Shared indices raise y above cases 2 and 3: the exact grid must
        # see them after lower() ran on the same y_lb buffers.
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (8, 16))
        b = rng.uniform(-1, 1, (16, 8))
        a[:, 0] = 10.0
        b[0, :] = 10.0
        scheme = ProbabilisticBound()
        grids, tops = staged_grids(a, b, 4, 2, scheme)
        lower = grids.lower()
        exact = grids.exact()
        ref = reference_exact(scheme, 16, tops, 0.0)
        assert exact[0].tobytes() == ref[0].tobytes()
        assert exact[1].tobytes() == ref[1].tobytes()
        assert np.all(lower[0] < exact[0] / 5)  # case 1 pairs the two 10s


def scalar_grids(provider, rows, cols):
    col = np.array(
        [
            [provider.column_epsilon(blk, j) for j in range(cols.encoded_rows)]
            for blk in range(rows.num_blocks)
        ]
    )
    row = np.array(
        [
            [provider.row_epsilon(i, blk) for blk in range(cols.num_blocks)]
            for i in range(rows.encoded_rows)
        ]
    )
    return col, row


class TestNormGridsMatchScalar:
    """The broadcast SEA and adaptive grids are bitwise the scalar
    per-comparison tolerances."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["sea", "adaptive"]),
        dtype=st.sampled_from([np.float64, np.float32]),
        bs=st.sampled_from([1, 3, 8, 9, 32, 130]),
        m=st.integers(1, 200),
        q=st.integers(1, 200),
        n=st.integers(1, 40),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_broadcast_grids_equal_scalar_loops(self, kind, dtype, bs, m, q, n, seed):
        rng = np.random.default_rng(seed)
        # padded edge blocks: zero rows / columns up to the block size
        a = np.zeros((m + (-m) % bs, n), dtype=dtype)
        b = np.zeros((n, q + (-q) % bs), dtype=dtype)
        a[:m] = rng.uniform(-1, 1, (m, n))
        b[:, :q] = rng.uniform(-1, 1, (n, q))
        a_cc, rows = encode_partitioned_columns(a, bs)
        b_rc, cols = encode_partitioned_rows(b, bs)
        a_norms = np.linalg.norm(a_cc.astype(np.float64), axis=1)
        b_norms = np.linalg.norm(b_rc.astype(np.float64), axis=0)
        fmt = FORMATS[dtype]
        if kind == "sea":
            provider = SEAEpsilonProvider(SEABound(fmt=fmt), a_norms, b_norms, rows, cols, n)
        else:
            provider = AdaptiveEpsilonProvider(
                AdaptiveBound(fmt=BINARY32, storage_fmt=BINARY16),
                a_norms, b_norms, rows, cols, n,
            )
        col_eps, row_eps = provider.epsilon_grids(rows, cols)
        col_ref, row_ref = scalar_grids(provider, rows, cols)
        assert col_eps.shape == col_ref.shape and row_eps.shape == row_ref.shape
        assert col_eps.tobytes() == col_ref.tobytes()
        assert row_eps.tobytes() == row_ref.tobytes()
