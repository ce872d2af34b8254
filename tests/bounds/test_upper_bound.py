"""The three-case upper-bound rule of Section IV-E."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.upper_bound import (
    TopP,
    determine_upper_bound,
    exact_upper_bound,
    top_p_arrays,
    top_p_of_columns,
    top_p_of_rows,
)
from repro.engine.plan import WorkspacePool


def naive_top_p(vector, p):
    """Algorithm 1's max search, literally: p rounds of a strict ``>`` scan.

    The first occurrence of the maximum wins every round (ties resolve to
    the lowest index), exactly the semantics ``top_p_arrays`` must keep.
    """
    work = [abs(float(v)) for v in vector]
    vals, ids = [], []
    for _ in range(p):
        best = 0
        for j in range(1, len(work)):
            if work[j] > work[best]:
                best = j
        vals.append(work[best])
        ids.append(best)
        work[best] = -np.inf
    return np.array(vals), np.array(ids, dtype=np.intp)


class TestTopP:
    def test_rows_descending_order(self, rng):
        m = rng.uniform(-10, 10, (5, 20))
        tops = top_p_of_rows(m, 4)
        assert len(tops) == 5
        for i, t in enumerate(tops):
            assert np.all(np.diff(t.values) <= 0)
            assert np.array_equal(t.values, np.abs(m[i, t.indices]))

    def test_rows_are_true_maxima(self, rng):
        m = rng.uniform(-10, 10, (8, 30))
        tops = top_p_of_rows(m, 3)
        for i, t in enumerate(tops):
            expected = np.sort(np.abs(m[i]))[-3:][::-1]
            assert np.allclose(t.values, expected)

    def test_columns_match_transposed_rows(self, rng):
        m = rng.uniform(-5, 5, (12, 7))
        by_cols = top_p_of_columns(m, 2)
        by_rows = top_p_of_rows(m.T, 2)
        for c, r in zip(by_cols, by_rows):
            assert np.array_equal(c.values, r.values)
            assert np.array_equal(c.indices, r.indices)

    def test_p_validation(self, rng):
        m = rng.uniform(-1, 1, (3, 4))
        with pytest.raises(ValueError):
            top_p_of_rows(m, 0)
        with pytest.raises(ValueError):
            top_p_of_rows(m, 5)

    def test_max_min_accessors(self):
        t = TopP(values=np.array([5.0, 2.0]), indices=np.array([1, 3]))
        assert t.max == 5.0
        assert t.min == 2.0
        assert t.p == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TopP(values=np.array([1.0, 2.0]), indices=np.array([0]))


WIDTHS = (np.float64, np.float32)


def upcast_top_p(matrix, p, axis):
    """The float64-upcast search ``top_p_arrays`` ran before it searched
    float32 at its own width: the oracle its bytes must still equal.

    Copies the matrix to float64, masks every NaN after a full-array
    probe, then runs the same ``p`` rounds of a strict argmax.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    work = np.abs(matrix if axis == 1 else np.ascontiguousarray(matrix.T))
    if np.isnan(np.sum(work)):
        work[np.isnan(work)] = -np.inf
    k = work.shape[0]
    vals = np.empty((k, p))
    idx = np.empty((k, p), dtype=np.intp)
    rows = np.arange(k)
    for j in range(p):
        best = np.argmax(work, axis=1)
        idx[:, j] = best
        vals[:, j] = work[rows, best]
        work[rows, best] = -np.inf
    return vals, idx


class _TopPArrayCases:
    """Edge cases of the stacked array form vs the per-vector TopP path,
    at the width ``dtype`` set by each concrete class below.  Both widths
    must give the float64-upcast oracle's bytes.
    """

    dtype: type

    def assert_matches_oracle(self, matrix, p, axis):
        vals, idx = top_p_arrays(matrix, p, axis)
        ref_vals, ref_idx = upcast_top_p(matrix, p, axis)
        assert vals.dtype == np.float64 and idx.dtype == np.intp
        assert vals.tobytes() == ref_vals.tobytes()
        assert idx.tobytes() == ref_idx.tobytes()
        return vals, idx

    def assert_matches_per_vector(self, matrix, p, axis):
        vals, idx = self.assert_matches_oracle(matrix, p, axis)
        tops = top_p_of_rows(matrix, p) if axis == 1 else top_p_of_columns(matrix, p)
        assert vals.shape == idx.shape == (len(tops), p)
        for k, top in enumerate(tops):
            assert np.array_equal(vals[k], top.values)
            assert np.array_equal(idx[k], top.indices)
        vectors = matrix if axis == 1 else matrix.T
        for k, vec in enumerate(vectors):
            ref_vals, ref_ids = naive_top_p(vec, p)
            assert np.array_equal(vals[k], ref_vals)
            assert np.array_equal(idx[k], ref_ids)

    def test_ties_resolve_to_lowest_index(self):
        # |3| appears at indices 0, 2 and 3 (once negated): the strict max
        # search must pick them in index order, like Algorithm 1's ``>``.
        m = np.array(
            [[3.0, 1.0, -3.0, 3.0], [-2.0, 2.0, 0.5, 2.0]], dtype=self.dtype
        )
        vals, idx = top_p_arrays(m, 3, axis=1)
        assert np.array_equal(idx, [[0, 2, 3], [0, 1, 3]])
        assert np.array_equal(vals, [[3.0, 3.0, 3.0], [2.0, 2.0, 2.0]])
        self.assert_matches_per_vector(m, 3, axis=1)
        self.assert_matches_per_vector(m.T, 3, axis=0)

    def test_p_equals_n(self, rng):
        m = rng.uniform(-5, 5, (6, 9)).astype(self.dtype)
        self.assert_matches_per_vector(m, 9, axis=1)
        self.assert_matches_per_vector(m, 6, axis=0)
        vals, _ = top_p_arrays(m, 9, axis=1)
        # Every element selected exactly once: the rows are permutations.
        assert np.array_equal(np.sort(vals, axis=1), np.sort(np.abs(m), axis=1))

    def test_p_equals_one(self, rng):
        m = rng.uniform(-5, 5, (7, 11)).astype(self.dtype)
        vals, idx = top_p_arrays(m, 1, axis=1)
        assert np.array_equal(vals[:, 0], np.max(np.abs(m), axis=1))
        assert np.array_equal(idx[:, 0], np.argmax(np.abs(m), axis=1))
        self.assert_matches_per_vector(m, 1, axis=1)
        self.assert_matches_per_vector(m, 1, axis=0)

    def test_negative_dominated_vectors(self, rng):
        # All-negative vectors: the search runs on |values|, so the most
        # negative entry must win, not the algebraic maximum.
        m = -np.abs(rng.uniform(1, 10, (5, 8))).astype(self.dtype)
        vals, idx = top_p_arrays(m, 2, axis=1)
        assert np.array_equal(vals[:, 0], np.abs(m).max(axis=1))
        assert np.all(vals > 0)
        self.assert_matches_per_vector(m, 2, axis=1)
        self.assert_matches_per_vector(m, 2, axis=0)

    def test_nan_entries_never_selected(self):
        # NaN loses every strict ``>`` comparison in the reference kernel,
        # so finite values must win; the input matrix is left untouched.
        m = np.array(
            [[np.nan, 2.0, 5.0, 1.0], [4.0, np.nan, np.nan, 3.0]],
            dtype=self.dtype,
        )
        snapshot = m.copy()
        vals, idx = self.assert_matches_oracle(m, 2, axis=1)
        assert np.array_equal(vals, [[5.0, 2.0], [4.0, 3.0]])
        assert np.array_equal(idx, [[2, 1], [0, 3]])
        assert np.array_equal(m, snapshot, equal_nan=True)

    def test_nan_entries_never_selected_along_columns(self):
        # Same matrix transposed: the NaN rows of the transposed search
        # workspace are the NaN columns of the input.
        m = np.array(
            [[np.nan, 2.0, 5.0, 1.0], [4.0, np.nan, np.nan, 3.0]],
            dtype=self.dtype,
        ).T.copy()
        snapshot = m.copy()
        vals, idx = self.assert_matches_oracle(m, 2, axis=0)
        assert np.array_equal(vals, [[5.0, 2.0], [4.0, 3.0]])
        assert np.array_equal(idx, [[2, 1], [0, 3]])
        assert np.array_equal(m, snapshot, equal_nan=True)

    def test_all_nan_row_with_p_above_one(self):
        # A row with nothing selectable yields -inf at index 0 every round,
        # while its neighbours are searched as usual.
        m = np.array(
            [[np.nan, np.nan, np.nan], [1.0, -3.0, 2.0]], dtype=self.dtype
        )
        vals, idx = self.assert_matches_oracle(m, 2, axis=1)
        assert np.array_equal(vals, [[-np.inf, -np.inf], [3.0, 2.0]])
        assert np.array_equal(idx, [[0, 0], [1, 2]])
        self.assert_matches_oracle(m.T.copy(), 2, axis=0)

    def test_axes_agree_bitwise(self, rng):
        m = rng.uniform(-5, 5, (10, 13)).astype(self.dtype)
        v1, i1 = top_p_arrays(m, 3, axis=1)
        v0, i0 = top_p_arrays(m.T, 3, axis=0)
        assert np.array_equal(v1, v0)
        assert np.array_equal(i1, i0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_warm_pooled_search_copies_no_operand(self, rng, axis):
        """The search workspace comes from the pool at the operand's own
        width, so a warm call allocates only its (k, p) outputs and the
        per-round index vectors — no copy of the operand."""
        m = rng.standard_normal((1040, 1024)).astype(self.dtype)
        pool = WorkspacePool()
        expected = top_p_arrays(m, 2, axis, pool=pool)
        tracemalloc.start()
        try:
            vals, idx = top_p_arrays(m, 2, axis, pool=pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * m.nbytes
        assert vals.tobytes() == expected[0].tobytes()
        assert idx.tobytes() == expected[1].tobytes()

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            top_p_arrays(rng.uniform(-1, 1, (3, 4)), 5, axis=1)
        with pytest.raises(ValueError):
            top_p_arrays(np.ones(4), 1, axis=0)


class TestTopPArrays(_TopPArrayCases):
    """The cases at float64, plus property tests drawing both widths."""

    dtype = np.float64

    def test_other_dtypes_search_a_float64_copy(self):
        m = np.array([[3, -7, 7, 1], [-2, 0, 5, -32768]], dtype=np.int16)
        self.assert_matches_per_vector(m, 3, axis=1)
        self.assert_matches_per_vector(m, 2, axis=0)
        self.assert_matches_oracle(m.astype(np.float16), 3, axis=1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_reference_with_ties(self, k, n, p, seed):
        """Integer-valued entries force frequent |value| ties."""
        rng = np.random.default_rng(seed)
        m = rng.integers(-3, 4, (k, n))
        for dtype in WIDTHS:
            self.assert_matches_per_vector(m.astype(dtype), min(p, n), axis=1)
            self.assert_matches_per_vector(m.astype(dtype), min(p, k), axis=0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.integers(1, 10),
        st.sampled_from([0.0, 0.2, 0.7, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_non_finite_entries_match_oracle(self, k, n, p, nan_frac, seed):
        """NaN and ±inf sprinkled over tie-heavy data: only the rows the
        first round flags are masked, with the oracle's bytes."""
        rng = np.random.default_rng(seed)
        base = rng.integers(-3, 4, (k, n)).astype(np.float64)
        base[rng.random((k, n)) < nan_frac] = np.nan
        base[rng.random((k, n)) < 0.1] = -np.inf
        for dtype in WIDTHS:
            m = base.astype(dtype)
            self.assert_matches_oracle(m, min(p, n), axis=1)
            self.assert_matches_oracle(m, min(p, k), axis=0)
            assert np.array_equal(m, base.astype(dtype), equal_nan=True)


class TestTopPArraysFloat32(_TopPArrayCases):
    """The cases with float32 operands, which are searched at their own
    width."""

    dtype = np.float32


class TestThreeCaseRule:
    @settings(max_examples=200)
    @given(
        st.integers(2, 64),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_always_an_upper_bound(self, n, p, seed):
        """The determined y must bound every product |a_k * b_k| (Eq. 46)."""
        rng = np.random.default_rng(seed)
        p = min(p, n)
        a = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-3, 4, n)
        b = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-3, 4, n)
        row_top = top_p_of_rows(a[None, :], p)[0]
        col_top = top_p_of_columns(b[:, None], p)[0]
        y = determine_upper_bound(row_top, col_top)
        assert y >= exact_upper_bound(a, b)

    def test_shared_index_case_is_tight(self):
        # Largest values of a and b share index 0: y = |a_0 * b_0| exactly.
        a = np.array([10.0, 1.0, 1.0, 1.0])
        b = np.array([8.0, 1.0, 1.0, 1.0])
        row_top = top_p_of_rows(a[None, :], 2)[0]
        col_top = top_p_of_columns(b[:, None], 2)[0]
        assert determine_upper_bound(row_top, col_top) == 80.0

    def test_disjoint_case_uses_cross_bounds(self):
        # Top-2 of a: indices {0, 1}; top-2 of b: indices {2, 3} — disjoint.
        a = np.array([10.0, 9.0, 0.5, 0.5])
        b = np.array([0.5, 0.5, 8.0, 7.0])
        row_top = top_p_of_rows(a[None, :], 2)[0]
        col_top = top_p_of_columns(b[:, None], 2)[0]
        y = determine_upper_bound(row_top, col_top)
        # max|a| * min_top|b| = 10*7 = 70; max|b| * min_top|a| = 8*9 = 72.
        assert y == 72.0
        assert y >= exact_upper_bound(a, b)

    def test_larger_p_never_loosens(self, rng):
        """Increasing p refines (or keeps) the bound — paper Section IV-E."""
        n = 64
        for _ in range(20):
            a = rng.uniform(-5, 5, n)
            b = rng.uniform(-5, 5, n)
            ys = []
            for p in (1, 2, 4, 8, 16):
                rt = top_p_of_rows(a[None, :], p)[0]
                ct = top_p_of_columns(b[:, None], p)[0]
                ys.append(determine_upper_bound(rt, ct))
            exact = exact_upper_bound(a, b)
            assert all(y >= exact for y in ys)
            # p = n would be exact; the trend must be non-increasing overall.
            assert ys[-1] <= ys[0]

    def test_exact_upper_bound_validates(self):
        with pytest.raises(ValueError):
            exact_upper_bound(np.ones(3), np.ones(2))
