"""The fused online-ABFT kernel: reconciliation, early abort, localisation.

Bitwise reconciliation is the load-bearing property: whatever the fused
tile geometry, the in-loop discrepancy grids must be byte-for-byte what
:func:`~repro.abft.checking.column_discrepancies` /
:func:`~repro.abft.checking.row_discrepancies` compute over the fused
result's own bytes, and the degenerate single-tile mode must reproduce
the separate path's result bytes exactly.  The fault campaign then
asserts tile-granular behaviour: a flipped tile is named precisely, only
it is recomputed, and a persistent flip aborts the scan early.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abft.checking import column_discrepancies, row_discrepancies
from repro.abft.encoding import (
    encode_partitioned_columns,
    encode_partitioned_rows,
)
from repro.engine.plan import WorkspacePool
from repro.errors import ShapeError
from repro.kernels.online_fused import online_fused_matmul, plan_fused_tiles


def encoded_problem(m, n, q, bs, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n)).astype(dtype)
    b = rng.uniform(-1, 1, (n, q)).astype(dtype)
    a_cc, row_layout = encode_partitioned_columns(a, bs)
    b_rc, col_layout = encode_partitioned_rows(b, bs)
    return a_cc, b_rc, row_layout, col_layout


def inf_grids(row_layout, col_layout):
    col_eps = np.full(
        (row_layout.num_blocks, col_layout.encoded_rows), np.inf
    )
    row_eps = np.full(
        (row_layout.encoded_rows, col_layout.num_blocks), np.inf
    )
    return col_eps, row_eps


def tight_grids(a_cc, b_rc, row_layout, col_layout, margin=10.0):
    """Tolerances hugging the clean rounding noise: any flip must trip."""
    c = a_cc @ b_rc
    col_eps = column_discrepancies(c, row_layout) * margin + 1e-12
    row_eps = row_discrepancies(c, col_layout) * margin + 1e-12
    return col_eps, row_eps


class TestPlanFusedTiles:
    def test_none_is_the_single_full_tile(self):
        _, _, rl, cl = encoded_problem(12, 10, 8, 4)
        assert plan_fused_tiles(rl, cl, None) == [
            (0, rl.encoded_rows, 0, cl.encoded_rows)
        ]

    def test_non_positive_tile_blocks_rejected(self):
        _, _, rl, cl = encoded_problem(12, 10, 8, 4)
        with pytest.raises(ValueError):
            plan_fused_tiles(rl, cl, 0)

    @given(
        row_blocks=st.integers(1, 5),
        col_blocks=st.integers(1, 5),
        bs=st.integers(2, 7),
        tb=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiles_cover_whole_blocks_disjointly(
        self, row_blocks, col_blocks, bs, tb
    ):
        _, _, rl, cl = encoded_problem(
            row_blocks * bs, 5, col_blocks * bs, bs
        )
        tiles = plan_fused_tiles(rl, cl, tb)
        covered = np.zeros((rl.encoded_rows, cl.encoded_rows), dtype=int)
        for i0, i1, j0, j1 in tiles:
            # Stride-aligned: every tile spans whole encoded blocks, so
            # clipped edge tiles still check complete checksum groups.
            assert i0 % rl.stride == 0 and j0 % cl.stride == 0
            assert i1 % rl.stride == 0 and j1 % cl.stride == 0
            covered[i0:i1, j0:j1] += 1
        assert (covered == 1).all()


class TestBitwiseReconciliation:
    @given(
        row_blocks=st.integers(1, 4),
        col_blocks=st.integers(1, 4),
        bs=st.integers(2, 7),
        tb=st.one_of(st.none(), st.integers(1, 5)),
        dtype=st.sampled_from([np.float64, np.float32]),
        pooled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_grids_match_the_full_matrix_oracles(
        self, row_blocks, col_blocks, bs, tb, dtype, pooled
    ):
        a_cc, b_rc, rl, cl = encoded_problem(
            row_blocks * bs, 6, col_blocks * bs, bs, dtype=dtype
        )
        col_eps, row_eps = inf_grids(rl, cl)
        outcome = online_fused_matmul(
            a_cc, b_rc,
            row_layout=rl, col_layout=cl,
            col_eps=col_eps, row_eps=row_eps,
            tile_blocks=tb,
            pool=WorkspacePool() if pooled else None,
        )
        assert outcome.clean
        assert outcome.tiles_checked == outcome.tiles_total
        assert np.array_equal(
            outcome.col_disc, column_discrepancies(outcome.out, rl)
        )
        assert np.array_equal(
            outcome.row_disc, row_discrepancies(outcome.out, cl)
        )
        if tb is None:
            # Degenerate mode: the separate path's exact result bytes.
            assert np.array_equal(outcome.out, a_cc @ b_rc)

    def test_shape_validation(self):
        a_cc, b_rc, rl, cl = encoded_problem(12, 6, 8, 4)
        col_eps, row_eps = inf_grids(rl, cl)
        with pytest.raises(ShapeError):
            online_fused_matmul(
                a_cc, b_rc[:-1],
                row_layout=rl, col_layout=cl,
                col_eps=col_eps, row_eps=row_eps,
            )
        with pytest.raises(ShapeError):
            online_fused_matmul(
                a_cc, b_rc,
                row_layout=rl, col_layout=cl,
                col_eps=col_eps[:, :-1], row_eps=row_eps,
            )


def tile_reference(a_cc, b_rc, tiles):
    """The fused multi-tile GEMM's own oracle: the same per-tile BLAS calls.

    Subdividing a BLAS call is not bitwise neutral, so the oracle for a
    multi-tile fused product is the per-tile product, not ``a @ b``.
    """
    out = np.empty(
        (a_cc.shape[0], b_rc.shape[1]), dtype=np.result_type(a_cc, b_rc)
    )
    for i0, i1, j0, j1 in tiles:
        np.matmul(a_cc[i0:i1, :], b_rc[:, j0:j1], out=out[i0:i1, j0:j1])
    return out


def flipping_hook(target_tile, *, transient=False, bit=40):
    """Inject a mantissa flip into one element of ``target_tile``.

    Persistent by default: the flip re-fires on every attempt, so the
    recompute cannot heal it.  ``transient=True`` fires on attempt 0 only.
    """
    def hook(tile_index, attempt, tile_view):
        if tile_index != target_tile:
            return
        if transient and attempt > 0:
            return
        r, c = np.unravel_index(
            int(np.argmax(np.abs(tile_view) > 0)), tile_view.shape
        )
        cell = np.ascontiguousarray(tile_view[r, c : c + 1])
        raw = cell.view(np.uint64)
        raw ^= np.uint64(1 << bit)
        tile_view[r, c] = cell[0]
    return hook


class TestFaultCampaign:
    @given(
        row_blocks=st.integers(2, 4),
        col_blocks=st.integers(2, 4),
        bs=st.integers(3, 6),
        tb=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_persistent_flip_names_the_tile_and_aborts_early(
        self, row_blocks, col_blocks, bs, tb, data
    ):
        a_cc, b_rc, rl, cl = encoded_problem(
            row_blocks * bs, 7, col_blocks * bs, bs, seed=3
        )
        col_eps, row_eps = tight_grids(a_cc, b_rc, rl, cl)
        tiles = plan_fused_tiles(rl, cl, tb)
        target = data.draw(
            st.integers(0, len(tiles) - 1), label="target tile"
        )
        outcome = online_fused_matmul(
            a_cc, b_rc,
            row_layout=rl, col_layout=cl,
            col_eps=col_eps, row_eps=row_eps,
            tile_blocks=tb,
            max_recomputes=2,
            inject_hook=flipping_hook(target),
        )
        # The exact failed tile is named; only it was ever recomputed.
        assert outcome.failed_tile == target
        assert outcome.early_abort
        assert outcome.recomputed_tiles == [target]
        # The scan stopped at the failed tile: nothing past it checked.
        assert outcome.tiles_checked == target + 1
        # The product still completed; every *other* tile is pristine.
        reference = tile_reference(a_cc, b_rc, tiles)
        mask = np.ones_like(reference, dtype=bool)
        i0, i1, j0, j1 = tiles[target]
        mask[i0:i1, j0:j1] = False
        assert np.array_equal(outcome.out[mask], reference[mask])

    def test_transient_flip_heals_via_tile_recompute(self):
        a_cc, b_rc, rl, cl = encoded_problem(12, 7, 12, 4, seed=5)
        col_eps, row_eps = tight_grids(a_cc, b_rc, rl, cl)
        outcome = online_fused_matmul(
            a_cc, b_rc,
            row_layout=rl, col_layout=cl,
            col_eps=col_eps, row_eps=row_eps,
            tile_blocks=1,
            inject_hook=flipping_hook(2, transient=True),
        )
        # Recompute of exactly the flipped tile healed the product.
        assert outcome.clean
        assert not outcome.early_abort
        assert outcome.recomputed_tiles == [2]
        assert outcome.tiles_checked == outcome.tiles_total
        assert np.array_equal(
            outcome.out,
            tile_reference(a_cc, b_rc, plan_fused_tiles(rl, cl, 1)),
        )

    def test_abort_on_failure_false_checks_every_tile(self):
        a_cc, b_rc, rl, cl = encoded_problem(12, 7, 12, 4, seed=5)
        col_eps, row_eps = tight_grids(a_cc, b_rc, rl, cl)
        outcome = online_fused_matmul(
            a_cc, b_rc,
            row_layout=rl, col_layout=cl,
            col_eps=col_eps, row_eps=row_eps,
            tile_blocks=1,
            abort_on_failure=False,
            inject_hook=flipping_hook(0),
        )
        # Timing mode: no recompute, no abort, full scan.
        assert not outcome.early_abort
        assert outcome.recomputed_tiles == []
        assert outcome.tiles_checked == outcome.tiles_total
