"""Online-ABFT fused into the tiled GEMM: per-tile checksums, early abort.

The separate execution path streams the result three times: once to
multiply, once for :func:`~repro.abft.checking.column_discrepancies` and
once for :func:`~repro.abft.checking.row_discrepancies`.  Following the
online-fault-tolerance GEMM literature (Wu/Zhai et al., PAPERS.md), this
kernel folds the checksum comparison into the tile loop itself: each
result tile is checked against its tolerance slice while its bytes are
still hot, so a corrupted tile is flagged — and recomputed — *before* the
remaining tiles run.

Bitwise reconciliation
----------------------
Fused tiles are **stride-aligned**: the tile edge is a whole number of
``(BS+1)``-wide encoded blocks per axis, and the encoded result dims are
themselves stride multiples, so every tile (clipped edge tiles included)
covers whole checksum blocks.  A tile is then checked by the full-matrix
discrepancy functions themselves under tile-local layouts — the same
per-element accumulation on that slice — so the concatenated per-tile
grids are bitwise equal to the one-shot grids.  The single-tile mode
makes the separate path's own ``np.matmul`` call, so its result bytes
equal the separate path's.  Both properties are hypothesis-tested.

Abort semantics
---------------
Tiles are checked in row-major plan order.  A failing tile is recomputed
in place up to ``max_recomputes`` times (a transient strike heals and the
run continues clean).  A *persistent* failure aborts checking: the kernel
records the failed tile, finishes the remaining GEMM tiles unchecked (the
caller still needs the full product for the canonical report/correction
path) and returns ``early_abort=True`` so the caller rebuilds the full
report with the separate-path oracle.  Nothing is ever dropped silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..abft.checking import (
    checks_pass,
    column_discrepancies,
    row_discrepancies,
)
from ..abft.encoding import PartitionedLayout
from ..errors import ShapeError

__all__ = ["OnlineFusedOutcome", "online_fused_matmul", "plan_fused_tiles"]

# An inject hook receives (tile_index, attempt, tile_view) and may mutate
# the tile in place — the chaos/fault-campaign seam.
InjectHook = Callable[[int, int, np.ndarray], None]


def plan_fused_tiles(
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    tile_blocks: int | None,
) -> list[tuple[int, int, int, int]]:
    """Stride-aligned tile decomposition of the encoded result.

    The tile edge along each axis is ``tile_blocks`` whole encoded blocks
    (``tile_blocks * (BS+1)`` encoded rows/cols), so every tile owns its
    checksum rows and columns outright and can be checked independently.
    Encoded dims are stride multiples, hence clipped edge tiles still
    cover whole blocks.  ``tile_blocks=None`` yields the single
    full-result tile — the degenerate fused mode whose result bytes and
    discrepancy grids are bitwise equal to the separate default path.
    """
    m_enc = row_layout.encoded_rows
    q_enc = col_layout.encoded_rows
    if tile_blocks is None:
        return [(0, m_enc, 0, q_enc)]
    if tile_blocks < 1:
        raise ValueError(f"tile_blocks must be >= 1, got {tile_blocks}")
    row_edge = tile_blocks * row_layout.stride
    col_edge = tile_blocks * col_layout.stride
    return [
        (i0, min(i0 + row_edge, m_enc), j0, min(j0 + col_edge, q_enc))
        for i0 in range(0, m_enc, row_edge)
        for j0 in range(0, q_enc, col_edge)
    ]


@dataclass
class OnlineFusedOutcome:
    """What :func:`online_fused_matmul` did, besides the product itself.

    ``col_disc`` / ``row_disc`` hold the full discrepancy grids in the
    clean case (``early_abort=False``); after an early abort only the
    tiles up to and including the failed one were checked, so the caller
    must rebuild the grids with the separate-path oracle before reporting.
    """

    out: np.ndarray
    col_disc: np.ndarray
    row_disc: np.ndarray
    tiles: list[tuple[int, int, int, int]]
    tiles_total: int
    tiles_checked: int = 0
    failed_tile: int | None = None
    early_abort: bool = False
    recomputed_tiles: list[int] = field(default_factory=list)
    check_seconds: float = 0.0

    @property
    def clean(self) -> bool:
        return self.failed_tile is None


def _tile_bad(
    tile: np.ndarray,
    bounds: tuple[int, int, int, int],
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    col_eps: np.ndarray,
    row_eps: np.ndarray,
    col_disc: np.ndarray,
    row_disc: np.ndarray,
) -> bool:
    """Check one stride-aligned tile; record its grid slices; report failure.

    The tile covers whole checksum blocks, so it is checked by
    :func:`~repro.abft.checking.column_discrepancies` and
    :func:`~repro.abft.checking.row_discrepancies` themselves, under
    tile-local layouts, writing straight into the tile's slices of the
    full grids — the same per-element accumulation as the full-matrix
    reduction, so the slices are bitwise equal to the full grids.
    """
    i0, i1, j0, j1 = bounds
    r_bs = row_layout.block_size
    c_bs = col_layout.block_size
    br0 = i0 // row_layout.stride
    br1 = i1 // row_layout.stride
    bc0 = j0 // col_layout.stride
    bc1 = j1 // col_layout.stride

    cd = column_discrepancies(
        tile, PartitionedLayout((br1 - br0) * r_bs, r_bs),
        out=col_disc[br0:br1, j0:j1],
    )
    rd = row_discrepancies(
        tile, PartitionedLayout((bc1 - bc0) * c_bs, c_bs),
        out=row_disc[i0:i1, bc0:bc1],
    )

    return not checks_pass(
        cd, col_eps[br0:br1, j0:j1], rd, row_eps[i0:i1, bc0:bc1]
    )


def online_fused_matmul(
    a: np.ndarray,
    b: np.ndarray,
    *,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    col_eps: np.ndarray,
    row_eps: np.ndarray,
    tile_blocks: int | None = None,
    out: np.ndarray | None = None,
    pool=None,
    max_recomputes: int = 2,
    inject_hook: InjectHook | None = None,
    matmul: Callable[..., np.ndarray] = np.matmul,
) -> OnlineFusedOutcome:
    """``a @ b`` with the partitioned checksum check fused into the tiles.

    Parameters
    ----------
    col_eps / row_eps:
        Dense tolerance grids from the provider's ``epsilon_grids`` —
        computed *before* the multiply, which is what makes the in-loop
        comparison possible.
    tile_blocks:
        Fused tile edge in whole encoded blocks per axis
        (:func:`plan_fused_tiles`); ``None`` is the degenerate
        single-tile mode, one ``matmul(a, b, out=out)`` call like the
        separate path's.
    pool:
        Optional :class:`~repro.engine.plan.WorkspacePool` for the
        multi-tile mode's staging buffers: each tile is computed into a
        contiguous buffer and copied into place (identical bytes — numpy
        buffers non-contiguous matmul outputs the same way internally).
    max_recomputes:
        Recompute attempts per failing tile before declaring the failure
        persistent and aborting.
    inject_hook:
        ``(tile_index, attempt, tile_view) -> None`` called after each
        tile GEMM (and after each recompute, with the attempt number
        incremented) — the fault-campaign / chaos injection seam.
    matmul:
        ``matmul(a, b, out=...)`` running every tile GEMM: the engine
        passes its negotiated backend's, so a fused result is computed by
        the backend it names.  The ``numpy`` backend's is ``np.matmul``.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("online_fused_matmul operands must be 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    m_enc, q_enc = a.shape[0], b.shape[1]
    if m_enc != row_layout.encoded_rows or q_enc != col_layout.encoded_rows:
        raise ShapeError(
            f"encoded result {m_enc}x{q_enc} does not match layouts "
            f"({row_layout.encoded_rows} x {col_layout.encoded_rows})"
        )
    if out is None:
        out = np.empty((m_enc, q_enc), dtype=np.result_type(a, b))
    elif out.shape != (m_enc, q_enc):
        raise ShapeError(f"out has shape {out.shape}, expected {(m_enc, q_enc)}")
    if col_eps.shape != (row_layout.num_blocks, q_enc):
        raise ShapeError(
            f"col_eps has shape {col_eps.shape}, expected "
            f"{(row_layout.num_blocks, q_enc)}"
        )
    if row_eps.shape != (m_enc, col_layout.num_blocks):
        raise ShapeError(
            f"row_eps has shape {row_eps.shape}, expected "
            f"{(m_enc, col_layout.num_blocks)}"
        )

    tiles = plan_fused_tiles(row_layout, col_layout, tile_blocks)
    outcome = OnlineFusedOutcome(
        out=out,
        col_disc=np.empty((row_layout.num_blocks, q_enc)),
        row_disc=np.empty((m_enc, col_layout.num_blocks)),
        tiles=tiles,
        tiles_total=len(tiles),
    )

    def run_gemm_tile(bounds: tuple[int, int, int, int]):
        """Compute one tile; returns ``(hot, buf)``.

        ``hot`` is a contiguous array holding the tile's bytes — the
        staging buffer while it is still cache-hot from the GEMM, which
        is what makes the in-loop check cheaper than the separate
        path's strided full-matrix passes.  ``buf`` is the pool buffer
        to recycle once the tile is checked (``None`` without staging).
        """
        i0, i1, j0, j1 = bounds
        dst = out[i0:i1, j0:j1]
        if len(tiles) == 1:
            # Degenerate mode: the separate path's exact GEMM call —
            # bitwise identical bytes.
            matmul(a, b, out=out)
            return out, None
        if pool is not None:
            buf = pool.take((i1 - i0, j1 - j0), out.dtype)
            matmul(a[i0:i1, :], b[:, j0:j1], out=buf)
            dst[...] = buf
            return buf, buf
        matmul(a[i0:i1, :], b[:, j0:j1], out=dst)
        return dst, None

    aborted = False
    for idx, bounds in enumerate(tiles):
        hot, buf = run_gemm_tile(bounds)
        if aborted:
            if buf is not None:
                pool.give(buf)
            continue  # finish the product unchecked after an early abort

        i0, i1, j0, j1 = bounds
        attempt = 0
        while True:
            if inject_hook is not None:
                # Faults are injected into the result view, so the check
                # must read the result view too, not the staging copy.
                inject_hook(idx, attempt, out[i0:i1, j0:j1])
                hot = out[i0:i1, j0:j1]
            t0 = time.perf_counter()
            bad = _tile_bad(
                hot, bounds, row_layout, col_layout,
                col_eps, row_eps, outcome.col_disc, outcome.row_disc,
            )
            outcome.check_seconds += time.perf_counter() - t0
            if not bad:
                break
            if attempt >= max_recomputes:
                outcome.failed_tile = idx
                outcome.early_abort = True
                aborted = True
                break
            if buf is not None:
                pool.give(buf)
            hot, buf = run_gemm_tile(bounds)
            if idx not in outcome.recomputed_tiles:
                outcome.recomputed_tiles.append(idx)
            attempt += 1
        if buf is not None:
            pool.give(buf)
        outcome.tiles_checked += 1
    return outcome
