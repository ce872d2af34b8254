"""Register-tiled matrix multiplication — Algorithm 3, structure-faithful.

:class:`~repro.kernels.matmul.BlockMatmulKernel` preserves what the
experiments observe (block->SM mapping, k-sequential accumulation of the
struck element).  This kernel goes further and mirrors Algorithm 3's
*loop structure* exactly:

* one thread block computes a ``BM x BN`` block of ``C``;
* the inner dimension advances in ``BK``-wide shared-memory slices
  (``smA[BK][BM]``, ``smB[BK][BN]``), with an outer ``while K > 0`` loop
  and an inner ``ki`` loop;
* each thread owns an ``RX x RY`` register tile ``accum``; per ``ki`` it
  loads ``rA[RX]`` / ``rB[RY]`` and performs the rank-1 update;
* the three fault-injection points are exactly the paper's: the inner-loop
  multiplication, the inner-loop accumulation, and the final merge of
  ``accum`` into ``C`` — ``errorVecMult`` / ``errorVecAdd1`` /
  ``errorVecAdd2`` in the listing.

All threads execute in lockstep (SIMD), so the whole block's rank-1 update
per ``ki`` is one vectorised outer product — numerically identical to every
thread's sequential k-order.  The struck element is patched scalar-exactly
at its ``kInjection``.
"""

from __future__ import annotations

import numpy as np

from ..faults.injector import FaultInjector
from ..faults.model import FaultSite
from ..gpusim.kernel import BlockContext, Dim3, Kernel, LaunchConfig

__all__ = ["RegisterTiledMatmulKernel"]


class RegisterTiledMatmulKernel(Kernel):
    """Algorithm 3 with explicit BM/BN/BK/RX/RY tiling.

    Parameters
    ----------
    a_buf / b_buf / c_buf:
        Device buffers; ``C (M x Q) = A (M x N) @ B (N x Q)``.
    bm, bn:
        Result-block dimensions per thread block (must divide M / Q).
    bk:
        Shared-memory slice width along the inner dimension.
    rx, ry:
        Register-tile dimensions per thread (must divide bm / bn).
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; its module
        offsets address the register tile of the struck thread, exactly as
        the paper's ``module-ID`` parameter selects "which of the
        ``RX x RY`` adders or multipliers shall be affected".
    """

    name = "matmul_tiled"
    compute_efficiency = 0.90

    def __init__(
        self,
        a_buf,
        b_buf,
        c_buf,
        bm: int = 32,
        bn: int = 32,
        bk: int = 8,
        rx: int = 4,
        ry: int = 4,
        injector: FaultInjector | None = None,
    ) -> None:
        m, n = a_buf.shape
        n2, q = b_buf.shape
        if n != n2:
            raise ValueError(f"inner dimensions disagree: {a_buf.shape} x {b_buf.shape}")
        if c_buf.shape != (m, q):
            raise ValueError(f"result buffer shape {c_buf.shape}, expected {(m, q)}")
        if m % bm or q % bn:
            raise ValueError(f"result {m}x{q} not divisible into {bm}x{bn} blocks")
        if bm % rx or bn % ry:
            raise ValueError(
                f"block {bm}x{bn} not divisible into {rx}x{ry} register tiles"
            )
        if bk < 1:
            raise ValueError("bk must be >= 1")
        self.a_buf = a_buf
        self.b_buf = b_buf
        self.c_buf = c_buf
        self.bm, self.bn, self.bk = bm, bn, bk
        self.rx, self.ry = rx, ry
        self.injector = injector

    def launch_config(self) -> LaunchConfig:
        m, _ = self.a_buf.shape
        _, q = self.b_buf.shape
        threads = (self.bm // self.rx) * (self.bn // self.ry)
        return LaunchConfig(
            grid=Dim3(x=q // self.bn, y=m // self.bm),
            block=Dim3(x=min(threads, 1024)),
        )

    # ------------------------------------------------------------------
    def _target_element(self, ctx: BlockContext) -> tuple[int, int] | None:
        """Struck element's (row, col) within this block, if any."""
        injector = self.injector
        if injector is None or not injector.targets_block(ctx.linear_block_index):
            return None
        act = injector.activation
        # The module offsets address the register tile of the struck
        # thread; the thread itself was folded into element_row/col by the
        # injector's resolution against the block shape.
        return act.element_row % self.bm, act.element_col % self.bn

    def run_block(self, ctx: BlockContext) -> None:
        a = self.a_buf.array()
        b = self.b_buf.array()
        c = self.c_buf.array()
        n = a.shape[1]
        bm, bn, bk = self.bm, self.bn, self.bk

        row0 = ctx.block_idx.y * bm
        col0 = ctx.block_idx.x * bn
        sm_a = ctx.shared.declare("smA", (bk, bm))
        sm_b = ctx.shared.declare("smB", (bk, bn))

        accum = np.zeros((bm, bn))
        target = self._target_element(ctx)
        injector = self.injector

        k = 0
        while k < n:  # the listing's `while K > 0` outer loop
            width = min(bk, n - k)
            sm_a[:width, :] = a[row0 : row0 + bm, k : k + width].T
            sm_b[:width, :] = b[k : k + width, col0 : col0 + bn]
            for ki in range(width):
                r_a = sm_a[ki, :]  # one column of A's slice
                r_b = sm_b[ki, :]  # one row of B's slice
                global_k = k + ki
                if target is None:
                    accum += np.outer(r_a, r_b)
                    continue
                tr, tc = target
                prod = r_a[tr] * r_b[tc]
                old = accum[tr, tc]
                accum += np.outer(r_a, r_b)
                # Redo the struck element scalar-exactly so the injector's
                # hooks fire in the listing's order (mult, then add1) with
                # the thread's true sequential rounding.
                if injector.strikes(FaultSite.INNER_MUL, global_k):
                    prod = injector.apply(prod)
                accum[tr, tc] = old + prod
                if injector.strikes(FaultSite.INNER_ADD, global_k):
                    accum[tr, tc] = injector.apply(accum[tr, tc])
            k += width

        # Merge accum into C (errorVecAdd2 in the listing).
        if target is not None and injector.strikes(FaultSite.MERGE_ADD):
            tr, tc = target
            accum[tr, tc] = injector.apply(accum[tr, tc])
        c[row0 : row0 + bm, col0 : col0 + bn] = accum

        ctx.stats.flops += 2 * bm * bn * n
        ctx.stats.global_bytes_read += (bm + bn) * n * 8
        ctx.stats.global_bytes_written += bm * bn * 8
