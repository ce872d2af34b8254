"""Device-side single-error correction kernel.

Algorithm 2's listing ends with "write back error location **or start
correction**".  This kernel implements that correction path on the
simulated device: one thread block per result block re-derives the signed
column discrepancy at every located error position and subtracts it.
It shares that arithmetic with the host-side
:func:`repro.abft.correction.correct_single_error` (both return the same
bytes, in the result's dtype), but runs where the data already lives, so
the corrected matrix never has to round-trip through the host.

The kernel corrects one error per result block (the ABFT single-error
model); blocks with multiple candidate positions are left untouched and
reported, since the intersection is ambiguous there.
"""

from __future__ import annotations

from ..abft.correction import _signed_column_delta
from ..abft.encoding import PartitionedLayout
from ..gpusim.kernel import BlockContext, Dim3, Kernel, LaunchConfig
from ..gpusim.memory import DeviceBuffer

__all__ = ["CorrectionKernel"]


class CorrectionKernel(Kernel):
    """Correct located single errors in a full-checksum result, in place.

    Parameters
    ----------
    c_buf:
        The full-checksum result to patch.
    locations:
        Encoded ``(row, col)`` error positions (from a check report).
    row_layout / col_layout:
        Encoding layouts of the result.
    status_buf:
        Output of shape ``(num_row_blocks, num_col_blocks)``: 0 = clean,
        1 = corrected, 2 = ambiguous (multiple candidates; untouched).
    """

    name = "abft_correct"
    compute_efficiency = 0.10

    def __init__(
        self,
        c_buf: DeviceBuffer,
        locations: list[tuple[int, int]],
        row_layout: PartitionedLayout,
        col_layout: PartitionedLayout,
        status_buf: DeviceBuffer,
    ) -> None:
        expected = (row_layout.encoded_rows, col_layout.encoded_rows)
        if c_buf.shape != expected:
            raise ValueError(f"result buffer shape {c_buf.shape}, expected {expected}")
        status_shape = (row_layout.num_blocks, col_layout.num_blocks)
        if status_buf.shape != status_shape:
            raise ValueError(f"status buffer must have shape {status_shape}")
        self.c_buf = c_buf
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.status_buf = status_buf
        self._by_block: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for row, col in locations:
            key = (row // row_layout.stride, col // col_layout.stride)
            self._by_block.setdefault(key, []).append((row, col))

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig(
            grid=Dim3(
                x=self.col_layout.num_blocks, y=self.row_layout.num_blocks
            ),
            block=Dim3(x=self.col_layout.stride),
        )

    def run_block(self, ctx: BlockContext) -> None:
        key = (ctx.block_idx.y, ctx.block_idx.x)
        status = self.status_buf.array()
        candidates = self._by_block.get(key, [])
        if not candidates:
            status[key] = 0.0
            return
        if len(candidates) > 1:
            status[key] = 2.0
            ctx.stats.flops += 1
            return

        c = self.c_buf.array()
        rows = self.row_layout
        row, col = candidates[0]
        c[row, col] -= _signed_column_delta(c, rows, row, col)
        status[key] = 1.0

        ctx.stats.flops += rows.block_size + 2
        ctx.stats.global_bytes_read += (rows.block_size + 1) * 8
        ctx.stats.global_bytes_written += 16
