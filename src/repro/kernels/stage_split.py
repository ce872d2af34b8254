"""Stage-split kernel entry points for the pipelined batch executor.

The fused host kernels (:mod:`repro.kernels.encode_fused`) process one
operand per invocation.  The stage-pipelined executor
(:mod:`repro.engine.pipeline`) instead works on *chunks* of right
operands at a time, so its encode stage can run on chunk ``i+1`` while
the multiply stage consumes chunk ``i``.  This module provides the
chunk-level entry points that make that overlap safe:

* :func:`encode_b_chunk` concatenates a chunk of right operands along
  their column axis and encodes the concatenation in **one** partitioned
  pass.  Because the padded per-item width is a multiple of the block
  size, every checksum block of the concatenation lies entirely inside
  one item — slicing the concatenated encoding (or its top-p arrays)
  reproduces the per-item encodings bit for bit.  The same block
  locality makes per-item slices of the discrepancy grids of the
  concatenated result bitwise equal to per-item evaluation.

Buffer-aliasing discipline: every pooled buffer used here is obtained by
a fresh :meth:`~repro.engine.plan.WorkspacePool.take` (never handed out
twice while in flight) and is only given back by the pipeline once the
consuming stage has finished with it, so the encode of chunk ``i+1``
can never alias the encoded buffer the multiply of chunk ``i`` is still
reading.  The concatenated raw workspace is recycled *inside*
:func:`encode_b_chunk`; the encoded output is owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..abft.encoding import PartitionedLayout, encode_partitioned_rows
from ..bounds.upper_bound import top_p_arrays
from ..errors import ShapeError

__all__ = ["ChunkEncodedB", "encode_b_chunk"]


@dataclass(frozen=True)
class ChunkEncodedB:
    """One chunk of right operands, encoded as a single concatenation.

    Attributes
    ----------
    encoded:
        The concatenated row-checksum encoding, shape
        ``(n, count * item_width)``.  May be a pooled buffer — the
        pipeline gives it back once the multiply has consumed it.
    layout:
        Partitioned layout of the concatenated encoded columns.
    item_layout:
        Partitioned layout of one item's encoded columns.
    item_width:
        Encoded columns per item (``item_layout.encoded_rows``).
    count:
        Number of right operands in the chunk.
    padding:
        Zero columns appended to each item to reach a block multiple.
    top_values / top_indices:
        Top-p data of every concatenated encoded column, shape
        ``(count * item_width, p)``; rows ``[j*w:(j+1)*w]`` are item
        ``j``'s per-column top-p data.  Always freshly allocated (they
        escape into epsilon providers).
    """

    encoded: np.ndarray
    layout: PartitionedLayout
    item_layout: PartitionedLayout
    item_width: int
    count: int
    padding: int
    top_values: np.ndarray
    top_indices: np.ndarray

    def item_encoded(self, j: int) -> np.ndarray:
        """Item ``j``'s encoded columns (a view of the concatenation)."""
        return self.encoded[:, j * self.item_width : (j + 1) * self.item_width]

    def item_tops(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Item ``j``'s per-column top-p values/indices (views)."""
        lo, hi = j * self.item_width, (j + 1) * self.item_width
        return self.top_values[lo:hi], self.top_indices[lo:hi]


def encode_b_chunk(
    items: list[np.ndarray],
    block_size: int,
    *,
    q: int,
    p: int,
    dtype: np.dtype,
    pool=None,
) -> ChunkEncodedB:
    """Encode a chunk of same-shape right operands in one partitioned pass.

    Parameters
    ----------
    items:
        The raw ``(n, q)`` right operands (dtype-resolved by the caller).
    block_size:
        The partitioned-encoding block size.
    q:
        The unpadded column count every item must have.
    p:
        Top-``p`` depth of the ``aabft`` scheme.
    dtype:
        The resolved computation dtype.
    pool:
        Optional :class:`~repro.engine.plan.WorkspacePool`.  Supplies the
        concatenated raw workspace (recycled before returning) and the
        encoded output buffer (owned by the caller); the top-p outputs
        are always fresh.
    """
    if not items:
        raise ShapeError("encode_b_chunk needs at least one operand")
    n = items[0].shape[0]
    padding = (-q) % block_size
    padded_q = q + padding
    count = len(items)
    item_layout = PartitionedLayout(data_rows=padded_q, block_size=block_size)
    layout = PartitionedLayout(
        data_rows=count * padded_q, block_size=block_size
    )

    # One contiguous concatenation of the (zero-padded) raw operands: the
    # encode reduction and the top-p search then each run once per chunk
    # instead of once per item.
    if pool is not None:
        raw_cat = pool.take((n, count * padded_q), dtype)
    else:
        raw_cat = np.empty((n, count * padded_q), dtype=dtype)
    for j, item in enumerate(items):
        if item.shape != (n, q):
            raise ShapeError(
                f"chunk operands must all be ({n}, {q}), got {item.shape}"
            )
        lo = j * padded_q
        raw_cat[:, lo : lo + q] = item
        if padding:
            raw_cat[:, lo + q : lo + padded_q] = 0.0

    out = None
    if pool is not None:
        out = pool.take((n, layout.encoded_rows), dtype)
    encoded, _ = encode_partitioned_rows(raw_cat, block_size, out=out)
    top_values, top_indices = top_p_arrays(encoded, p, axis=0, pool=pool)
    if pool is not None:
        pool.give(raw_cat)
    return ChunkEncodedB(
        encoded=encoded,
        layout=layout,
        item_layout=item_layout,
        item_width=item_layout.encoded_rows,
        count=count,
        padding=padding,
        top_values=top_values,
        top_indices=top_indices,
    )
