"""Stage-split kernel entry points for the pipelined batch executor.

The fused host kernels (:mod:`repro.kernels.encode_fused`) process one
operand per invocation.  The stage-pipelined executor
(:mod:`repro.engine.pipeline`) instead works on *chunks* of right
operands at a time, so its encode stage can run on chunk ``i+1`` while
the multiply stage consumes chunk ``i``.  This module provides the
chunk-level entry points that make that overlap safe:

* :func:`encode_b_chunk` concatenates a chunk of right operands along
  their column axis, zero-pads each to a block multiple and encodes the
  concatenation in **one** pass.  It writes only the encoded columns that
  carry data or checksums (the *compact* operand, ``q + ceil(q/BS)``
  columns per item): a padding column is all zeros, so its product
  column, its top-p data and its place in the encoding are known without
  computing them.  Checksums still sum each zero-padded ``BS``-column
  block, as the per-item encode does.  Because the padded per-item width
  is a multiple of the block size, every checksum block of the
  concatenation lies entirely inside one item — slicing the encoding (or
  its top-p arrays) reproduces the per-item encodings bit for bit.  The
  same block locality makes per-item slices of the discrepancy grids of
  the concatenated result bitwise equal to per-item evaluation.
* :class:`ColumnMap` describes the columns a product holds per item and
  reads the product in place: each item's data block (one copy per
  product), its checksum columns, and its full-width (interleaved)
  ``c_fc``, built on request with ``+0.0`` in the padding columns.

Buffer-aliasing discipline: every pooled buffer used here is obtained by
a fresh :meth:`~repro.engine.plan.WorkspacePool.take` (never handed out
twice while in flight) and is only given back by the pipeline once the
consuming stage has finished with it, so the encode of chunk ``i+1``
can never alias the operands the multiply of chunk ``i`` is still
reading.  The concatenated raw workspace is recycled *inside*
:func:`encode_b_chunk`; the encoded operands are owned by the caller
(:meth:`ChunkEncodedB.release`).  Products and the arrays read out of
them escape into results, so none of them is pooled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..bounds.upper_bound import top_p_arrays
from ..errors import ShapeError

__all__ = ["ChunkEncodedB", "ColumnMap", "column_map", "encode_b_chunk"]


@dataclass(frozen=True)
class ColumnMap:
    """Which of each chunk item's encoded columns a concatenated GEMM
    multiplies, and so which columns its product holds.

    An item has ``width`` encoded columns: its ``BS``-column blocks, each
    followed by its checksum column.  When ``q`` is not a block multiple
    the last block ends in ``BS - q mod BS`` zero padding columns.  The
    map keeps the item's first ``lead`` columns — every full block with
    its checksum, then the last block's real columns — and, when the last
    block is padded, the item's last column (that block's checksum).
    The identity map keeps every column.
    """

    count: int
    width: int
    lead: int

    @property
    def kept(self) -> int:
        """Columns kept per item."""
        return self.lead + (self.lead < self.width)

    @property
    def identity(self) -> bool:
        return self.lead == self.width

    @property
    def full(self) -> ColumnMap:
        """The identity map of the same items."""
        return ColumnMap(self.count, self.width, self.width)

    def spread(
        self,
        compact: np.ndarray,
        *,
        axis: int = 1,
        fill=0.0,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``compact``'s kept columns (``axis=0``: rows) at their
        full-width places, with ``fill`` in every padding position.

        ``out`` (C-contiguous, full width) receives the result; by
        default a fresh array does.  The identity map returns
        ``compact`` itself.
        """
        if self.identity:
            return compact
        pre, post = compact.shape[:axis], compact.shape[axis + 1 :]
        if out is None:
            out = np.empty(pre + (self.count * self.width,) + post, compact.dtype)
        src = compact.reshape(pre + (self.count, self.kept) + post)
        dst = out.reshape(pre + (self.count, self.width) + post)
        items = (slice(None),) * (axis + 1)  # every leading index, every item
        dst[items + (slice(0, self.lead),)] = src[items + (slice(0, self.lead),)]
        dst[items + (slice(self.lead, -1),)] = fill
        dst[items + (-1,)] = src[items + (-1,)]
        return out

    def item(self, product: np.ndarray, j: int) -> np.ndarray:
        """Item ``j``'s full-width encoded columns of ``product``: a view
        under the identity map, else a fresh array with ``+0.0`` padding
        (what the GEMM of a zero column gives)."""
        kept = product[:, j * self.kept : (j + 1) * self.kept]
        return kept if self.identity else replace(self, count=1).spread(kept)

    def checksums(self, block_size: int) -> np.ndarray:
        """Positions of every item's checksum columns among the kept ones
        (block order, item by item; cached, read-only)."""
        return _checksum_positions(self, block_size)

    def data(
        self,
        product: np.ndarray,
        q: int,
        row_layout: PartitionedLayout,
        rows: int,
    ) -> np.ndarray:
        """The data elements of ``product`` in one copy: shape ``(items,
        rows, q)``, each item's block C-contiguous.

        ``product`` holds ``product.shape[1] // kept`` items; ``q`` is an
        item's unpadded data columns, ``rows`` the unpadded data rows of
        the product's ``row_layout`` (the copy leaves the padding rows
        out).  A kept column's position in its item does not depend on
        the map, so one gather serves both.
        """
        bs = row_layout.block_size
        items = product.shape[1] // self.kept
        src = product.reshape(
            row_layout.num_blocks, row_layout.stride, items, self.kept
        )
        src = src[:, :bs].transpose(2, 0, 1, 3)  # item, row block, row, column
        out = np.empty((items, rows, q), product.dtype)
        whole, rest = divmod(rows, bs)
        if whole:  # row blocks without padding rows
            dst = out[:, : whole * bs].reshape(items, whole, bs, q)
            _copy_data_columns(src[:, :whole], dst, bs)
        if rest:  # the last row block's real rows
            _copy_data_columns(src[:, whole, :rest], out[:, whole * bs :], bs)
        return out


def _copy_data_columns(src: np.ndarray, dst: np.ndarray, bs: int) -> None:
    """Copy the data columns among ``src``'s kept columns (last axis)
    into ``dst``'s ``q`` columns."""
    q = dst.shape[-1]
    stride = bs + 1
    whole, rest = divmod(q, bs)
    if whole:  # each full block's BS data columns
        blocks_in = src[..., : whole * stride].reshape(src.shape[:-1] + (whole, stride))
        blocks_out = dst[..., : whole * bs].reshape(dst.shape[:-1] + (whole, bs))
        blocks_out[...] = blocks_in[..., :bs]
    if rest:  # the last block's real columns
        dst[..., whole * bs :] = src[..., whole * stride : whole * stride + rest]


@lru_cache(maxsize=256)
def _checksum_positions(columns: ColumnMap, block_size: int) -> np.ndarray:
    stride = block_size + 1
    one = np.arange(columns.width // stride) * stride + block_size
    one[-1] = columns.kept - 1  # a padded last block's checksum ends its real columns
    positions = (np.arange(columns.count)[:, None] * columns.kept + one).ravel()
    positions.flags.writeable = False
    return positions


@lru_cache(maxsize=256)
def column_map(q: int, block_size: int, count: int) -> ColumnMap:
    """The compact column map of a chunk of ``count`` items with ``q``
    columns each (cached: one map per shape and chunk width)."""
    padding = (-q) % block_size
    width = PartitionedLayout(q + padding, block_size).encoded_rows
    return ColumnMap(count=count, width=width, lead=width - padding - (padding > 0))


@dataclass(frozen=True)
class ChunkEncodedB:
    """One chunk of right operands, encoded as a single concatenation.

    Attributes
    ----------
    compact:
        The concatenated encoding's kept columns (:attr:`columns`), shape
        ``(n, count * columns.kept)``.
    encoded:
        The full-width concatenated encoding, shape ``(n, count *
        item_width)``, or ``None`` when it was not asked for; it *is*
        :attr:`compact` when no item is padded.  Both may be pooled
        buffers (:meth:`release`).
    columns:
        The compact :class:`ColumnMap` of the chunk (its ``count`` items
        of ``width`` encoded columns each).
    padding:
        Zero columns appended to each item to reach a block multiple.
    top_values / top_indices:
        Top-p data of every full-width encoded column, shape
        ``(count * item_width, p)``; rows ``[j*w:(j+1)*w]`` are item
        ``j``'s per-column top-p data.  Always freshly allocated (they
        escape into epsilon providers).
    compact_tops:
        ``(values, indices)``: the top-p data of the :attr:`compact`
        columns, the rows of :attr:`top_values` / :attr:`top_indices`
        the map keeps.
    """

    compact: np.ndarray
    encoded: np.ndarray | None
    columns: ColumnMap
    padding: int
    top_values: np.ndarray
    top_indices: np.ndarray
    compact_tops: tuple[np.ndarray, np.ndarray]

    @property
    def item_width(self) -> int:
        """Encoded columns per item."""
        return self.columns.width

    def item_encoded(self, j: int) -> np.ndarray:
        """Item ``j``'s full-width encoded columns (a view)."""
        return self.encoded[:, j * self.item_width : (j + 1) * self.item_width]

    def item_tops(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Item ``j``'s per-column top-p values/indices (views)."""
        lo, hi = j * self.item_width, (j + 1) * self.item_width
        return self.top_values[lo:hi], self.top_indices[lo:hi]

    def operand(self, full: bool) -> tuple[np.ndarray, ColumnMap]:
        """The right operand a concatenated GEMM multiplies and the map
        of its product's columns: the compact columns, or every column
        (built only on request)."""
        if not full:
            return self.compact, self.columns
        return self.encoded, self.columns.full

    def release(self, pool) -> None:
        """Give the pooled operand buffers back."""
        pool.give(self.compact)
        if self.encoded is not self.compact:
            pool.give(self.encoded)


def encode_b_chunk(
    items: list[np.ndarray],
    block_size: int,
    *,
    q: int,
    p: int,
    dtype: np.dtype,
    pool=None,
    full: bool = False,
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
        encoded operand buffers (owned by the caller); the top-p outputs
        are always fresh.
    full:
        Also build the full-width encoding (:attr:`ChunkEncodedB.encoded`).
    """
    if not items:
        raise ShapeError("encode_b_chunk needs at least one operand")
    n = items[0].shape[0]
    padding = (-q) % block_size
    padded_q = q + padding
    count = len(items)
    item_blocks = padded_q // block_size
    columns = column_map(q, block_size, count)

    def take(shape):
        return np.empty(shape, dtype) if pool is None else pool.take(shape, dtype)

    # One contiguous concatenation of the zero-padded raw operands: the
    # checksum reduction and the top-p search then each run once per
    # chunk instead of once per item.
    raw_cat = take((n, count * padded_q))
    for j, item in enumerate(items):
        if item.shape != (n, q):
            raise ShapeError(
                f"chunk operands must all be ({n}, {q}), got {item.shape}"
            )
        lo = j * padded_q
        raw_cat[:, lo : lo + q] = item
        if padding:
            raw_cat[:, lo + q : lo + padded_q] = 0.0

    # The kept columns, block by block: whole blocks with their checksum
    # columns, then the padded last block's real columns and checksum.
    # Every checksum sums its whole zero-padded block, as the per-item
    # encode does (a sum over the real columns alone groups differently).
    compact = take((n, count * columns.kept))
    stride = block_size + 1
    blocks = raw_cat.reshape(n, count, item_blocks, block_size)
    kept = compact.reshape(n, count, columns.kept)
    whole = item_blocks - (padding > 0)
    if whole:
        out = kept[:, :, : whole * stride].reshape(n, count, whole, stride)
        out[..., :block_size] = blocks[:, :, :whole]
        np.sum(blocks[:, :, :whole], axis=3, out=out[..., block_size])
    if padding:
        last = blocks[:, :, -1]
        kept[:, :, whole * stride : -1] = last[..., : block_size - padding]
        np.sum(last, axis=2, out=kept[:, :, -1])
    if pool is not None:
        pool.give(raw_cat)

    # A padding column's top-p is an all-zero column's: values 0.0 at
    # indices 0..p-1 (ties resolve to the lowest index).
    values, indices = top_p_arrays(compact, p, axis=0, pool=pool)
    encoded = None
    if full:
        encoded = compact
        if not columns.identity:
            encoded = columns.spread(compact, out=take((n, count * columns.width)))
    return ChunkEncodedB(
        compact=compact,
        encoded=encoded,
        columns=columns,
        padding=padding,
        top_values=columns.spread(values, axis=0),
        top_indices=columns.spread(indices, axis=0, fill=np.arange(p)),
        compact_tops=(values, indices),
    )
