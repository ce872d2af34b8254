"""Checksum encoding for ABFT matrix multiplication (paper Section II).

Two encodings are provided:

* **Full encoding** (Huang/Abraham): one checksum row appended to ``A``
  (column checksums, Eq. 1) and one checksum column appended to ``B`` (row
  checksums, Eq. 2).  Their product is a full-checksum matrix (Eq. 3).

* **Partitioned encoding** (Rexford/Jha, used by A-ABFT): ``A`` and ``B``
  are subdivided into ``BS x BS`` sub-matrices; every block-row of ``A``
  gets a checksum row and every block-column of ``B`` a checksum column.
  The encoded matrices interleave data and checksums, so a single ordinary
  matrix multiplication of the encoded operands yields all full-checksum
  result blocks at once — exactly what the block-based GPU kernels compute.

Layout of the partitioned encoding (``BS = 2`` shown)::

    A (4 x n)            A_cc (6 x n)
    a a a a              a a a a   <- block-row 0 data
    a a a a              a a a a
    b b b b              s s s s   <- checksums of block-row 0
    b b b b              b b b b   <- block-row 1 data
                         b b b b
                         s s s s   <- checksums of block-row 1

Helper predicates/indices make it easy to address data vs. checksum rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EncodingError, ShapeError

__all__ = [
    "encode_column_checksums",
    "encode_row_checksums",
    "encode_full",
    "PartitionedLayout",
    "encode_partitioned_columns",
    "encode_partitioned_rows",
    "encode_partitioned_columns_reference",
    "encode_partitioned_rows_reference",
    "pad_to_block_multiple",
    "strip_encoding",
    "strip_data_rows",
    "strip_data_columns",
]


def encode_column_checksums(a: np.ndarray) -> np.ndarray:
    """Append the column-checksum row (Eq. 1): returns ``(m+1) x n``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    return np.vstack([a, a.sum(axis=0, keepdims=True)])


def encode_row_checksums(b: np.ndarray) -> np.ndarray:
    """Append the row-checksum column (Eq. 2): returns ``n x (q+1)``."""
    b = np.asarray(b)
    if b.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {b.shape}")
    return np.hstack([b, b.sum(axis=1, keepdims=True)])


def encode_full(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode an operand pair with the unpartitioned Huang/Abraham scheme."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    return encode_column_checksums(a), encode_row_checksums(b)


@dataclass(frozen=True)
class PartitionedLayout:
    """Index arithmetic for the interleaved partitioned encoding.

    Parameters
    ----------
    data_rows:
        Number of data rows of the *un-encoded* matrix along the encoded
        axis (``m`` for ``A``'s rows, ``q`` for ``B``'s columns).
    block_size:
        The encoding block size ``BS``.
    """

    data_rows: int
    block_size: int

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise EncodingError(f"block size must be >= 1, got {self.block_size}")
        if self.data_rows < 1:
            raise EncodingError(f"need at least one data row, got {self.data_rows}")
        if self.data_rows % self.block_size != 0:
            raise EncodingError(
                f"{self.data_rows} data rows not divisible by block size "
                f"{self.block_size}; pad first (see pad_to_block_multiple)"
            )

    @property
    def num_blocks(self) -> int:
        """Number of ``BS``-row blocks along the encoded axis."""
        return self.data_rows // self.block_size

    @property
    def encoded_rows(self) -> int:
        """Total rows of the encoded matrix: ``data_rows + num_blocks``."""
        return self.data_rows + self.num_blocks

    @property
    def stride(self) -> int:
        """Rows per encoded block: ``BS`` data rows + 1 checksum row."""
        return self.block_size + 1

    def checksum_index(self, block: int) -> int:
        """Encoded index of the checksum row of ``block``."""
        if not 0 <= block < self.num_blocks:
            raise IndexError(f"block {block} out of range 0..{self.num_blocks - 1}")
        return block * self.stride + self.block_size

    def data_indices(self, block: int) -> np.ndarray:
        """Encoded indices of the data rows of ``block``."""
        if not 0 <= block < self.num_blocks:
            raise IndexError(f"block {block} out of range 0..{self.num_blocks - 1}")
        start = block * self.stride
        return np.arange(start, start + self.block_size)

    def all_checksum_indices(self) -> np.ndarray:
        """Encoded indices of every checksum row."""
        return np.arange(self.num_blocks) * self.stride + self.block_size

    def checksum_slice(self) -> slice:
        """:meth:`all_checksum_indices` as a slice (basic indexing, no
        copy).  It also picks every checksum vector out of several such
        layouts stacked end to end."""
        return slice(self.block_size, None, self.stride)

    def all_data_indices(self) -> np.ndarray:
        """Encoded indices of every data row, in original order."""
        mask = np.ones(self.encoded_rows, dtype=bool)
        mask[self.all_checksum_indices()] = False
        return np.flatnonzero(mask)

    def is_checksum_index(self, encoded_index: int) -> bool:
        """Whether an encoded row index addresses a checksum row."""
        if not 0 <= encoded_index < self.encoded_rows:
            raise IndexError(
                f"encoded index {encoded_index} out of range 0..{self.encoded_rows - 1}"
            )
        return encoded_index % self.stride == self.block_size

    def to_data_index(self, encoded_index: int) -> int:
        """Original (un-encoded) row index of an encoded data row."""
        if self.is_checksum_index(encoded_index):
            raise EncodingError(
                f"encoded index {encoded_index} is a checksum row"
            )
        block, offset = divmod(encoded_index, self.stride)
        return block * self.block_size + offset

    def to_encoded_index(self, data_index: int) -> int:
        """Encoded row index of an original data row."""
        if not 0 <= data_index < self.data_rows:
            raise IndexError(
                f"data index {data_index} out of range 0..{self.data_rows - 1}"
            )
        block, offset = divmod(data_index, self.block_size)
        return block * self.stride + offset


def encode_partitioned_columns(
    a: np.ndarray, block_size: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, PartitionedLayout]:
    """Partitioned column-checksum encoding of ``A`` (checksum rows).

    Every ``BS``-row block is followed by the column sums of that block.
    Computed with one block-reshaped copy and one block-reshaped reduction
    over the whole matrix; bitwise identical to
    :func:`encode_partitioned_columns_reference` (the numpy accumulation
    order per checksum element is the same sequential walk over the block's
    rows).  ``out``, when given, receives the encoding in place — it must
    be a C-contiguous ``(encoded_rows, n)`` array of ``a``'s dtype (the
    engine passes a pooled workspace here).
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    layout = PartitionedLayout(data_rows=a.shape[0], block_size=block_size)
    n = a.shape[1]
    if out is None:
        out = np.empty((layout.encoded_rows, n), dtype=a.dtype)
    elif out.shape != (layout.encoded_rows, n) or out.dtype != a.dtype:
        raise ShapeError(
            f"out must be {(layout.encoded_rows, n)} of {a.dtype}, got "
            f"{out.shape} of {out.dtype}"
        )
    view = out.reshape(layout.num_blocks, layout.stride, n)
    blocks = a.reshape(layout.num_blocks, block_size, n)
    view[:, :block_size, :] = blocks
    np.sum(blocks, axis=1, out=view[:, block_size, :])
    return out, layout


def encode_partitioned_rows(
    b: np.ndarray, block_size: int, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, PartitionedLayout]:
    """Partitioned row-checksum encoding of ``B`` (checksum columns).

    Every ``BS``-column block is followed by the row sums of that block.
    The returned layout indexes the encoded *columns*.  Computed directly
    in the row dimension of ``b`` — no transpose round-trip — and bitwise
    identical to :func:`encode_partitioned_rows_reference`.
    """
    b = np.asarray(b)
    if b.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {b.shape}")
    layout = PartitionedLayout(data_rows=b.shape[1], block_size=block_size)
    rows = b.shape[0]
    if out is None:
        out = np.empty((rows, layout.encoded_rows), dtype=b.dtype)
    elif out.shape != (rows, layout.encoded_rows) or out.dtype != b.dtype:
        raise ShapeError(
            f"out must be {(rows, layout.encoded_rows)} of {b.dtype}, got "
            f"{out.shape} of {out.dtype}"
        )
    view = out.reshape(rows, layout.num_blocks, layout.stride)
    blocks = b.reshape(rows, layout.num_blocks, block_size)
    view[:, :, :block_size] = blocks
    np.sum(blocks, axis=2, out=view[:, :, block_size])
    return out, layout


def encode_partitioned_columns_reference(
    a: np.ndarray, block_size: int
) -> tuple[np.ndarray, PartitionedLayout]:
    """Per-block loop encoding of ``A`` — the oracle for the fast kernel."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    layout = PartitionedLayout(data_rows=a.shape[0], block_size=block_size)
    out = np.empty((layout.encoded_rows, a.shape[1]), dtype=a.dtype)
    for blk in range(layout.num_blocks):
        rows = slice(blk * block_size, (blk + 1) * block_size)
        out[layout.data_indices(blk), :] = a[rows, :]
        out[layout.checksum_index(blk), :] = a[rows, :].sum(axis=0)
    return out, layout


def encode_partitioned_rows_reference(
    b: np.ndarray, block_size: int
) -> tuple[np.ndarray, PartitionedLayout]:
    """Transpose round-trip encoding of ``B`` — the oracle for the fast kernel."""
    b = np.asarray(b)
    if b.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {b.shape}")
    encoded_t, layout = encode_partitioned_columns_reference(b.T, block_size)
    return np.ascontiguousarray(encoded_t.T), layout


def strip_encoding(
    c_fc: np.ndarray,
    row_layout: PartitionedLayout,
    col_layout: PartitionedLayout,
    rows_added: int = 0,
    cols_added: int = 0,
) -> np.ndarray:
    """Extract the data result from a full-checksum matrix.

    Removes the checksum rows/columns addressed by the layouts and strips
    the zero padding that :func:`pad_to_block_multiple` appended, returning
    what an unprotected ``a @ b`` would have produced (contiguous copy).
    """
    c_fc = np.asarray(c_fc)
    expected = (row_layout.encoded_rows, col_layout.encoded_rows)
    if c_fc.shape == expected:
        # Fast path: the 4-D block view gathers every data element with two
        # strided slices instead of a fancy-index pass per axis (~13x).
        view = c_fc.reshape(
            row_layout.num_blocks, row_layout.stride,
            col_layout.num_blocks, col_layout.stride,
        )[:, : row_layout.block_size, :, : col_layout.block_size]
        data = np.empty(
            (row_layout.data_rows, col_layout.data_rows), dtype=c_fc.dtype
        )
        data.reshape(view.shape)[...] = view
    else:
        data = c_fc[
            np.ix_(row_layout.all_data_indices(), col_layout.all_data_indices())
        ]
    rows = data.shape[0] - rows_added
    cols = data.shape[1] - cols_added
    return np.ascontiguousarray(data[:rows, :cols])


def strip_data_rows(
    encoded: np.ndarray, layout: PartitionedLayout
) -> np.ndarray:
    """The data rows of a column-checksum encoded matrix, in original order.

    The block-view equivalent of ``encoded[layout.all_data_indices()]``
    without the fancy-index gather (contiguous copy).
    """
    encoded = np.asarray(encoded)
    if encoded.shape[0] != layout.encoded_rows:
        raise ShapeError(
            f"encoded matrix has {encoded.shape[0]} rows, layout expects "
            f"{layout.encoded_rows}"
        )
    bs = layout.block_size
    cols = encoded.shape[1]
    view = encoded.reshape(layout.num_blocks, layout.stride, cols)[:, :bs, :]
    out = np.empty((layout.data_rows, cols), dtype=encoded.dtype)
    out.reshape(view.shape)[...] = view
    return out


def strip_data_columns(
    encoded: np.ndarray, layout: PartitionedLayout
) -> np.ndarray:
    """The data columns of a row-checksum encoded matrix, in original order.

    The block-view equivalent of ``encoded[:, layout.all_data_indices()]``
    without the fancy-index gather (contiguous copy).
    """
    encoded = np.asarray(encoded)
    if encoded.shape[1] != layout.encoded_rows:
        raise ShapeError(
            f"encoded matrix has {encoded.shape[1]} columns, layout expects "
            f"{layout.encoded_rows}"
        )
    bs = layout.block_size
    rows = encoded.shape[0]
    view = encoded.reshape(rows, layout.num_blocks, layout.stride)[:, :, :bs]
    out = np.empty((rows, layout.data_rows), dtype=encoded.dtype)
    out.reshape(view.shape)[...] = view
    return out


def pad_to_block_multiple(
    matrix: np.ndarray, block_size: int, axis: int | tuple[int, ...] = (0, 1)
) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-pad ``matrix`` so the chosen axes are multiples of ``block_size``.

    Returns the padded matrix and the ``(rows_added, cols_added)`` amounts so
    callers can strip the padding from results.  Zero padding is exact for
    checksum arithmetic: padded rows/columns contribute nothing.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {matrix.shape}")
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    pad_rows = pad_cols = 0
    if 0 in axes:
        pad_rows = (-matrix.shape[0]) % block_size
    if 1 in axes:
        pad_cols = (-matrix.shape[1]) % block_size
    if pad_rows == 0 and pad_cols == 0:
        return matrix, (0, 0)
    return (
        np.pad(matrix, ((0, pad_rows), (0, pad_cols)), mode="constant"),
        (pad_rows, pad_cols),
    )
