"""Chunk encoding for the pipelined executor: the compact column map.

Each chunk item keeps only the encoded columns that carry data or
checksums; everything here is numpy reductions and copies, so these
tests hold whatever the BLAS.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import AbftConfig, MatmulEngine
from repro.kernels.stage_split import ColumnMap, column_map, encode_b_chunk

BS = 64
QS = (1, 16, 63, 64, 65, 80, 130)
DTYPES = (np.float64, np.float32)


def chunk_items(q, dtype, count=3, n=72, seed=0):
    rng = np.random.default_rng(seed + q)
    return [rng.uniform(-1, 1, (n, q)).astype(dtype) for _ in range(count)]


def padding_columns(q) -> np.ndarray:
    """An item's padding columns in its full-width encoding."""
    lead = column_map(q, BS, 1).lead
    return np.arange(lead, lead + (-q) % BS)


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestColumnMap:
    @pytest.mark.parametrize("q", QS)
    def test_keeps_data_and_checksum_columns(self, q):
        cols = column_map(q, BS, 5)
        blocks = -(-q // BS)
        assert cols.count == 5
        assert cols.width == blocks * (BS + 1)
        assert cols.kept == q + blocks
        assert cols.identity == (q % BS == 0)
        assert len(padding_columns(q)) == (-q) % BS

    def test_built_once_per_shape_and_width(self):
        assert column_map(16, BS, 8) is column_map(16, BS, 8)
        assert column_map(16, BS, 8) is not column_map(16, BS, 4)

    def test_spread_places_columns_and_fills_padding(self):
        # two items of q=3 at BS=4: encoded [d d d pad cs], kept [d d d cs]
        cols = ColumnMap(count=2, width=5, lead=3)
        compact = np.arange(1.0, 17.0).reshape(2, 8)
        full = cols.spread(compact)
        assert full.tolist() == [
            [1, 2, 3, 0, 4, 5, 6, 7, 0, 8],
            [9, 10, 11, 0, 12, 13, 14, 15, 0, 16],
        ]
        rows = cols.spread(compact.T, axis=0, fill=-1.0)
        assert rows.T.tolist() == [
            [1, 2, 3, -1, 4, 5, 6, 7, -1, 8],
            [9, 10, 11, -1, 12, 13, 14, 15, -1, 16],
        ]

    def test_identity_map_returns_its_input(self):
        cols = column_map(64, BS, 2)
        compact = np.ones((3, 2 * cols.kept))
        assert cols.spread(compact) is compact


class TestEncodeChunk:
    """The chunk's compact operand and top-p data are the per-item
    encodings' bytes, padding and all."""

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("q", QS)
    def test_item_tops_equal_per_item_encode(self, q, p, dtype):
        items = chunk_items(q, dtype)
        enc = encode_b_chunk(items, BS, q=q, p=p, dtype=np.dtype(dtype))
        engine = MatmulEngine(AbftConfig(p=p))
        for j, b in enumerate(items):
            handle = engine.encode(b, side="b")
            values, indices = enc.item_tops(j)
            assert same_bytes(values, handle.top_values)
            assert same_bytes(indices, handle.top_indices)
        # a padding column's top-p is an all-zero column's
        pad = padding_columns(q)
        if pad.size:
            values, indices = enc.item_tops(0)
            assert not np.signbit(values[pad]).any()
            assert (values[pad] == 0.0).all()
            assert (indices[pad] == np.arange(p)).all()

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("q", QS)
    def test_compact_operand_is_the_non_padding_columns(self, q, dtype):
        items = chunk_items(q, dtype, seed=1)
        enc = encode_b_chunk(items, BS, q=q, p=2, dtype=np.dtype(dtype), full=True)
        engine = MatmulEngine()
        kept = enc.columns.kept
        assert enc.compact.shape == (72, len(items) * (q + -(-q // BS)))
        for j, b in enumerate(items):
            handle = engine.encode(b, side="b")
            compact = np.delete(handle.array, padding_columns(q), axis=1)
            assert same_bytes(enc.compact[:, j * kept : (j + 1) * kept], compact)
            assert same_bytes(enc.item_encoded(j), handle.array)

    def test_full_width_encoding_only_on_request(self):
        items = chunk_items(16, np.float64)
        assert encode_b_chunk(items, BS, q=16, p=2, dtype=np.dtype(np.float64)).encoded is None
        unpadded = chunk_items(64, np.float64)
        enc = encode_b_chunk(unpadded, BS, q=64, p=2, dtype=np.dtype(np.float64), full=True)
        assert enc.encoded is enc.compact  # nothing to pad: one buffer

    def test_operands_per_candidate(self):
        items = chunk_items(16, np.float64)
        enc = encode_b_chunk(items, BS, q=16, p=2, dtype=np.dtype(np.float64), full=True)
        b, cols = enc.operand(full=False)
        assert b is enc.compact and cols is enc.columns
        b, cols = enc.operand(full=True)
        assert b is enc.encoded and cols.identity and cols.width == enc.item_width
