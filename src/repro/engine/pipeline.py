"""Stage-pipelined batch execution.

The A-ABFT flow is inherently three-staged — encode, multiply, check.
This module, the engine's one batched execution mode, executes a batch
as a sequence of *chunks* walked in one loop.  When the batch overlaps,
encode slots are prefetched onto the engine's thread pool up to a
bounded window, the caller thread runs the multiplies, and each chunk's
check is submitted to the pool to drain while the next chunk multiplies
(slot order ``E0 E1 E2 M0 C0 E3 M1 C1 …``) — the paper's overlap of the
top-p reduction with the GEMM on a concurrent stream (Section V-A), on
host threads.  Otherwise every slot runs inline in ``E M C`` order.

Whether to overlap is a fixed property of the batch's shape, not of the
engine's history: the engine needs two or more workers, the batch two or
more chunks, and one item's encoded GEMM at least
``_OVERLAP_MIN_FLOPS``.  Below that the thread hand-offs cost more than
the overlap saves.

Even without thread overlap the chunked execution wins: every distinct
left operand is encoded once for the whole batch, and each chunk's right
operands are concatenated column-wise so the encode reduction, the GEMM,
the discrepancy kernels and the tolerance-grid evaluation each run *once
per chunk* instead of once per pair.

**Bitwise identity is the hard invariant.**  Per-item slices of the
concatenated encode/check reductions are block-local, and the tolerance
grids are elementwise in the top-p data — but a concatenated GEMM is
*not* guaranteed to slice into the per-item GEMM bytes (BLAS kernel
selection depends on operand shapes).  The executor therefore
dual-computes the **first** chunk of every chunk width of a plan along
both the concatenated and the per-item reference path and compares
every artifact — encoded slices, top-p data, result bytes,
discrepancies.  Only a byte-identical probe enables the concatenated
path for that width; any mismatch pins the width to the per-item
reference path (counted in ``abft_pipeline_fallbacks_total``), which
encodes and multiplies each pair exactly as
:meth:`~repro.engine.MatmulEngine.matmul` does.  The verdicts live on
the :class:`~repro.engine.plan.ExecutionPlan`, so they go when the plan
is evicted.  Tolerance grids are elementwise in the top-p data, so both
paths build one grid per chunk and slice it per item.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..abft.checking import (
    column_discrepancies,
    decide_checks,
    item_grids,
    row_discrepancies,
)
from ..abft.encoding import strip_encoding
from ..abft.providers import AABFTToleranceGrids
from ..abft.result import AbftResult
from ..kernels.stage_split import ChunkEncodedB, encode_b_chunk
from ..telemetry import span

__all__ = ["pipeline_supported", "run_pipelined"]

#: Encode-prefetched chunks kept in flight ahead of the multiply lane.
_WINDOW = 3
#: One item's encoded GEMM flops from which a batch overlaps its stages.
#: On a two-worker host with one BLAS thread, 256x256 @ 256x16 float64
#: items (8.65 Mflop encoded) ran faster overlapped and 128x128 @ 128x16
#: items (2.16 Mflop) faster inline; 2**22 sits about 2x from each.
_OVERLAP_MIN_FLOPS = 2**22


def pipeline_supported(a_items, b_items, cfg) -> bool:
    """Whether the pipelined executor applies to this expanded batch.

    Needs the ``aabft`` scheme without an explicit storage dtype (the
    serial path owns quantising storage), at least two pairs, one shape
    per side, a top-p depth the inner dimension admits, and one
    computation dtype for every pair.  Every *right* operand must be raw:
    the chunked encode concatenates raw columns, so batches of
    pre-encoded ``B`` handles run serial, which validates and dedupes
    them.
    """
    from .engine import EncodedOperand, _operand_dtype, _resolve_dtype

    if cfg.scheme != "aabft" or cfg.dtype is not None or len(a_items) < 2:
        return False
    if any(isinstance(b, EncodedOperand) for b in b_items):
        return False

    def shape_of(item):
        if isinstance(item, EncodedOperand):
            return item.shape
        arr = np.asarray(item)
        return arr.shape if arr.ndim == 2 else None

    a_shapes = {shape_of(x) for x in a_items}
    b_shapes = {shape_of(x) for x in b_items}
    if len(a_shapes) != 1 or len(b_shapes) != 1:
        return False
    a_shape = next(iter(a_shapes))
    b_shape = next(iter(b_shapes))
    if a_shape is None or b_shape is None or a_shape[1] != b_shape[0]:
        return False
    if not 1 <= cfg.p <= a_shape[1]:
        return False
    resolved = _resolve_dtype(*[_operand_dtype(x) for x in a_items + b_items])
    return all(
        _resolve_dtype(_operand_dtype(a), _operand_dtype(b)) == resolved
        for a, b in zip(a_items, b_items)
    )


@dataclass
class _Group:
    """One shared-left-operand group of the batch."""

    enc_a: object  # EncodedOperand
    fresh: bool
    indices: list[int]


@dataclass
class _ChunkState:
    """Everything one chunk carries between its stage slots."""

    group: _Group
    items: list[tuple[int, object]]  # (original index, raw right operand)
    encoded: object = None  # ChunkEncodedB | list[EncodedOperand]
    c_cat: object = None  # concatenated GEMM result (batched path only)
    c_fcs: list | None = None
    backends: list | None = None
    fallbacks: list | None = None
    reports: list | None = None
    enc_padding: int = 0
    item_tops: list | None = None  # (values, indices) per item


def run_pipelined(engine, a_items, b_items, cfg) -> list:
    """Execute the expanded batch through the stage-pipelined executor.

    Preconditions (:func:`pipeline_supported`) must hold.  Results come
    back in submission order, bitwise identical to sequential
    :meth:`~repro.engine.MatmulEngine.matmul` calls.
    """
    from .engine import (
        EncodedOperand,
        _aabft_provider,
        _operand_dtype,
        _resolve_dtype,
    )

    t_start = time.perf_counter()
    dtype = _resolve_dtype(*[_operand_dtype(x) for x in a_items + b_items])
    first_a, first_b = a_items[0], b_items[0]
    m, n = (
        first_a.shape
        if isinstance(first_a, EncodedOperand)
        else np.asarray(first_a).shape
    )
    q = np.asarray(first_b).shape[1]
    # One resolution per batch, shared with matmul calls of this dtype.
    request = engine._request(cfg, m, n, q, dtype, dtype)
    call = engine._resolve(request, engine._plans.resolved(request))
    plan = call.plan
    cfg = plan.config
    selection_fallback = call.backend_fallback
    fused_fallback = call.fused_fallback
    fused_online = cfg.fusion == "fused"
    busy = {"encode": 0.0, "multiply": 0.0, "check": 0.0}

    # --- encode every distinct left operand once (inline, before the
    # chunk loop: chunks sharing a group must never race on its encode) --
    t0 = time.perf_counter()
    groups: list[_Group] = []
    by_id: dict[int, _Group] = {}
    for idx, a in enumerate(a_items):
        group = by_id.get(id(a))
        if group is None:
            enc_a, fresh = engine._encode_or_reuse(a, "a", cfg, dtype, plan)
            group = _Group(enc_a=enc_a, fresh=fresh, indices=[])
            by_id[id(a)] = group
            groups.append(group)
        else:
            # Dedup hits count as reuses from the second use on (a
            # handle's first use already counted in _encode_or_reuse).
            engine._m_reuses.inc()
        group.indices.append(idx)
    elapsed = time.perf_counter() - t0
    engine._add_seconds("encode", elapsed)
    busy["encode"] += elapsed

    # --- chunks: on one worker nothing overlaps, so one chunk per group
    # amortises most; otherwise enough chunks to keep every lane busy
    # through fill and drain ---------------------------------------------
    workers = engine._max_workers
    total = len(a_items)
    size = total if workers <= 1 else max(2, -(-total // max(3, 2 * workers)))
    states = [
        _ChunkState(
            group=group,
            items=[(idx, b_items[idx]) for idx in group.indices[lo : lo + size]],
        )
        for group in groups
        for lo in range(0, len(group.indices), size)
    ]

    # --- the overlap rule reads only the batch and its plan ------------
    item_flops = (
        2 * plan.row_layout.encoded_rows * plan.n * plan.col_layout.encoded_rows
    )
    overlap = (
        workers >= 2 and len(states) >= 2 and item_flops >= _OVERLAP_MIN_FLOPS
    )
    executor = engine._get_executor() if overlap else None
    window = _WINDOW if overlap else 1

    def _timed(stage: str, fn, *args) -> dict[str, float]:
        """Run one stage slot; charge and return its seconds per stage.

        ``fn`` returns the seconds it spent on other stages' work (a
        probe's re-encode and discrepancy comparison, a fused chunk's
        checks), or ``None``; the rest of the slot is ``stage``'s.  Every
        second is charged to exactly one stage, after the slot's timer
        has stopped.
        """
        t0 = time.perf_counter()
        with span(f"pipeline.{stage}", engine.registry):
            seconds = fn(*args) or {}
        seconds[stage] = time.perf_counter() - t0 - sum(seconds.values())
        for name, elapsed in seconds.items():
            engine._add_seconds(name, elapsed)
        return seconds

    def _issue(stage: str, fn, *args) -> Future:
        """An encode or check slot: on the pool when overlapping, else inline."""
        if executor is not None:
            return executor.submit(_timed, stage, fn, *args)
        done: Future = Future()
        done.set_result(_timed(stage, fn, *args))
        return done

    def _charge(seconds: dict[str, float]) -> None:
        for name, elapsed in seconds.items():
            busy[name] += elapsed

    # --- walk the chunks: encodes run up to ``window`` chunks ahead, the
    # caller multiplies, and each check follows its multiply ------------
    encodes: list[Future] = []
    checks: list[Future] = []
    for i, state in enumerate(states):
        while len(encodes) < min(i + window, len(states)):
            encodes.append(
                _issue(
                    "encode", _encode_chunk,
                    engine, plan, cfg, states[len(encodes)], dtype,
                )
            )
        _charge(encodes[i].result())
        multiply = _fused_chunk if fused_online else _multiply_chunk
        _charge(_timed("multiply", multiply, engine, plan, cfg, state))
        if not fused_online:  # fused chunks check inside their multiply slot
            checks.append(_issue("check", _check_chunk, engine, plan, cfg, state))
    for future in checks:
        _charge(future.result())

    # The left-operand encodings are fully consumed once every multiply
    # has run; internally encoded buffers recycle (handles are untouched).
    for group in groups:
        if group.fresh:
            plan.pool.give(group.enc_a.array)

    # --- assemble results in submission order ---------------------------
    results: list = [None] * len(a_items)
    for state in states:
        ea = state.group.enc_a
        for j, (idx, _b) in enumerate(state.items):
            c_fc = state.c_fcs[j]
            report = state.reports[j]
            c = strip_encoding(
                c_fc,
                plan.row_layout,
                plan.col_layout,
                ea.padding,
                state.enc_padding,
            )
            provider = _aabft_provider(
                cfg, plan, (ea.top_values, ea.top_indices), state.item_tops[j]
            )
            engine._m_calls.inc()
            if report.error_detected:
                engine._m_detections.inc()
            results[idx] = AbftResult(
                c=c,
                c_fc=c_fc,
                report=report,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                provider=provider,
                backend=state.backends[j],
                backend_fallback=selection_fallback or state.fallbacks[j],
                fused=fused_online,
                fused_fallback=fused_fallback,
            )

    # --- pipeline telemetry: bubble fraction and stage occupancy --------
    wall = time.perf_counter() - t_start
    engine._m_pipe_batches.inc()
    engine._m_pipe_chunks.inc(len(states))
    total_busy = 0.0
    for stage_name, seconds in busy.items():
        engine._m_pipe_busy[stage_name].inc(seconds)
        total_busy += seconds
        if wall > 0.0:
            engine._g_pipe_occupancy[stage_name].set(
                min(1.0, seconds / wall)
            )
    if wall > 0.0:
        engine._g_pipe_bubble.set(
            max(0.0, 1.0 - total_busy / (3.0 * wall))
        )
    return results


# ----------------------------------------------------------------------
# chunk stage bodies
# ----------------------------------------------------------------------
def _probe_verdict(plan, width: int) -> bool | None:
    with plan.probe_lock:
        return plan.probe_verdicts.get(width)


def _encode_chunk(engine, plan, cfg, state: _ChunkState, dtype) -> None:
    """Encode slot: concatenated fast path or per-item reference path.

    Fused-online chunks always take the per-item path: their multiply
    slot runs one fused tile loop per pair against per-pair tolerance
    grids, so there is no concatenated GEMM to feed.
    """
    if (
        cfg.fusion == "fused"
        or _probe_verdict(plan, len(state.items)) is False
    ):
        state.encoded = _encode_items(engine, plan, cfg, state, dtype)
        state.enc_padding = plan.cols_added
        return
    state.encoded = encode_b_chunk(
        [np.asarray(b).astype(dtype, copy=False) for _idx, b in state.items],
        cfg.block_size,
        q=plan.q,
        p=cfg.p,
        dtype=dtype,
        pool=plan.pool,
    )
    state.enc_padding = state.encoded.padding


def _encode_items(engine, plan, cfg, state: _ChunkState, dtype) -> list:
    """The chunk's right operands encoded one by one, as ``matmul`` does."""
    return [
        engine._encode(np.asarray(b).astype(dtype, copy=False), "b", cfg, plan)
        for _idx, b in state.items
    ]


def _reencode_items(engine, plan, cfg, state: _ChunkState, other) -> list:
    """Per-item encodes inside a multiply slot, timed into ``other``."""
    t0 = time.perf_counter()
    encoded = _encode_items(
        engine, plan, cfg, state, state.encoded.encoded.dtype
    )
    other["encode"] = time.perf_counter() - t0
    return encoded


def _multiply_chunk(engine, plan, cfg, state: _ChunkState) -> dict:
    """Multiply slot: probe, concatenated GEMM, or per-item reference.

    Returns the seconds the slot spent on encode and check work (the
    probe's, or a re-encode after a failed probe), keyed by stage.
    """
    a_arr = state.group.enc_a.array
    count = len(state.items)
    enc = state.encoded
    other: dict[str, float] = {}
    if isinstance(enc, ChunkEncodedB):
        verdict = _probe_verdict(plan, count)
        if verdict is None:
            _probe_chunk(engine, plan, cfg, state, other)
            return other
        if verdict:
            # Probed byte-identical: one GEMM covers the whole chunk.
            c_cat, used, fallback = engine._dispatch_gemm(
                plan, a_arr, enc.encoded
            )
            w = enc.item_width
            state.c_cat = c_cat
            state.c_fcs = [c_cat[:, j * w : (j + 1) * w] for j in range(count)]
            state.backends = [used] * count
            state.fallbacks = [fallback] * count
            state.item_tops = [enc.item_tops(j) for j in range(count)]
            plan.pool.give(enc.encoded)
            return other
        # A prefetched encode slot concatenated this chunk before its
        # width's probe failed: re-encode per item for the reference.
        state.encoded = _reencode_items(engine, plan, cfg, state, other)
        plan.pool.give(enc.encoded)
    # Reference path (the probe failed for this width).
    state.c_fcs, state.backends, state.fallbacks = [], [], []
    state.item_tops = []
    for enc_b in state.encoded:
        c_fc, used, fallback = engine._dispatch_gemm(plan, a_arr, enc_b.array)
        state.c_fcs.append(c_fc)
        state.backends.append(used)
        state.fallbacks.append(fallback)
        state.item_tops.append((enc_b.top_values, enc_b.top_indices))
    return other


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    """Byte identity (``np.array_equal`` treats NaN as unequal to itself
    and ``-0.0`` as equal to ``0.0``)."""
    return (
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    )


def _probe_chunk(engine, plan, cfg, state: _ChunkState, other) -> None:
    """Dual-compute the chunk along both paths and compare every byte.

    The reference artifacts are kept as the chunk's results (they are the
    guaranteed ones either way); the verdict, kept on the plan, decides
    how every *later* chunk of this width executes.  The re-encode and
    the discrepancy comparison are timed into ``other``.
    """
    a_arr = state.group.enc_a.array
    enc: ChunkEncodedB = state.encoded
    count = len(state.items)
    ref_enc = _reencode_items(engine, plan, cfg, state, other)

    w = enc.item_width
    ok = all(
        _same_bytes(ref.array, enc.item_encoded(j))
        and _same_bytes(ref.top_values, enc.item_tops(j)[0])
        and _same_bytes(ref.top_indices, enc.item_tops(j)[1])
        for j, ref in enumerate(ref_enc)
    )

    c_cat, _used, _fb = engine._dispatch_gemm(plan, a_arr, enc.encoded)
    ref_runs = [
        engine._dispatch_gemm(plan, a_arr, ref.array) for ref in ref_enc
    ]
    ok = ok and all(
        _same_bytes(run[0], c_cat[:, j * w : (j + 1) * w])
        for j, run in enumerate(ref_runs)
    )
    if ok:
        # Discrepancy parity closes the loop: identical result bytes must
        # slice into identical checksum discrepancies.
        t0 = time.perf_counter()
        cat_col = column_discrepancies(c_cat, plan.row_layout)
        cat_row = row_discrepancies(c_cat, enc.layout)
        blocks = plan.col_layout.num_blocks
        ok = all(
            _same_bytes(
                column_discrepancies(run[0], plan.row_layout),
                cat_col[:, j * w : (j + 1) * w],
            )
            and _same_bytes(
                row_discrepancies(run[0], plan.col_layout),
                cat_row[:, j * blocks : (j + 1) * blocks],
            )
            for j, run in enumerate(ref_runs)
        )
        other["check"] = time.perf_counter() - t0

    with plan.probe_lock:
        plan.probe_verdicts[count] = ok
    if not ok:
        engine._m_pipe_fallbacks.labels(reason="bitwise_probe").inc()

    # The reference artifacts become the chunk's results.
    state.c_fcs = [run[0] for run in ref_runs]
    state.backends = [run[1] for run in ref_runs]
    state.fallbacks = [run[2] for run in ref_runs]
    state.item_tops = [(ref.top_values, ref.top_indices) for ref in ref_enc]
    state.encoded = ref_enc
    plan.pool.give(enc.encoded)


def _fused_chunk(engine, plan, cfg, state: _ChunkState) -> dict:
    """Fused-online chunk: multiply and in-loop check in one stage slot.

    Builds the chunk's tolerance grids (check work — they must exist
    before the tiles run), runs one fused multiply+check per pair against
    its grid slices, and produces the chunk's reports on the spot, so the
    chunk has no check slot.  Returns the slot's check seconds, keyed by
    stage.
    """
    ea = state.group.enc_a
    enc_b = state.encoded
    state.item_tops = [(eb.top_values, eb.top_indices) for eb in enc_b]
    t0 = time.perf_counter()
    grids = _chunk_grids(plan, cfg, state)
    col_e, row_e = grids.exact()
    grids.release()
    check_s = time.perf_counter() - t0  # grids are check work
    state.c_fcs, state.reports, state.backends, state.fallbacks = (
        [], [], [], []
    )
    count = len(enc_b)
    for j, eb in enumerate(enc_b):
        ce, re_ = item_grids(col_e, row_e, plan.col_layout, j, count)
        c_fc, report, used, fallback, _mul_s, item_chk = (
            engine._fused_multiply_check(plan, cfg, ea.array, eb.array, ce, re_)
        )
        state.c_fcs.append(c_fc)
        state.reports.append(report)
        state.backends.append(used)
        state.fallbacks.append(fallback)
        check_s += item_chk
    plan.pool.give(col_e)
    plan.pool.give(row_e)
    for eb in enc_b:
        plan.pool.give(eb.array)
    return {"check": check_s}


def _check_chunk(engine, plan, cfg, state: _ChunkState) -> None:
    """Check slot: one lower-bound test per chunk, exact grids on demand.

    The items' discrepancy grids sit side by side like their tolerance
    grids, so :func:`decide_checks` tests the whole chunk against its
    certified lower grids at once; a chunk that fails builds its exact
    grids once and decides each item on its slices.
    """
    count = len(state.items)
    grids = _chunk_grids(plan, cfg, state)
    state.reports, by_lower = decide_checks(
        lambda: _chunk_discrepancies(plan, state),
        grids.lower(),
        grids.exact,
        plan.row_layout,
        plan.col_layout,
        items=count,
    )
    engine._m_decided["lower_bound" if by_lower else "exact"].inc(count)
    grids.release()
    if not isinstance(state.encoded, ChunkEncodedB):
        for enc_b in state.encoded:
            plan.pool.give(enc_b.array)


def _chunk_discrepancies(plan, state: _ChunkState):
    """The chunk's discrepancy grids, its items' side by side."""
    if isinstance(state.encoded, ChunkEncodedB):
        # One discrepancy pass over the concatenation.
        return (
            column_discrepancies(state.c_cat, plan.row_layout),
            row_discrepancies(state.c_cat, state.encoded.layout),
        )
    count = len(state.items)
    col_disc = np.empty(
        (plan.row_layout.num_blocks, count * plan.col_layout.encoded_rows)
    )
    row_disc = np.empty(
        (plan.row_layout.encoded_rows, count * plan.col_layout.num_blocks)
    )
    for j, c_fc in enumerate(state.c_fcs):
        cd, rd = item_grids(col_disc, row_disc, plan.col_layout, j, count)
        column_discrepancies(c_fc, plan.row_layout, out=cd)
        row_discrepancies(c_fc, plan.col_layout, out=rd)
    return col_disc, row_disc


def _chunk_grids(plan, cfg, state: _ChunkState) -> AABFTToleranceGrids:
    """The chunk's tolerance grids: one build over its stacked top-p data.

    The items' grids come out side by side; :func:`item_grids` cuts item
    ``j``'s, bitwise equal to building it alone.
    """
    if isinstance(state.encoded, ChunkEncodedB):
        col_values = state.encoded.top_values
        col_indices = state.encoded.top_indices
    else:
        col_values = np.concatenate([v for v, _i in state.item_tops])
        col_indices = np.concatenate([i for _v, i in state.item_tops])
    ea = state.group.enc_a
    return AABFTToleranceGrids(
        plan.scheme,
        plan.n,
        ea.top_values,
        ea.top_indices,
        col_values,
        col_indices,
        plan.row_layout.checksum_slice(),
        plan.col_layout.checksum_slice(),  # spans every stacked item
        epsilon_floor=cfg.epsilon_floor,
        pool=plan.pool,
    )
