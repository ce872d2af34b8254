"""Zero-bubble stage-pipelined batch execution.

The A-ABFT flow is inherently three-staged — encode, multiply, check.
This module, the engine's one batched execution mode, executes a batch
as a sequence of *chunks* whose stage slots are scheduled by a cost
model, in the style of the zero-bubble pipeline-parallel schedules
(F/B/W reordering): encode slots are prefetched onto the engine's thread
pool up to a bounded window (the ``F`` warm-up), the caller thread walks
the multiply slots (the steady-state ``B`` lane), and check slots are
deferred onto the pool to drain inside multiply bubbles (the ``W``
fill).  On a single-worker engine — or whenever the cost model predicts
overlap loses to its dispatch overhead — the schedule degenerates to the
serial ``E M C`` slot order and every slot runs inline.

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
dual-computes the **first** chunk of every ``(plan, chunk width)``
signature along both the concatenated and the per-item reference path
and compares every artifact — encoded slices, top-p data, result bytes,
discrepancies.  Only a byte-identical probe enables the concatenated
path for that signature; any mismatch pins the signature to the per-item
reference path (counted in ``abft_pipeline_fallbacks_total``), which
encodes and multiplies each pair exactly as
:meth:`~repro.engine.MatmulEngine.matmul` does.  Tolerance grids are
elementwise in the top-p data, so both paths build one grid per chunk
and slice it per item.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..abft.checking import (
    check_grids,
    column_discrepancies,
    row_discrepancies,
)
from ..abft.encoding import strip_encoding
from ..abft.providers import AABFTEpsilonProvider, aabft_epsilon_grids
from ..abft.result import AbftResult
from ..kernels.stage_split import ChunkEncodedB, encode_b_chunk
from ..telemetry import span
from .stats import StageCosts

__all__ = [
    "PipelineSchedule",
    "pipeline_supported",
    "plan_schedule",
    "run_pipelined",
]

#: Thread-dispatch overhead the cost model charges per asynchronous slot.
_SLOT_OVERHEAD_S = 2e-4
#: Encode-prefetched chunks kept in flight ahead of the multiply lane.
_WINDOW = 3


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


@dataclass(frozen=True)
class PipelineSchedule:
    """The cost model's decision for one pipelined batch.

    Attributes
    ----------
    chunks:
        ``(group_index, count)`` per chunk, in execution order — each
        chunk draws ``count`` consecutive pairs from one shared-left
        operand group.
    overlap:
        Whether encode/check slots ride the engine's thread pool while
        the caller thread walks the multiplies.  ``False`` replays the
        serial slot order inline (the cost model said overlap loses, or
        the engine has a single worker).
    window:
        Bound on encode-prefetched chunks in flight ahead of the multiply
        lane (1 when not overlapping).
    slots:
        The greedy ``(stage, chunk_index)`` slot order: check slots drain
        first, encode slots fill the window, multiply slots otherwise.
    predicted_serial_s / predicted_overlap_s:
        The cost model's wall-time estimates (0 when the engine has no
        stage timings yet).
    """

    chunks: tuple[tuple[int, int], ...]
    overlap: bool
    window: int
    slots: tuple[tuple[str, int], ...]
    predicted_serial_s: float = 0.0
    predicted_overlap_s: float = 0.0

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


def _greedy_slots(
    num_chunks: int, window: int
) -> tuple[tuple[str, int], ...]:
    """Greedy slot order: drain checks first, keep the encode window full.

    Priorities mirror the zero-bubble F/B/W rule — a completed multiply's
    check is issued immediately (it drains asynchronously in the next
    multiply's bubble), the encode lane is kept ``window`` chunks ahead,
    and the caller thread otherwise advances the multiply lane.  With
    ``window=1`` this degenerates to the serial ``E M C`` order.
    """
    slots: list[tuple[str, int]] = []
    encoded = multiplied = checked = 0
    while checked < num_chunks:
        if checked < multiplied:
            slots.append(("check", checked))
            checked += 1
        elif encoded < num_chunks and encoded - multiplied < window:
            slots.append(("encode", encoded))
            encoded += 1
        else:
            slots.append(("multiply", multiplied))
            multiplied += 1
    return tuple(slots)


def plan_schedule(
    group_sizes: list[int],
    stage_costs: StageCosts,
    workers: int,
    *,
    fused_online: bool = False,
) -> PipelineSchedule:
    """Build the stage-slot schedule for one batch.

    The decision is seeded from the per-stage timings the engine has
    already measured (:attr:`~repro.engine.stats.EngineStats.
    stage_costs`): overlap is enabled only when the engine has spare
    workers *and* the predicted overlapped wall time — multiply lane vs.
    the encode/check side lane, plus per-slot dispatch overhead — beats
    the serial slot order.  A cold engine (no timings yet) stays serial;
    the measurements its first batches produce seed later decisions.

    ``fused_online=True`` models the fused online-ABFT chunk, which
    collapses multiply+check into one stage slot: the check lane is
    empty (its cost rides the multiply lane), so the pipeline can only
    overlap encode prefetch against the fused multiplies and there is no
    check drain after the last chunk.
    """
    total = sum(group_sizes)
    if workers <= 1:
        # No overlap possible: one chunk per group maximises amortisation.
        chunk_size = max(total, 1)
    else:
        # Enough chunks to keep every lane busy through fill and drain.
        target_chunks = max(3, 2 * workers)
        chunk_size = max(2, -(-total // target_chunks))
    chunks: list[tuple[int, int]] = []
    for gi, size in enumerate(group_sizes):
        for lo in range(0, size, chunk_size):
            chunks.append((gi, min(chunk_size, size - lo)))

    enc, mul, chk = (
        stage_costs.encode.mean,
        stage_costs.multiply.mean,
        stage_costs.check.mean,
    )
    observed = enc > 0.0 and mul > 0.0 and chk > 0.0
    if fused_online:
        # The fused chunk runs its checks inside the multiply slot; the
        # check lane contributes nothing on its own.
        mul, chk = mul + chk, 0.0
    counts = [count for _gi, count in chunks]
    serial_s = sum((enc + mul + chk) * k for k in counts)
    fill = enc * counts[0] if counts else 0.0
    drain = chk * counts[-1] if counts else 0.0
    side_lane = sum((enc + chk) * k for k in counts) - fill - drain
    overlap_s = (
        fill
        + max(mul * total, side_lane)
        + drain
        + 2 * len(chunks) * _SLOT_OVERHEAD_S
    )
    overlap = (
        workers >= 2
        and len(chunks) >= 2
        and observed
        and overlap_s < serial_s
    )
    window = _WINDOW if overlap else 1
    return PipelineSchedule(
        chunks=tuple(chunks),
        overlap=overlap,
        window=window,
        slots=_greedy_slots(len(chunks), window),
        predicted_serial_s=serial_s if observed else 0.0,
        predicted_overlap_s=overlap_s if observed else 0.0,
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
    encode_future: object = None
    check_future: object = None
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
    from .engine import EncodedOperand, _operand_dtype, _resolve_dtype

    t_start = time.perf_counter()
    dtype = _resolve_dtype(*[_operand_dtype(x) for x in a_items + b_items])
    first_a, first_b = a_items[0], b_items[0]
    m, n = (
        first_a.shape
        if isinstance(first_a, EncodedOperand)
        else np.asarray(first_a).shape
    )
    q = np.asarray(first_b).shape[1]
    cfg, selection_fallback, fused_fallback = engine._negotiate(
        cfg, m, n, q, dtype
    )
    fused_online = cfg.fusion == "fused"
    plan, _hit = engine._plans.get(m, n, q, dtype, cfg)
    busy = {"encode": 0.0, "multiply": 0.0, "check": 0.0}

    # --- encode every distinct left operand once (inline, before the
    # chunk loop: chunks sharing a group must never race on its encode) --
    t0 = time.perf_counter()
    groups: list[_Group] = []
    by_id: dict[int, _Group] = {}
    for idx, a in enumerate(a_items):
        group = by_id.get(id(a))
        if group is None:
            if isinstance(a, EncodedOperand):
                engine._check_handle(a, "a", cfg, dtype)
                enc_a, fresh = a, False
            else:
                enc_a = engine._encode_with_plan(
                    np.asarray(a).astype(dtype, copy=False), "a", cfg, plan
                )
                fresh = True
            group = _Group(enc_a=enc_a, fresh=fresh, indices=[])
            by_id[id(a)] = group
            groups.append(group)
        # Reuse accounting: handles always count, dedup hits count from
        # the second use on.
        if isinstance(a, EncodedOperand) or group.indices:
            engine._m_reuses.inc()
        group.indices.append(idx)
    elapsed = time.perf_counter() - t0
    engine._add_seconds("encode", elapsed)
    busy["encode"] += elapsed

    schedule = plan_schedule(
        [len(g.indices) for g in groups],
        engine._stage_costs(),
        engine._max_workers,
        fused_online=fused_online,
    )

    # --- materialise chunk states in schedule order ---------------------
    cursors = [0] * len(groups)
    states: list[_ChunkState] = []
    for gi, count in schedule.chunks:
        group = groups[gi]
        lo = cursors[gi]
        cursors[gi] = lo + count
        states.append(
            _ChunkState(
                group=group,
                items=[
                    (idx, b_items[idx])
                    for idx in group.indices[lo : lo + count]
                ],
            )
        )

    executor = engine._get_executor() if schedule.overlap else None

    def _timed(stage: str, fn, *args):
        t0 = time.perf_counter()
        with span(f"pipeline.{stage}", engine.registry):
            out = fn(*args)
        elapsed = time.perf_counter() - t0
        engine._add_seconds(stage, elapsed)
        return out, elapsed

    def _encode_slot(state: _ChunkState):
        return _timed("encode", _encode_chunk, engine, plan, cfg, state, dtype)

    def _check_slot(state: _ChunkState):
        return _timed("check", _check_chunk, engine, plan, cfg, state)

    # --- walk the stage slots ------------------------------------------
    for stage, ci in schedule.slots:
        state = states[ci]
        if stage == "encode":
            if executor is not None:
                state.encode_future = executor.submit(_encode_slot, state)
            else:
                _res, elapsed = _encode_slot(state)
                busy["encode"] += elapsed
        elif stage == "multiply":
            if state.encode_future is not None:
                _res, elapsed = state.encode_future.result()
                busy["encode"] += elapsed
            if fused_online:
                mul_s, chk_s = _fused_chunk(engine, plan, cfg, state)
                busy["multiply"] += mul_s
                busy["check"] += chk_s
                continue
            _res, elapsed = _timed(
                "multiply", _multiply_chunk, engine, plan, cfg, state, busy
            )
            busy["multiply"] += elapsed
        else:  # check
            if fused_online:
                continue  # fused chunks report inside their multiply slot
            if executor is not None:
                state.check_future = executor.submit(_check_slot, state)
            else:
                _res, elapsed = _check_slot(state)
                busy["check"] += elapsed
    for state in states:
        if state.check_future is not None:
            _res, elapsed = state.check_future.result()
            busy["check"] += elapsed

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
            col_values, col_indices = state.item_tops[j]
            c = strip_encoding(
                c_fc,
                plan.row_layout,
                plan.col_layout,
                ea.padding,
                state.enc_padding,
            )
            provider = AABFTEpsilonProvider.from_arrays(
                scheme=plan.scheme,
                row_values=ea.top_values,
                row_indices=ea.top_indices,
                col_values=col_values,
                col_indices=col_indices,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                inner_dim=plan.n,
                epsilon_floor=cfg.epsilon_floor,
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
def _stacked_verdict(engine, plan, count) -> bool | None:
    key = (plan.key, count)
    with engine._stacked_lock:
        return engine._stacked_ok.get(key)


def _encode_chunk(engine, plan, cfg, state: _ChunkState, dtype) -> None:
    """Encode slot: concatenated fast path or per-item reference path.

    Fused-online chunks always take the per-item path: their multiply
    slot runs one fused tile loop per pair against per-pair tolerance
    grids, so there is no concatenated GEMM to feed.
    """
    items = [
        np.asarray(b).astype(dtype, copy=False) for _idx, b in state.items
    ]
    if (
        cfg.fusion == "fused"
        or _stacked_verdict(engine, plan, len(items)) is False
    ):
        state.encoded = [
            engine._encode_with_plan(item, "b", cfg, plan) for item in items
        ]
        state.enc_padding = plan.cols_added
        return
    state.encoded = encode_b_chunk(
        items,
        cfg.block_size,
        q=plan.q,
        p=cfg.p,
        dtype=dtype,
        pool=plan.pool,
    )
    state.enc_padding = state.encoded.padding


def _multiply_chunk(engine, plan, cfg, state: _ChunkState, busy) -> None:
    """Multiply slot: probe, concatenated GEMM, or per-item reference."""
    a_arr = state.group.enc_a.array
    count = len(state.items)
    verdict = _stacked_verdict(engine, plan, count)
    if isinstance(state.encoded, ChunkEncodedB) and verdict is None:
        _probe_chunk(engine, plan, cfg, state, busy)
        return
    if isinstance(state.encoded, ChunkEncodedB):
        # Probed byte-identical: one GEMM covers the whole chunk.
        enc: ChunkEncodedB = state.encoded
        c_cat, used, fallback = engine._dispatch_gemm(plan, a_arr, enc.encoded)
        w = enc.item_width
        state.c_cat = c_cat
        state.c_fcs = [c_cat[:, j * w : (j + 1) * w] for j in range(count)]
        state.backends = [used] * count
        state.fallbacks = [fallback] * count
        state.item_tops = [enc.item_tops(j) for j in range(count)]
        plan.pool.give(enc.encoded)
        return
    # Reference path (probe failed for this signature earlier).
    state.c_fcs, state.backends, state.fallbacks = [], [], []
    state.item_tops = []
    for enc_b in state.encoded:
        c_fc, used, fallback = engine._dispatch_gemm(plan, a_arr, enc_b.array)
        state.c_fcs.append(c_fc)
        state.backends.append(used)
        state.fallbacks.append(fallback)
        state.item_tops.append((enc_b.top_values, enc_b.top_indices))


def _probe_chunk(engine, plan, cfg, state: _ChunkState, busy) -> None:
    """Dual-compute the chunk along both paths and compare every byte.

    The reference artifacts are kept as the chunk's results (they are the
    guaranteed ones either way); the verdict decides how every *later*
    chunk of this ``(plan, chunk width)`` signature executes.
    """
    a_arr = state.group.enc_a.array
    enc: ChunkEncodedB = state.encoded
    count = len(state.items)
    dtype = enc.encoded.dtype

    # Reference per-item encode (timed as encode work, not multiply).
    t0 = time.perf_counter()
    ref_enc = [
        engine._encode_with_plan(
            np.asarray(b).astype(dtype, copy=False), "b", cfg, plan
        )
        for _idx, b in state.items
    ]
    enc_elapsed = time.perf_counter() - t0
    engine._add_seconds("encode", enc_elapsed)
    busy["encode"] += enc_elapsed

    w = enc.item_width
    ok = all(
        np.array_equal(ref.array, enc.item_encoded(j))
        and np.array_equal(ref.top_values, enc.item_tops(j)[0])
        and np.array_equal(ref.top_indices, enc.item_tops(j)[1])
        for j, ref in enumerate(ref_enc)
    )

    c_cat, _used, _fb = engine._dispatch_gemm(plan, a_arr, enc.encoded)
    ref_runs = [
        engine._dispatch_gemm(plan, a_arr, ref.array) for ref in ref_enc
    ]
    ok = ok and all(
        np.array_equal(run[0], c_cat[:, j * w : (j + 1) * w])
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
            np.array_equal(
                column_discrepancies(run[0], plan.row_layout),
                cat_col[:, j * w : (j + 1) * w],
            )
            and np.array_equal(
                row_discrepancies(run[0], plan.col_layout),
                cat_row[:, j * blocks : (j + 1) * blocks],
            )
            for j, run in enumerate(ref_runs)
        )
        chk_elapsed = time.perf_counter() - t0
        engine._add_seconds("check", chk_elapsed)
        busy["check"] += chk_elapsed

    with engine._stacked_lock:
        engine._stacked_ok[(plan.key, count)] = ok
    if not ok:
        engine._m_pipe_fallbacks.labels(reason="bitwise_probe").inc()

    # The reference artifacts become the chunk's results.
    state.c_fcs = [run[0] for run in ref_runs]
    state.backends = [run[1] for run in ref_runs]
    state.fallbacks = [run[2] for run in ref_runs]
    state.item_tops = [(ref.top_values, ref.top_indices) for ref in ref_enc]
    state.encoded = ref_enc
    plan.pool.give(enc.encoded)


def _fused_chunk(engine, plan, cfg, state: _ChunkState) -> tuple[float, float]:
    """Fused-online chunk: multiply and in-loop check in one stage slot.

    Builds the chunk's tolerance grids (check work — they must exist
    before the tiles run), walks one fused tile loop per pair against its
    grid slices, and produces the chunk's reports on the spot; the
    schedule's check slot for this chunk is a no-op.  Returns the slot's
    ``(multiply_seconds, check_seconds)`` split — the kernel self-times
    its in-loop checks, so the split stays honest for the cost model.
    """
    ea = state.group.enc_a
    enc_b = state.encoded
    state.item_tops = [(eb.top_values, eb.top_indices) for eb in enc_b]
    t0 = time.perf_counter()
    col_e, row_e = _chunk_grids(plan, cfg, state)
    check_s = time.perf_counter() - t0  # grid build is check work
    state.c_fcs, state.backends, state.fallbacks = [], [], []
    state.reports = []
    for j, eb in enumerate(enc_b):
        ce, re_ = _item_slices(col_e, row_e, plan, j)
        outcome, used, fallback = engine._fused_online_gemm(
            plan, cfg, ea.array, eb.array, ce, re_
        )
        t1 = time.perf_counter()
        state.reports.append(engine._fused_report(outcome, ce, re_, plan))
        check_s += outcome.check_seconds + (time.perf_counter() - t1)
        state.c_fcs.append(outcome.out)
        state.backends.append(used)
        state.fallbacks.append(fallback)
    plan.pool.give(col_e)
    plan.pool.give(row_e)
    for eb in enc_b:
        plan.pool.give(eb.array)
    mul_s = max(0.0, time.perf_counter() - t0 - check_s)
    engine._add_seconds("multiply", mul_s)
    engine._add_seconds("check", check_s)
    return mul_s, check_s


def _check_chunk(engine, plan, cfg, state: _ChunkState) -> None:
    """Check slot: one grid build per chunk, sliced per item."""
    col_e, row_e = _chunk_grids(plan, cfg, state)
    if isinstance(state.encoded, ChunkEncodedB):
        # One discrepancy pass over the concatenation; slices are the items'.
        cat_col = column_discrepancies(state.c_cat, plan.row_layout)
        cat_row = row_discrepancies(state.c_cat, state.encoded.layout)
        discs = [
            _item_slices(cat_col, cat_row, plan, j)
            for j in range(len(state.items))
        ]
    else:
        discs = [
            (
                column_discrepancies(c_fc, plan.row_layout),
                row_discrepancies(c_fc, plan.col_layout),
            )
            for c_fc in state.c_fcs
        ]
        for enc_b in state.encoded:
            plan.pool.give(enc_b.array)
    state.reports = []
    for j, (col_disc, row_disc) in enumerate(discs):
        col_eps, row_eps = _item_slices(col_e, row_e, plan, j)
        state.reports.append(
            check_grids(
                col_disc, col_eps, row_disc, row_eps,
                plan.row_layout, plan.col_layout,
            )
        )
    plan.pool.give(col_e)
    plan.pool.give(row_e)


def _chunk_grids(plan, cfg, state: _ChunkState):
    """The chunk's tolerance grids: one build over its stacked top-p data.

    The items' grids come out side by side; :func:`_item_slices` cuts
    item ``j``'s, bitwise equal to building it alone.
    """
    if isinstance(state.encoded, ChunkEncodedB):
        col_values = state.encoded.top_values
        col_indices = state.encoded.top_indices
    else:
        col_values = np.concatenate([v for v, _i in state.item_tops])
        col_indices = np.concatenate([i for _v, i in state.item_tops])
    ea = state.group.enc_a
    width = plan.col_layout.encoded_rows
    cs_cols = plan.col_layout.all_checksum_indices()
    return aabft_epsilon_grids(
        plan.scheme,
        plan.n,
        ea.top_values,
        ea.top_indices,
        col_values,
        col_indices,
        plan.row_layout.all_checksum_indices(),
        np.concatenate([cs_cols + j * width for j in range(len(state.items))]),
        epsilon_floor=cfg.epsilon_floor,
        pool=plan.pool,
    )


def _item_slices(col_grid, row_grid, plan, j: int):
    """Item ``j``'s column-grid and row-grid slices of a chunk's grids."""
    width = plan.col_layout.encoded_rows
    blocks = plan.col_layout.num_blocks
    return (
        col_grid[:, j * width : (j + 1) * width],
        row_grid[:, j * blocks : (j + 1) * blocks],
    )
