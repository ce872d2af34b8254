"""Stage-pipelined batch execution.

The A-ABFT flow is inherently three-staged — encode, multiply, check.
This module, the engine's one batched execution mode, executes a batch
as a sequence of *chunks* walked in order on the caller thread, which
runs every encode and check slot.  A chunk's GEMM may run on the
engine's thread pool, one at a time, while the caller checks the chunk
before it and encodes the chunk after it (slot order ``E0 M0 E1 M1 C0
E2 M2 C1 …``) — the paper's overlap of the non-GEMM work with the GEMM
on a concurrent stream (Section V-A), on host threads, with only BLAS,
which releases the GIL, running beside the caller.

A chunk's GEMM goes to the pool when the engine has two or more
workers, the batch two or more chunks, the chunk neither probes nor
runs fused-online (both mostly Python), and each GEMM it hands over is
at least ``_OVERLAP_MIN_FLOPS`` (:func:`_on_worker`); below that the
hand-off costs more than the overlap saves.  Otherwise the chunk runs
its slots in ``E M C`` order on the caller.

Even without thread overlap the chunked execution wins: every distinct
left operand is encoded once for the whole batch, and each chunk's right
operands are concatenated column-wise so the encode reduction, the GEMM,
the discrepancy kernels and the tolerance-grid evaluation each run *once
per chunk* instead of once per pair.  The chunk's GEMM multiplies only
the right-operand columns that carry data or checksums (``q +
ceil(q/BS)`` per item instead of ``ceil(q/BS) · (BS+1)``), and the chunk
keeps that product as the GEMM wrote it, with its
:class:`~repro.kernels.stage_split.ColumnMap`.  The chaos ``result``
hook, the check and the items' ``c`` (one copy per chunk) all read it
in place: the discrepancy and tolerance grids cover the kept columns,
and only a chunk that fails the lower-bound test builds its exact
grids, spread to full width to decide each item as the serial check
does.  An item's full-width ``c_fc`` is built on first read, with
``+0.0`` in the padding columns — the GEMM of a zero column.  A left
operand holding a NaN or an Inf would give NaN there, so its chunks run
per item, counted in
``abft_pipeline_fallbacks_total{reason="non_finite"}``.

**Bitwise identity is the hard invariant.**  Per-item slices of the
concatenated encode/check reductions are block-local, and the tolerance
grids are elementwise in the top-p data — but a concatenated GEMM is
*not* guaranteed to slice into the per-item GEMM bytes (BLAS kernel
selection depends on operand shapes).  The executor therefore
dual-computes the **first** chunk of every chunk width of a plan along
both the concatenated and the per-item reference path and compares
every artifact — encoded slices, top-p data, result bytes, and the
discrepancies of the chunk check later chunks run.  The probe tries two
concatenated GEMMs in turn: the ``compact`` one above, then (for padded
items) the ``full`` one that multiplies every encoded column, padding
included, under the identity map.  The first byte-identical candidate
becomes the width's verdict; when neither is, the width is pinned to
the ``per_item`` reference path (counted in
``abft_pipeline_fallbacks_total{reason="bitwise_probe"}``), which
encodes and multiplies each pair exactly as
:meth:`~repro.engine.MatmulEngine.matmul` does.  The verdicts live on
the :class:`~repro.engine.plan.ExecutionPlan`, so they go when the plan
is evicted.  Tolerance grids are elementwise in the top-p data, so both
paths build one grid per chunk and slice it per item.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..abft.checking import (
    _compact_row_discrepancies,
    column_discrepancies,
    decide_checks,
    item_grids,
    row_discrepancies,
)
from ..abft.providers import AABFTToleranceGrids
from ..abft.result import AbftResult
from ..errors import ConfigurationError
from ..kernels.stage_split import (
    ChunkEncodedB,
    ColumnMap,
    column_map,
    encode_b_chunk,
)
from ..telemetry import span

__all__ = ["pipeline_supported", "run_pipelined"]

#: A chunk's GEMM flops from which it runs on the engine's worker.  With
#: one BLAS thread on two workers, handed-over GEMMs of 2.3-2.8 Mflop read
#: up to 18 % slower than inline, 3.4-6.8 Mflop about even and from 7.6
#: up to 24 % faster (the BLAS default read inline faster at most sizes).
_OVERLAP_MIN_FLOPS = 2**22


def pipeline_supported(a_items, b_items, cfg) -> bool:
    """Whether the pipelined executor applies to this expanded batch.

    Needs the ``aabft`` scheme without an explicit storage dtype (the
    serial path owns quantising storage), at least two pairs, one shape
    per side, a top-p depth the inner dimension admits, and one
    computation dtype for every pair, resolved as ``matmul`` resolves it:
    low-precision operands are declined, so the serial path refuses them
    as ``matmul`` does.  Every *right* operand must be raw: the chunked
    encode concatenates raw columns, so batches of pre-encoded ``B``
    handles run serial, which validates and dedupes them.
    """
    from .engine import EncodedOperand, _operand_dtype, _resolve_storage_compute

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
    try:
        computes = {
            _resolve_storage_compute(cfg, _operand_dtype(a), _operand_dtype(b))[1]
            for a, b in zip(a_items, b_items)
        }
    except ConfigurationError:
        return False
    return len(computes) == 1


@dataclass
class _Group:
    """One shared-left-operand group of the batch."""

    enc_a: object  # EncodedOperand
    fresh: bool
    finite: bool  # every element of enc_a is finite
    indices: list[int]


@dataclass
class _ChunkState:
    """Everything one chunk carries between its stage slots."""

    group: _Group
    items: list[tuple[int, object]]  # (original index, raw right operand)
    encoded: object = None  # ChunkEncodedB | list[EncodedOperand]
    verdict: str | None = None  # the width's probe verdict at encode
    # The GEMM results: one concatenated product, or one per item; and
    # the encoded columns each holds per item.
    products: list | None = None
    columns: ColumnMap | None = None
    backends: list | None = None
    fallbacks: list | None = None
    reports: list | None = None
    item_tops: list | None = None  # (values, indices) per item


def run_pipelined(engine, a_items, b_items, cfg) -> list:
    """Execute the expanded batch through the stage-pipelined executor.

    Preconditions (:func:`pipeline_supported`) must hold.  Results come
    back in submission order, bitwise identical to sequential
    :meth:`~repro.engine.MatmulEngine.matmul` calls.  When a slot raises,
    the GEMM on the worker finishes before the exception propagates, so
    no slot of the batch runs after it.
    """
    from .engine import (
        EncodedOperand,
        _aabft_provider,
        _operand_dtype,
        _resolve_storage_compute,
    )

    t_start = time.perf_counter()
    first_a, first_b = a_items[0], b_items[0]
    # Every pair resolves to this one dtype (a precondition).
    _storage, dtype = _resolve_storage_compute(
        cfg, _operand_dtype(first_a), _operand_dtype(first_b)
    )
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
            # A NaN or an Inf in a block makes its column's checksum
            # non-finite, so the checksum rows tell whether all is finite.
            finite = np.isfinite(enc_a.array[enc_a.layout.checksum_slice()]).all()
            group = _Group(enc_a=enc_a, fresh=fresh, finite=finite, indices=[])
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
    # amortises most; otherwise enough chunks to keep both lanes busy
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
    overlap = workers >= 2 and len(states) >= 2
    in_flight = None  # (Future, chunk) of the GEMM on the engine's worker
    lanes = 1  # two once a GEMM has run on the worker

    def _timed(stage: str, fn, *args) -> dict[str, float]:
        """Run one stage slot; charge and return its seconds per stage.

        ``fn`` returns the seconds it spent on other stages' work (a
        probe's re-encode and discrepancy comparison, a fused chunk's
        checks), or ``None``; the rest of the slot is ``stage``'s.  Every
        second is charged to exactly one stage, after the slot's timer
        has stopped, on the thread that ran the slot.
        """
        t0 = time.perf_counter()
        with span(f"pipeline.{stage}", engine.registry):
            seconds = fn(*args) or {}
        seconds[stage] = time.perf_counter() - t0 - sum(seconds.values())
        for name, elapsed in seconds.items():
            engine._add_seconds(name, elapsed)
        return seconds

    def _charge(seconds: dict[str, float]) -> None:
        for name, elapsed in seconds.items():
            busy[name] += elapsed

    def _join() -> list[_ChunkState]:
        """Wait for the GEMM on the worker; returns its chunk."""
        nonlocal in_flight
        if in_flight is None:
            return []
        future, state = in_flight
        _charge(future.result())
        in_flight = None
        return [state]

    try:
        # --- walk the chunks in order: encode chunk i, join chunk i-1's
        # GEMM, hand chunk i's over, then check chunk i-1 ----------------
        for state in states:
            _charge(_timed("encode", _encode_chunk, engine, plan, cfg, state, dtype))
            due = _join()
            if fused_online:  # fused chunks check inside their multiply slot
                _charge(_timed("multiply", _fused_chunk, engine, plan, cfg, state))
            elif overlap and _on_worker(plan, state):
                lanes = 2
                in_flight = engine._get_executor().submit(
                    _timed, "multiply", _multiply_chunk, engine, plan, cfg, state
                ), state
            else:
                _charge(_timed("multiply", _multiply_chunk, engine, plan, cfg, state))
                due.append(state)
            for chunk in due:
                _charge(_timed("check", _check_chunk, engine, plan, cfg, chunk))
        for chunk in _join():
            _charge(_timed("check", _check_chunk, engine, plan, cfg, chunk))
    finally:
        # Even when a slot raised, the worker's GEMM finishes first (its
        # own error yields to the one propagating); then the consumed
        # left-operand encodings recycle (not handles).
        if in_flight is not None:
            in_flight[0].exception()
        for group in groups:
            if group.fresh:
                plan.pool.give(group.enc_a.array)

    # --- assemble results in submission order: every item's c from one
    # copy per product, a compact item's c_fc built when read ------------
    results: list = [None] * len(a_items)
    for state in states:
        ea = state.group.enc_a
        columns = state.columns
        per_product = len(state.items) // len(state.products)
        cs = [
            c
            for product in state.products
            for c in columns.data(product, plan.q, plan.row_layout, plan.m)
        ]
        for j, (idx, _b) in enumerate(state.items):
            product, k = state.products[j // per_product], j % per_product
            report = state.reports[j]
            fields = dict(
                c=cs[j],
                report=report,
                row_layout=plan.row_layout,
                col_layout=plan.col_layout,
                provider=_aabft_provider(
                    cfg, plan, (ea.top_values, ea.top_indices), state.item_tops[j]
                ),
                backend=state.backends[j],
                backend_fallback=selection_fallback or state.fallbacks[j],
                fused=fused_online,
                fused_fallback=fused_fallback,
            )
            if columns.identity:
                results[idx] = AbftResult(c_fc=columns.item(product, k), **fields)
            else:
                results[idx] = AbftResult.deferred(
                    partial(columns.item, product, k), **fields
                )
            engine._m_calls.inc()
            if report.error_detected:
                engine._m_detections.inc()

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
            max(0.0, 1.0 - total_busy / (lanes * wall))
        )
    return results


# ----------------------------------------------------------------------
# chunk stage bodies
# ----------------------------------------------------------------------
def _encode_chunk(engine, plan, cfg, state: _ChunkState, dtype) -> None:
    """Encode slot: concatenated fast path or per-item reference path.

    Fused-online chunks always take the per-item path: their multiply
    slot runs one fused tile loop per pair against per-pair tolerance
    grids, so there is no concatenated GEMM to feed.  So do chunks whose
    left operand is not all finite.  The full-width concatenation is
    built only for a probe or a ``full`` verdict.  The chunk keeps the
    width's verdict (``None`` before its probe): its multiply slot
    follows it, so a verdict another batch sets in between changes
    nothing.
    """
    with plan.probe_lock:
        state.verdict = verdict = plan.probe_verdicts.get(len(state.items))
    concatenate = cfg.fusion != "fused" and verdict != "per_item"
    if concatenate and not state.group.finite:
        engine._m_pipe_fallbacks.labels(reason="non_finite").inc()
        concatenate = False
    if not concatenate:
        state.encoded = _encode_items(engine, plan, cfg, state, dtype)
        return
    state.encoded = encode_b_chunk(
        [np.asarray(b).astype(dtype, copy=False) for _idx, b in state.items],
        cfg.block_size,
        q=plan.q,
        p=cfg.p,
        dtype=dtype,
        pool=plan.pool,
        full=verdict != "compact",
    )


def _encode_items(engine, plan, cfg, state: _ChunkState, dtype) -> list:
    """The chunk's right operands encoded one by one, as ``matmul`` does."""
    return [
        engine._encode(np.asarray(b).astype(dtype, copy=False), "b", cfg, plan)
        for _idx, b in state.items
    ]


def _on_worker(plan, state: _ChunkState) -> bool:
    """Whether the chunk's multiply slot goes to the engine's worker: not
    a probe (mostly Python), and each GEMM it runs (one per chunk, or one
    per item on the reference path) at least ``_OVERLAP_MIN_FLOPS``."""
    enc = state.encoded
    if not isinstance(enc, ChunkEncodedB):
        b_arr = enc[0].array
    elif state.verdict is None:
        return False
    else:
        b_arr = enc.operand(full=state.verdict == "full")[0]
    flops = 2 * plan.row_layout.encoded_rows * plan.n * b_arr.shape[1]
    return flops >= _OVERLAP_MIN_FLOPS


def _per_item(plan, state: _ChunkState, runs) -> None:
    """Make ``runs`` (one ``(c_fc, backend, fallback)`` per item) the
    chunk's products: one full-width product per item."""
    state.products = [run[0] for run in runs]
    state.columns = column_map(plan.q, plan.col_layout.block_size, 1).full
    state.backends = [run[1] for run in runs]
    state.fallbacks = [run[2] for run in runs]


def _multiply_chunk(engine, plan, cfg, state: _ChunkState) -> dict:
    """Multiply slot: probe, concatenated GEMM, or per-item reference.

    Returns the seconds the slot spent on encode and check work (a
    probe's), keyed by stage.
    """
    a_arr = state.group.enc_a.array
    count = len(state.items)
    enc = state.encoded
    other: dict[str, float] = {}
    if not isinstance(enc, ChunkEncodedB):
        # Reference path: the probe failed for this width, or the left
        # operand is not all finite.
        _per_item(plan, state, [
            engine._dispatch_gemm(plan, a_arr, enc_b.array) for enc_b in enc
        ])
        state.item_tops = [(eb.top_values, eb.top_indices) for eb in enc]
    elif state.verdict is None:
        _probe_chunk(engine, plan, cfg, state, other)
    else:
        # Probed byte-identical: one GEMM covers the whole chunk.
        b_arr, state.columns = enc.operand(full=state.verdict == "full")
        product, used, fallback = engine._dispatch_gemm(plan, a_arr, b_arr)
        state.products = [product]
        state.backends = [used] * count
        state.fallbacks = [fallback] * count
        state.item_tops = [enc.item_tops(j) for j in range(count)]
        enc.release(plan.pool)
    return other


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    """Byte identity (``np.array_equal`` treats NaN as unequal to itself
    and ``-0.0`` as equal to ``0.0``)."""
    return (
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    )


def _probe_chunk(engine, plan, cfg, state: _ChunkState, other) -> None:
    """Dual-compute the chunk along both paths and compare every byte.

    The encodings must match first; then each candidate GEMM (``compact``,
    then ``full`` for padded items) is tried until one reproduces the
    per-item results and discrepancies.  The reference artifacts are kept
    as the chunk's results (they are the guaranteed ones either way); the
    verdict, kept on the plan, decides how every *later* chunk of this
    width executes.  The re-encode and the discrepancy comparisons are
    timed into ``other``.
    """
    a_arr = state.group.enc_a.array
    enc: ChunkEncodedB = state.encoded
    count = len(state.items)
    t0 = time.perf_counter()
    ref_enc = _encode_items(engine, plan, cfg, state, enc.compact.dtype)
    other["encode"] = time.perf_counter() - t0
    ok = all(
        _same_bytes(ref.array, enc.item_encoded(j))
        and _same_bytes(ref.top_values, enc.item_tops(j)[0])
        and _same_bytes(ref.top_indices, enc.item_tops(j)[1])
        for j, ref in enumerate(ref_enc)
    )
    ref_runs = [
        engine._dispatch_gemm(plan, a_arr, ref.array) for ref in ref_enc
    ]
    verdict = "per_item"
    if ok:
        # Unpadded items have one concatenated GEMM: compact is full width.
        for candidate in ("compact", "full") if enc.padding else ("full",):
            b_arr, columns = enc.operand(full=candidate == "full")
            product, _used, _fb = engine._dispatch_gemm(plan, a_arr, b_arr)
            if _reproduces(plan, columns, product, ref_runs, other):
                verdict = candidate
                break

    with plan.probe_lock:
        plan.probe_verdicts[count] = verdict
    if verdict == "per_item":
        engine._m_pipe_fallbacks.labels(reason="bitwise_probe").inc()

    # The reference artifacts become the chunk's results.
    _per_item(plan, state, ref_runs)
    state.item_tops = [(ref.top_values, ref.top_indices) for ref in ref_enc]
    state.encoded = ref_enc
    enc.release(plan.pool)


def _reproduces(plan, columns: ColumnMap, product, ref_runs, other) -> bool:
    """Whether a concatenated chunk product holds the per-item results'
    bytes and, through the chunk check later chunks run on it, their
    discrepancy bytes (timed into ``other`` as check work)."""
    if not all(
        _same_bytes(run[0], columns.item(product, j))
        for j, run in enumerate(ref_runs)
    ):
        return False
    t0 = time.perf_counter()
    cat_col, cat_row = _discrepancies(plan, [product], columns)
    cat_col = columns.spread(cat_col)
    count = len(ref_runs)
    ok = all(
        _same_bytes(column_discrepancies(run[0], plan.row_layout), col)
        and _same_bytes(row_discrepancies(run[0], plan.col_layout), row)
        for j, run in enumerate(ref_runs)
        for col, row in [item_grids(cat_col, cat_row, plan.col_layout, j, count)]
    )
    other["check"] = other.get("check", 0.0) + time.perf_counter() - t0
    return ok


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
    runs, state.reports = [], []
    count = len(enc_b)
    for j, eb in enumerate(enc_b):
        ce, re_ = item_grids(col_e, row_e, plan.col_layout, j, count)
        c_fc, report, used, fallback, _mul_s, item_chk = (
            engine._fused_multiply_check(plan, cfg, ea.array, eb.array, ce, re_)
        )
        runs.append((c_fc, used, fallback))
        state.reports.append(report)
        check_s += item_chk
    _per_item(plan, state, runs)
    plan.pool.give(col_e)
    plan.pool.give(row_e)
    for eb in enc_b:
        plan.pool.give(eb.array)
    return {"check": check_s}


def _check_chunk(engine, plan, cfg, state: _ChunkState) -> None:
    """Check slot: one lower-bound test per chunk, exact grids on demand.

    The items' discrepancy and tolerance grids sit side by side, over the
    columns the chunk's products hold, so :func:`decide_checks` tests the
    whole chunk against its certified lower grids at once.  A chunk that
    fails builds its exact grids once, spreads the column grid to full
    width with ``0.0`` where a padding column's discrepancy reads
    ``+0.0`` (a comparison that never fails), and decides each item on
    its slices, as the serial check does.
    """
    count = len(state.items)
    grids = _chunk_grids(plan, cfg, state)

    def exact():
        col_e, row_e = grids.exact()
        return state.columns.spread(col_e), row_e

    state.reports, by_lower = decide_checks(
        lambda: _discrepancies(plan, state.products, state.columns),
        grids.lower(),
        exact,
        plan.row_layout,
        plan.col_layout,
        items=count,
        widen=state.columns.spread,
    )
    engine._m_decided["lower_bound" if by_lower else "exact"].inc(count)
    grids.release()
    if not isinstance(state.encoded, ChunkEncodedB):
        for enc_b in state.encoded:
            plan.pool.give(enc_b.array)


def _discrepancies(plan, products, columns: ColumnMap):
    """The discrepancy grids of ``products`` (each holding ``columns``)
    over the columns they hold, their items side by side: one pass per
    product into its slices of one pair of grids."""
    cols = columns.count * columns.kept
    blocks = columns.count * plan.col_layout.num_blocks
    col_disc = np.empty((plan.row_layout.num_blocks, len(products) * cols))
    row_disc = np.empty((plan.row_layout.encoded_rows, len(products) * blocks))
    for i, product in enumerate(products):
        column_discrepancies(
            product, plan.row_layout, out=col_disc[:, i * cols : (i + 1) * cols]
        )
        _compact_row_discrepancies(
            product,
            plan.col_layout,
            columns.kept,
            out=row_disc[:, i * blocks : (i + 1) * blocks],
        )
    return col_disc, row_disc


def _chunk_grids(plan, cfg, state: _ChunkState) -> AABFTToleranceGrids:
    """The chunk's tolerance grids: one build over its stacked top-p data.

    The grids cover the columns the chunk's products hold, its items'
    side by side, each bitwise equal to building it alone.
    """
    count = len(state.items)
    enc = state.encoded
    if isinstance(enc, ChunkEncodedB):
        columns = state.columns
        col_values, col_indices = (
            (enc.top_values, enc.top_indices) if columns.identity
            else enc.compact_tops
        )
    else:
        columns = column_map(plan.q, plan.col_layout.block_size, count).full
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
        columns.checksums(plan.col_layout.block_size),
        epsilon_floor=cfg.epsilon_floor,
        pool=plan.pool,
    )
