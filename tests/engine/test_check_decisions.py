"""Lower-bound-first check decisions: the same reports as the exact check
on every path, counted by ``abft_check_decisions_total``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abft.checking import check_partitioned
from repro.abft.providers import AABFTToleranceGrids
from repro.backends import BackendRegistry
from repro.engine import AbftConfig, ExecutionPolicy, MatmulEngine
from repro.errors import BoundSchemeError
from repro.fp.bits import flip_bit
from repro.telemetry import MetricsRegistry
from tests.engine.test_pipeline import SpyBackend

PIPELINED = ExecutionPolicy(mode="pipelined")
SEPARATE = AbftConfig(fusion="separate", block_size=16)
PATHS = ("serial", "concatenated", "per_item")


def fresh_engine(cfg=SEPARATE, **kwargs) -> MatmulEngine:
    return MatmulEngine(cfg, registry=MetricsRegistry(), max_workers=1, **kwargs)


def decisions(engine) -> dict[str, float]:
    counter = engine.registry.counter(
        "abft_check_decisions_total", labelnames=("by",)
    )
    return {by: counter.labels(by=by).get() for by in ("lower_bound", "exact")}


class BitFlip:
    """Chaos hook: flip one bit of the element at ``(row, col)`` of every
    result the engine dispatches (a concatenated chunk result holds the
    first item's columns first, so only that item is hit there)."""

    def __init__(self, row: int, col: int, bit: int) -> None:
        self.row, self.col, self.bit = row, col, bit

    def __call__(self, event, **kwargs) -> None:
        c_fc = kwargs.get("c_fc")
        if event == "result" and c_fc is not None:
            c_fc[self.row, self.col] = flip_bit(c_fc[self.row, self.col], self.bit)


def run_path(path, a, bs, cfg=SEPARATE, hook=None):
    """Results of ``a @ b`` for every ``b`` through one execution path.

    The pipelined paths first run the batch once so the bitwise probe
    records a verdict, then pin it: ``"compact"`` runs the chunk through
    one concatenated GEMM over every item's kept columns, ``"per_item"``
    through one full-width GEMM per item, as the right operand widths the
    backend saw show.
    """
    spy = SpyBackend()
    backends = BackendRegistry()
    backends.register("numpy", lambda: spy)
    engine = fresh_engine(cfg, backends=backends)
    if path == "serial":
        engine.set_chaos_hook(hook)
        return engine, [engine.matmul(a, b) for b in bs]
    engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
    for plan in list(engine._plans._plans.values()):
        with plan.probe_lock:
            for width in plan.probe_verdicts:
                plan.probe_verdicts[width] = (
                    "compact" if path == "concatenated" else "per_item"
                )
    engine.reset_stats()
    engine.set_chaos_hook(hook)
    spy.b_shapes.clear()
    results = engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
    q, bsz = bs[0].shape[1], cfg.block_size
    blocks = -(-q // bsz)
    widths = [shape[1] for shape in spy.b_shapes]
    if path == "concatenated":
        assert widths == [len(bs) * (q + blocks)]
    else:
        assert widths == [blocks * (bsz + 1)] * len(bs)
    return engine, results


def assert_same_report(got, ref):
    """Every report field equal, NaN discrepancies included."""
    def findings(report):
        return [
            (f.axis, f.block_row, f.block_col, f.encoded_row, f.encoded_col,
             f.epsilon, "nan" if np.isnan(f.discrepancy) else f.discrepancy)
            for f in report.findings
        ]

    assert findings(got) == findings(ref)
    assert got.num_checks == ref.num_checks
    assert got.located_errors == ref.located_errors
    assert got.column_disc.tobytes() == ref.column_disc.tobytes()
    assert got.row_disc.tobytes() == ref.row_disc.tobytes()


def assert_matches_exact_check(result):
    """The result's report equals the scalar reference check of its bytes."""
    ref = check_partitioned(
        result.c_fc, result.row_layout, result.col_layout, result.provider,
        use_grids=False,
    )
    assert_same_report(result.report, ref)


def operands(seed, dtype=np.float64, m=40, n=48, q=24, k=4):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n)).astype(dtype)
    return a, [rng.uniform(-1, 1, (n, q)).astype(dtype) for _ in range(k)]


class TestVerdictIdentity:
    """Reports equal the scalar exact check for clean results and for
    injected flips, on the serial and both pipelined chunk paths."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("path", PATHS)
    def test_clean_results(self, path, dtype):
        a, bs = operands(1, dtype)
        engine, results = run_path(path, a, bs)
        for result in results:
            assert not result.detected
            assert_matches_exact_check(result)
        assert decisions(engine) == {"lower_bound": len(bs), "exact": 0}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bit", ["exponent", "mantissa_high", "mantissa_low"])
    @pytest.mark.parametrize("path", PATHS)
    def test_injected_flips(self, path, bit, dtype):
        a, bs = operands(2, dtype)
        nmant = np.finfo(dtype).nmant
        index = {"exponent": nmant + 2, "mantissa_high": nmant - 1, "mantissa_low": 0}
        # encoded (row 5, column 3): a data element of the first block
        engine, results = run_path(path, a, bs, hook=BitFlip(5, 3, index[bit]))
        for result in results:
            assert_matches_exact_check(result)
        if bit == "exponent":
            assert results[0].detected
            assert (5, 3) in results[0].report.located_errors
        detected = sum(r.detected for r in results)
        counts = decisions(engine)
        assert counts["lower_bound"] + counts["exact"] == len(bs)
        if detected:
            assert counts["exact"] > 0
        if path != "serial" and counts["exact"]:
            # one exact build per chunk decides every item of it
            assert counts["lower_bound"] == 0


def exact_only(monkeypatch):
    monkeypatch.setattr(AABFTToleranceGrids, "lower", lambda self: None)


class TestBitwiseAgainstExactOnly:
    """With the lower bound switched off every check takes the exact
    grids, as it did before; results and reports must not change."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        path=st.sampled_from(PATHS),
        dtype=st.sampled_from([np.float64, np.float32]),
        shape=st.tuples(st.integers(1, 50), st.integers(3, 40), st.integers(1, 40)),
        p=st.integers(1, 3),
        fma=st.booleans(),
        floor=st.sampled_from([0.0, 1e-13]),
        fault=st.sampled_from([None, 0, 30, 52]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_reports_match_the_exact_only_check(
        self, monkeypatch, path, dtype, shape, p, fma, floor, fault, seed
    ):
        m, n, q = shape
        cfg = AbftConfig(
            fusion="separate", block_size=8, p=p, fma=fma, epsilon_floor=floor
        )
        a, bs = operands(seed, dtype, m, n, q, k=3)
        bit = None if fault is None else min(fault, np.finfo(dtype).nmant + 2)
        hook = None if bit is None else BitFlip(1, 2, bit)
        _engine, fast = run_path(path, a, bs, cfg, hook)
        with monkeypatch.context() as patch:
            exact_only(patch)
            _engine, slow = run_path(path, a, bs, cfg, hook)
        for got, ref in zip(fast, slow):
            assert got.c.tobytes() == ref.c.tobytes()
            assert got.c_fc.tobytes() == ref.c_fc.tobytes()
            assert_same_report(got.report, ref.report)


class TestDecisionCounter:
    def test_other_schemes_and_fused_decide_exactly(self):
        a, bs = operands(3)
        for cfg in (
            AbftConfig(scheme="sea", block_size=16),
            AbftConfig(scheme="fixed", fixed_epsilon=1e-6, block_size=16),
            AbftConfig(fusion="fused", fused_tile_blocks=1, block_size=16),
        ):
            engine = fresh_engine(cfg)
            engine.matmul(a, bs[0])
            assert decisions(engine) == {"lower_bound": 0, "exact": 1}, cfg

    def test_nan_operand_is_decided_exactly(self):
        a, bs = operands(4)
        bs[1][3, 2] = np.nan
        for path in PATHS:
            engine, results = run_path(path, a, bs)
            assert [r.detected for r in results] == [False, True, False, False]
            for result in results:
                assert_matches_exact_check(result)
            assert decisions(engine)["exact"] >= 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("path", PATHS)
    def test_inf_operand_still_raises(self, path):
        a, bs = operands(5)
        if path != "serial":
            engine, _ = run_path(path, a, bs)
        bs[2][0, 0] = np.inf
        if path == "serial":
            with pytest.raises(BoundSchemeError):
                fresh_engine().matmul(a, bs[2])
            return
        with pytest.raises(BoundSchemeError):
            engine.execute_batch([(a, b) for b in bs], policy=PIPELINED)
