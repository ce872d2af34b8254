"""Tests of the benchmark's own machinery.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

import harness as H
from gemm_workload import GemmSpec, protected_op
from serve_workload import Traffic, _settle


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_operand_pool_is_reproducible_and_seed_dependent():
    one = H.operand_pool(7, 2, 8, 6, 4, "float32")
    again = H.operand_pool(7, 2, 8, 6, 4, "float32")
    other = H.operand_pool(8, 2, 8, 6, 4, "float32")
    for (a, b), (a2, b2) in zip(one, again):
        assert a.dtype == np.float32 and a.shape == (8, 6) and b.shape == (6, 4)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)
    assert not np.array_equal(one[0][0], other[0][0])


def test_serve_traffic_is_reproducible():
    one, two = Traffic(5), Traffic(5)
    for k in (0, 7, 15, 1000):
        a1, b1 = one.pair(k)
        a2, b2 = two.pair(k)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)
    # Every FRESH_EVERY-th request carries its own weight; the rest share one.
    assert one.pair(0)[0] is one.pair(1)[0]
    assert one.pair(7)[0] is not one.pair(0)[0]


def test_computed_counts_repeat_exactly():
    first = H.stage_counts(256, 256, 256, 64, 2, 8)
    assert first == H.stage_counts(256, 256, 256, 64, 2, 8)
    assert first["gemm"]["flops"] == 2 * 260 * 256 * 260


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_requires_ten_samples_beyond():
    assert H.percentile(range(1, 101), 90) == 90.0  # 10 samples beyond rank 90
    with pytest.raises(H.InsufficientSamples):
        H.percentile(range(1, 100), 90)  # rank 90 of 99 leaves 9 beyond
    assert H.percentile(range(20), 50) == 9.0
    with pytest.raises(H.InsufficientSamples):
        H.percentile(range(19), 50)


def test_percentile_returns_a_measured_sample():
    samples = [0.3, 0.1, 0.2] * 40
    assert H.percentile(samples, 50) in samples
    assert H.median([3.0, 1.0, 2.0, 4.0]) == 3.0


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_reference_scaling_cancels_a_host_slowdown():
    ref_s = H.CAL_REFERENCE_S
    # 30 operations at full speed, then 30 with the host 1.5x slower:
    # operation and calibration kernel slow down alike.
    seconds = [0.010] * 30 + [0.015] * 30
    cal = [ref_s] * 30 + [1.5 * ref_s] * 30
    scaled = H.to_reference_series(seconds, cal, half_window=3)
    assert scaled == pytest.approx([0.010] * 60)
    assert H.to_reference(0.2, [2 * ref_s, 2 * ref_s, 9 * ref_s]) == pytest.approx(0.1)


def test_local_calibration_ignores_one_disturbed_sample():
    cal = [1.0] * 10
    cal[5] = 50.0
    assert H.local_calibration(cal, half_window=2) == [1.0] * 10
    with pytest.raises(ValueError):
        H.to_reference_series([1.0, 2.0], [1.0])


# ----------------------------------------------------------------------
# failure accounting against fake targets
# ----------------------------------------------------------------------
class FakeEngine:
    """Hands back scripted outcomes: an exception or a result object."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def matmul(self, a, b):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _result(c, *, detected=False, fallback=None, fused=True):
    return SimpleNamespace(c=c, detected=detected, backend_fallback=fallback, fused=fused)


def _response(c, status="full", **flags):
    fields = dict(
        detected=False, corrected=False, recomputed=False, backend_fallback=None,
        queue_wait_s=0.001, service_s=0.002, batch_size=1,
    )
    fields.update(flags)
    return SimpleNamespace(c=c, status=SimpleNamespace(value=status), request_id="q", **fields)


def _layer(rung="full", **flags):
    fields = dict(detected=False, recomputed=False, degraded=False)
    fields.update(flags)
    return SimpleNamespace(rung=rung, **fields)


def test_each_failure_kind_counts_exactly_once():
    ledger = H.Ledger()
    a = np.eye(4)
    b = np.arange(16.0).reshape(4, 4)
    ref = a @ b
    wrong = ref + 1.0
    spec = GemmSpec(n=4, dtype="float64", fusion="fused", pool=1, require_fused=True)

    # gemm: raised, invalid path (fallback; separate when fused is required),
    # detection on clean input, wrong result, then one good call.  The
    # fallback result is also detected and wrong: it still counts once.
    engine = FakeEngine(
        [
            RuntimeError("boom"),
            _result(wrong, detected=True, fallback="dispatch failed"),
            _result(ref, fused=False),
            _result(ref, detected=True),
            _result(wrong),
            _result(ref),
        ]
    )
    for _ in range(6):
        protected_op(engine, a, b, spec, ledger, ref=ref)
    assert dict(ledger.kinds) == {
        "raised": 1,
        "invalid_path": 2,
        "false_detection": 1,
        "wrong_result": 1,
    }

    # serve: rejected, degraded, dropped (the future raised), then good.
    traffic = SimpleNamespace(reference=lambda k: ref)
    served = []
    for response in (_response(None, "rejected"), _response(ref, "degraded"), _response(ref)):
        fut = Future()
        fut.set_result(response)
        _settle({"k": 0}, fut, traffic, ledger, served)
    fut = Future()
    fut.set_exception(RuntimeError("scheduler bug"))
    _settle({"k": 0}, fut, traffic, ledger, served)
    assert len(served) == 1

    # probes: one caught, one missed.
    ledger.record(H.classify_probe(True))
    ledger.record(H.classify_probe(False))

    # model: a degraded layer, then a clean pass.
    ledger.record(H.classify_model(SimpleNamespace(layers=[_layer("sea")], output=ref), ref, 4, "float64"))
    ledger.record(H.classify_model(SimpleNamespace(layers=[_layer()], output=ref), ref, 4, "float64"))

    assert dict(ledger.kinds) == {
        "raised": 1,
        "invalid_path": 2,
        "false_detection": 1,
        "wrong_result": 1,
        "rejected": 1,
        "degraded": 2,
        "dropped": 1,
        "missed_fault": 1,
    }
    assert set(ledger.kinds) == set(H.FAILURE_KINDS)
    assert ledger.attempted == 6 + 4 + 2 + 2
    assert ledger.failed == 10
    assert ledger.failed_frac == pytest.approx(10 / 14)


def test_served_response_classification():
    ref = np.ones((2, 2))
    assert H.classify_response(_response(ref), ref, 2, "float64") is None
    assert H.classify_response(_response(ref, corrected=True), ref, 2, "float64") == (
        "false_detection"
    )
    assert H.classify_response(_response(ref + 1), ref, 2, "float64") == "wrong_result"
    assert H.classify_response(_response(ref, backend_fallback="x"), ref, 2, "float64") == (
        "invalid_path"
    )


def test_ledger_refuses_unknown_kinds():
    with pytest.raises(ValueError):
        H.Ledger().record("slow")


# ----------------------------------------------------------------------
# the command itself
# ----------------------------------------------------------------------
def test_command_fails_without_program_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark, it exits nonzero, silently."""
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(bench)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gemm_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
