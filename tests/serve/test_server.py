"""MatmulServer: coalescing, backpressure, degradation ladder, recovery."""

import numpy as np
import pytest

from repro.abft.checking import check_partitioned
from repro.abft.result import AbftResult
from repro.engine import AbftConfig, MatmulEngine
from repro.errors import BoundSchemeError
from repro.serve import (
    MatmulRequest,
    MatmulServer,
    ServeConfig,
    VerificationStatus,
)
from repro.telemetry import MetricsRegistry


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FaultyEngine(MatmulEngine):
    """Corrupts one element of the first fused result per call."""

    def __init__(self, *args, fail_forever=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_forever = fail_forever

    def _corrupt(self, res):
        c_fc = res.c_fc.copy()
        c_fc[3, 5] += 1.0
        report = check_partitioned(
            c_fc, res.row_layout, res.col_layout, res.provider
        )
        c = res.c.copy()
        c[3, 5] += 1.0
        return AbftResult(
            c=c, c_fc=c_fc, report=report, row_layout=res.row_layout,
            col_layout=res.col_layout, provider=res.provider,
        )

    def execute_batch(self, requests, **kwargs):
        results = super().execute_batch(requests, **kwargs)
        if results:
            results[0] = self._corrupt(results[0])
        return results

    def matmul(self, a, b, **kwargs):
        res = super().matmul(a, b, **kwargs)
        if self.fail_forever:
            res = self._corrupt(res)
        return res


@pytest.fixture
def operands():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (64, 64))
    bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(6)]
    return a, bs


def make_server(config=None, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("auto_start", False)
    return MatmulServer(config or ServeConfig(batch_window_s=0.0), **kwargs)


def counter_value(registry, name, **labels):
    family = registry._families[name]
    return family.labels(**labels).get() if labels else family.get()


class TestMicroBatching:
    def test_same_shape_requests_coalesce(self, operands):
        a, bs = operands
        server = make_server()
        futs = [server.submit(a, b) for b in bs]
        server.start()
        server.stop(drain=True)
        responses = [f.result() for f in futs]
        assert all(r.status is VerificationStatus.FULL for r in responses)
        assert responses[0].batch_size == len(bs)
        hist = server.registry._families["abft_serve_batch_size"].get()
        assert hist["count"] == 1 and hist["sum"] == len(bs)

    def test_batch_results_bitwise_match_serial(self, operands):
        a, bs = operands
        reference = [MatmulEngine().matmul(a, b).c for b in bs]
        server = make_server()
        futs = [server.submit(a, b) for b in bs]
        server.start()
        server.stop(drain=True)
        for fut, ref in zip(futs, reference):
            assert np.array_equal(fut.result().c, ref)

    def test_different_shapes_split_batches(self, operands):
        a, bs = operands
        rng = np.random.default_rng(8)
        other = rng.uniform(-1, 1, (64, 16))
        server = make_server()
        f1 = server.submit(a, bs[0])
        f2 = server.submit(a, other)
        f3 = server.submit(a, bs[1])
        server.start()
        server.stop(drain=True)
        assert f1.result().batch_size == 2  # coalesced with f3 across f2
        assert f2.result().batch_size == 1
        assert f3.result().batch_size == 2

    def test_different_configs_split_batches(self, operands):
        a, bs = operands
        server = make_server()
        f1 = server.submit(a, bs[0])
        f2 = server.submit(a, bs[1], config=AbftConfig(p=3))
        server.start()
        server.stop(drain=True)
        assert f1.result().batch_size == 1
        assert f2.result().batch_size == 1

    def test_max_batch_size_bounds_coalescing(self, operands):
        a, bs = operands
        server = make_server(ServeConfig(batch_window_s=0.0, max_batch_size=4))
        futs = [server.submit(a, b) for b in bs]
        server.start()
        server.stop(drain=True)
        sizes = sorted(f.result().batch_size for f in futs)
        assert sizes == [2, 2, 4, 4, 4, 4]

    def test_encoded_handles_accepted(self, operands):
        a, bs = operands
        server = make_server()
        handle = server.engine.encode(a, side="a")
        futs = [server.submit(handle, b) for b in bs[:3]]
        server.start()
        server.stop(drain=True)
        assert all(f.result().status is VerificationStatus.FULL for f in futs)
        assert futs[0].result().batch_size == 3


class TestBackpressure:
    def test_queue_full_rejections_explicit_and_counted(self, operands):
        a, bs = operands
        server = make_server(ServeConfig(batch_window_s=0.0, max_queue_depth=2))
        futs = [server.submit(a, bs[i % len(bs)]) for i in range(5)]
        rejected = [f.result() for f in futs if f.done()]
        assert len(rejected) == 3
        assert all(r.status is VerificationStatus.REJECTED for r in rejected)
        assert all(r.rejected_reason == "queue_full" for r in rejected)
        assert counter_value(
            server.registry, "abft_serve_rejections_total", reason="queue_full"
        ) == 3
        server.start()
        server.stop(drain=True)
        served = [f.result() for f in futs if f.result().ok]
        assert len(served) == 2
        assert counter_value(
            server.registry, "abft_serve_requests_total", outcome="completed"
        ) == 2
        assert counter_value(
            server.registry, "abft_serve_requests_total", outcome="rejected"
        ) == 3

    def test_queue_depth_gauge_tracks_admissions(self, operands):
        a, bs = operands
        server = make_server()
        server.submit(a, bs[0])
        server.submit(a, bs[1])
        assert server.queue_depth == 2
        assert server.registry._families["abft_serve_queue_depth"].get() == 2
        server.start()
        server.stop(drain=True)
        assert server.registry._families["abft_serve_queue_depth"].get() == 0

    def test_submit_after_stop_rejected_as_shutdown(self, operands):
        a, bs = operands
        server = make_server()
        server.start()
        server.stop(drain=True)
        response = server.submit(a, bs[0]).result()
        assert response.status is VerificationStatus.REJECTED
        assert response.rejected_reason == "shutdown"

    def test_stop_without_drain_rejects_queued(self, operands):
        a, bs = operands
        server = make_server()  # dispatcher never started
        futs = [server.submit(a, b) for b in bs[:3]]
        server.stop(drain=False)
        for fut in futs:
            assert fut.result().rejected_reason == "shutdown"


class TestDegradationLadder:
    def run_with_pressure(self, deadline_s, advance, config=None, **kwargs):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        clock = FakeClock()
        server = make_server(config, clock=clock, **kwargs)
        fut = server.submit(a, b, deadline_s=deadline_s)
        clock.t = advance
        server.start()
        server.stop(drain=True)
        return server, fut.result()

    def test_no_deadline_stays_full(self, operands):
        a, bs = operands
        server = make_server()
        fut = server.submit(a, bs[0])
        server.start()
        server.stop(drain=True)
        assert fut.result().status is VerificationStatus.FULL
        assert fut.result().scheme == "aabft"

    def test_mild_pressure_degrades_to_sea(self):
        server, response = self.run_with_pressure(10.0, 7.0)  # 30% remaining
        assert response.status is VerificationStatus.DEGRADED
        assert response.scheme == "sea"
        assert response.report is not None  # still checked, never silent
        assert counter_value(
            server.registry, "abft_serve_degradations_total", rung="sea"
        ) == 1

    def test_severe_pressure_drops_to_unchecked_but_flagged(self):
        server, response = self.run_with_pressure(10.0, 9.5)  # 5% remaining
        assert response.status is VerificationStatus.UNCHECKED
        assert response.scheme is None and response.report is None
        assert not response.verified
        assert counter_value(
            server.registry, "abft_serve_degradations_total", rung="unchecked"
        ) == 1

    def test_ladder_walked_in_order_with_increasing_pressure(self):
        statuses = [
            self.run_with_pressure(10.0, advance)[1].status
            for advance in (1.0, 7.0, 9.5)
        ]
        assert statuses == [
            VerificationStatus.FULL,
            VerificationStatus.DEGRADED,
            VerificationStatus.UNCHECKED,
        ]

    def test_expired_deadline_rejected(self):
        server, response = self.run_with_pressure(10.0, 11.0)
        assert response.status is VerificationStatus.REJECTED
        assert response.rejected_reason == "deadline"
        assert counter_value(
            server.registry, "abft_serve_rejections_total", reason="deadline"
        ) == 1

    def test_expired_served_unchecked_when_rejection_disabled(self):
        server, response = self.run_with_pressure(
            10.0, 11.0, config=ServeConfig(batch_window_s=0.0, reject_expired=False)
        )
        assert response.status is VerificationStatus.UNCHECKED

    def test_degraded_result_is_numerically_correct(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        clock = FakeClock()
        server = make_server(clock=clock)
        fut_sea = server.submit(a, b, deadline_s=10.0)
        clock.t = 7.0
        server.start()
        server.stop(drain=True)
        assert np.allclose(fut_sea.result().c, a @ b)


class TestRecovery:
    def test_detected_error_corrected(self, operands):
        a, bs = operands
        clean = MatmulEngine().matmul(a, bs[0]).c
        registry = MetricsRegistry()
        engine = FaultyEngine(registry=registry)
        server = make_server(engine=engine, registry=registry)
        futs = [server.submit(a, b) for b in bs[:3]]
        server.start()
        server.stop(drain=True)
        response = futs[0].result()
        assert response.corrected and not response.detected
        assert response.status is VerificationStatus.FULL
        assert response.report.error_detected  # detection report preserved
        assert np.allclose(response.c, clean, rtol=0, atol=1e-9)
        assert counter_value(
            server.registry, "abft_serve_retries_total", kind="corrected"
        ) == 1
        assert counter_value(
            server.registry, "abft_serve_detections_total"
        ) == 1
        # untouched batch members stay pristine
        assert all(not f.result().detected for f in futs[1:])

    def test_detected_error_recomputed_when_correction_disabled(self, operands):
        a, bs = operands
        clean = MatmulEngine().matmul(a, bs[0]).c
        registry = MetricsRegistry()
        engine = FaultyEngine(registry=registry)
        server = make_server(
            ServeConfig(batch_window_s=0.0, correct_detected=False),
            engine=engine,
            registry=registry,
        )
        futs = [server.submit(a, b) for b in bs[:2]]
        server.start()
        server.stop(drain=True)
        response = futs[0].result()
        assert response.recomputed and response.retries == 1
        assert not response.detected
        assert np.array_equal(response.c, clean)
        assert counter_value(
            server.registry, "abft_serve_retries_total", kind="recomputed"
        ) == 1

    def test_exhausted_retries_reported_honestly(self, operands):
        a, bs = operands
        registry = MetricsRegistry()
        engine = FaultyEngine(registry=registry, fail_forever=True)
        server = make_server(
            ServeConfig(
                batch_window_s=0.0, correct_detected=False, max_retries=2
            ),
            engine=engine,
            registry=registry,
        )
        futs = [server.submit(a, b) for b in bs[:2]]
        server.start()
        server.stop(drain=True)
        response = futs[0].result()
        assert response.detected  # never silently claims success
        assert response.retries == 2 and not response.recomputed
        assert response.report.error_detected


class TestFailureIsolation:
    """A request the engine rejects fails alone, never its micro-batch."""

    @staticmethod
    def operands_with(value):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (64, 64))
        bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(8)]
        bs[5][3, 2] = value
        return a, bs

    @staticmethod
    def serve_one_batch(a, bs):
        server = make_server()
        futs = [server.submit(a, b) for b in bs]
        server.start()
        server.stop(drain=True)
        hist = server.registry._families["abft_serve_batch_size"].get()
        assert hist["count"] == 1 and hist["sum"] == len(bs)
        return server, futs

    def test_inf_operand_fails_only_its_request(self):
        a, bs = self.operands_with(np.inf)
        server, futs = self.serve_one_batch(a, bs)
        with pytest.raises(BoundSchemeError):
            futs[5].result()
        engine = MatmulEngine()
        for i, fut in enumerate(futs):
            if i == 5:
                continue
            response = fut.result()
            assert response.status is VerificationStatus.FULL
            assert not response.detected
            assert np.array_equal(response.c, engine.matmul(a, bs[i]).c)
        assert counter_value(server.registry, "abft_serve_dropped_total") == 1
        assert counter_value(
            server.registry, "abft_serve_requests_total", outcome="completed"
        ) == 7

    def test_nan_operand_flags_only_its_request(self):
        a, bs = self.operands_with(np.nan)
        server, futs = self.serve_one_batch(a, bs)
        responses = [f.result() for f in futs]
        assert [r.detected for r in responses] == [i == 5 for i in range(8)]
        assert all(r.batch_size == 8 for r in responses)
        assert counter_value(server.registry, "abft_serve_dropped_total") == 0


class TestLifecycle:
    def test_context_manager_drains(self, operands):
        a, bs = operands
        with MatmulServer(
            ServeConfig(batch_window_s=0.0), registry=MetricsRegistry()
        ) as server:
            futs = [server.submit(a, b) for b in bs]
        assert all(f.result().ok for f in futs)

    def test_auto_start_on_first_submit(self, operands):
        a, bs = operands
        server = MatmulServer(
            ServeConfig(batch_window_s=0.0), registry=MetricsRegistry()
        )
        assert not server.started
        fut = server.submit(a, bs[0])
        assert server.started
        assert fut.result(timeout=30).status is VerificationStatus.FULL
        server.stop()

    def test_submit_request_object(self, operands):
        a, bs = operands
        server = make_server()
        fut = server.submit_request(MatmulRequest(a=a, b=bs[0], request_id="x1"))
        server.start()
        server.stop(drain=True)
        assert fut.result().request_id == "x1"

    def test_request_ids_assigned_when_missing(self, operands):
        a, bs = operands
        server = make_server()
        futs = [server.submit(a, b) for b in bs[:2]]
        server.start()
        server.stop(drain=True)
        assert [f.result().request_id for f in futs] == ["r1", "r2"]

    def test_invalid_deadline_rejected_at_construction(self, operands):
        a, bs = operands
        with pytest.raises(ValueError):
            MatmulRequest(a=a, b=bs[0], deadline_s=0.0)

    def test_accounting_invariant_across_outcomes(self, operands):
        a, bs = operands
        server = make_server(ServeConfig(batch_window_s=0.0, max_queue_depth=4))
        futs = [server.submit(a, bs[i % len(bs)]) for i in range(7)]
        server.start()
        server.stop(drain=True)
        completed = counter_value(
            server.registry, "abft_serve_requests_total", outcome="completed"
        )
        rejected = counter_value(
            server.registry, "abft_serve_requests_total", outcome="rejected"
        )
        dropped = counter_value(server.registry, "abft_serve_dropped_total")
        assert completed + rejected == len(futs)
        assert dropped == 0
        assert all(f.result() is not None for f in futs)


class TestBackendRouting:
    """Per-request backend pin/exclude merges into the batch AbftConfig."""

    @pytest.fixture(autouse=True)
    def clear_env_pin(self, monkeypatch):
        # These tests assert the negotiated backend, so an ambient
        # AABFT_BACKEND pin must not leak in.
        monkeypatch.delenv("AABFT_BACKEND", raising=False)

    def run_one(self, server, a, b, **submit_kwargs):
        fut = server.submit(a, b, **submit_kwargs)
        server.start()
        server.stop(drain=True)
        return fut.result()

    def test_default_requests_report_numpy(self, operands):
        a, bs = operands
        response = self.run_one(make_server(), a, bs[0])
        assert response.status is VerificationStatus.FULL
        assert response.backend == "numpy"
        assert response.backend_fallback is None

    def test_pinned_backend_is_used_and_bitwise_identical(self, operands):
        a, bs = operands
        reference = self.run_one(make_server(), a, bs[0])
        response = self.run_one(make_server(), a, bs[0], backend="blocked")
        assert response.status is VerificationStatus.FULL
        assert response.backend == "blocked"
        assert response.backend_fallback is None
        assert response.c.tobytes() == reference.c.tobytes()

    def test_unknown_backend_pin_is_rejected(self, operands):
        a, bs = operands
        response = self.run_one(make_server(), a, bs[0], backend="imaginary")
        assert response.status is VerificationStatus.REJECTED
        assert response.rejected_reason == "invalid_backend"

    def test_unavailable_pin_serves_with_recorded_fallback(self, operands):
        a, bs = operands
        response = self.run_one(make_server(), a, bs[0], backend="cupy")
        if response.backend_fallback is None:  # pragma: no cover - CUDA host
            pytest.skip("cupy is available here")
        assert response.status is VerificationStatus.FULL
        assert response.backend == "numpy"
        assert "cupy" in response.backend_fallback

    def test_exclude_backends_merges_into_config(self, operands):
        a, bs = operands
        server = make_server()
        fut = server.submit(a, bs[0], exclude_backends=("blocked",))
        server.start()
        server.stop(drain=True)
        response = fut.result()
        assert response.status is VerificationStatus.FULL
        assert response.backend == "numpy"

    def test_backend_pins_split_batches(self, operands):
        a, bs = operands
        server = make_server()
        f1 = server.submit(a, bs[0])
        f2 = server.submit(a, bs[1], backend="blocked")
        server.start()
        server.stop(drain=True)
        r1, r2 = f1.result(), f2.result()
        assert (r1.backend, r2.backend) == ("numpy", "blocked")
        # Different pins may not coalesce into one micro-batch.
        assert r1.batch_size == 1 and r2.batch_size == 1

    def test_unchecked_responses_carry_numpy_backend(self):
        # Severe deadline pressure drives the unchecked rung; even there
        # the response says which backend computed the product.
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (64, 64))
        b = rng.uniform(-1, 1, (64, 8))
        clock = FakeClock()
        server = make_server(clock=clock)
        fut = server.submit(a, b, deadline_s=10.0)
        clock.t = 9.5  # 5% remaining -> unchecked rung
        server.start()
        server.stop(drain=True)
        response = fut.result()
        assert response.status is VerificationStatus.UNCHECKED
        assert response.backend == "numpy"
