"""Deadline skew: requests expiring mid-batch must land on the ladder.

A request whose deadline expires between admission and dispatch (e.g.
because the clock jumped forward — the chaos ``clock_skew`` fault) must
resolve to an *explicit* outcome on every execution policy: a
``deadline`` rejection when the server rejects expired work, or the
ladder's last rung (``UNCHECKED``) when it serves it.  Nothing may be
silently dropped, and the ``abft_serve_*`` counters must account for
every request.
"""

import numpy as np
import pytest

from repro.engine import ExecutionPolicy
from repro.serve import MatmulServer, ServeConfig, VerificationStatus
from repro.telemetry import MetricsRegistry

POLICIES = ("serial", "pipelined")


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


@pytest.fixture
def operands():
    rng = np.random.default_rng(11)
    a = rng.uniform(-1, 1, (64, 64))
    bs = [rng.uniform(-1, 1, (64, 8)) for _ in range(6)]
    return a, bs


def make_server(mode, *, reject_expired, clock):
    config = ServeConfig(
        batch_window_s=0.0,
        execution=ExecutionPolicy(mode=mode),
        reject_expired=reject_expired,
    )
    return MatmulServer(
        config,
        registry=MetricsRegistry(),
        auto_start=False,
        clock=clock,
    )


def counter_value(registry, name, **labels):
    family = registry._families[name]
    return family.labels(**labels).get() if labels else family.get()


@pytest.mark.parametrize("mode", POLICIES)
class TestExpiredMidBatch:
    def test_expired_requests_are_rejected_with_reason(self, operands, mode):
        a, bs = operands
        clock = FakeClock()
        server = make_server(mode, reject_expired=True, clock=clock)
        futs = [server.submit(a, b, deadline_s=1.0) for b in bs]
        clock.advance(5.0)  # every deadline expires while queued
        server.start()
        server.stop(drain=True)
        responses = [f.result() for f in futs]
        assert all(r.status is VerificationStatus.REJECTED for r in responses)
        assert all(r.rejected_reason == "deadline" for r in responses)
        reg = server.registry
        assert counter_value(
            reg, "abft_serve_rejections_total", reason="deadline"
        ) == len(bs)
        assert counter_value(reg, "abft_serve_dropped_total") == 0

    def test_expired_requests_land_on_last_rung(self, operands, mode):
        a, bs = operands
        clock = FakeClock()
        server = make_server(mode, reject_expired=False, clock=clock)
        futs = [server.submit(a, b, deadline_s=1.0) for b in bs]
        clock.advance(5.0)
        server.start()
        server.stop(drain=True)
        responses = [f.result() for f in futs]
        # Served, explicitly flagged unverified — never silently dropped.
        assert all(r.status is VerificationStatus.UNCHECKED for r in responses)
        assert all(r.c is not None for r in responses)
        assert all(not r.verified for r in responses)
        for r, b in zip(responses, bs):
            assert np.allclose(r.c, a @ b)
        reg = server.registry
        assert counter_value(
            reg, "abft_serve_degradations_total", rung="unchecked"
        ) == len(bs)
        assert counter_value(reg, "abft_serve_dropped_total") == 0

    def test_mixed_live_and_expired_batch_reconciles(self, operands, mode):
        a, bs = operands
        clock = FakeClock()
        server = make_server(mode, reject_expired=True, clock=clock)
        live = [server.submit(a, b) for b in bs[:3]]  # no deadline
        doomed = [server.submit(a, b, deadline_s=1.0) for b in bs[3:]]
        clock.advance(5.0)  # expires only the deadlined half mid-queue
        server.start()
        server.stop(drain=True)
        live_r = [f.result() for f in live]
        doomed_r = [f.result() for f in doomed]
        assert all(r.status is VerificationStatus.FULL for r in live_r)
        assert all(r.status is VerificationStatus.REJECTED for r in doomed_r)
        assert all(r.rejected_reason == "deadline" for r in doomed_r)
        reg = server.registry
        completed = counter_value(
            reg, "abft_serve_requests_total", outcome="completed"
        )
        rejected = counter_value(
            reg, "abft_serve_requests_total", outcome="rejected"
        )
        assert completed == len(live_r)
        assert rejected == len(doomed_r)
        assert completed + rejected == len(bs)
        assert counter_value(reg, "abft_serve_dropped_total") == 0

    def test_degraded_rung_when_skew_eats_most_of_the_budget(
        self, operands, mode
    ):
        a, bs = operands
        clock = FakeClock()
        server = make_server(mode, reject_expired=True, clock=clock)
        # 70% of the budget gone at dispatch: remaining fraction 0.3 sits
        # between the default degrade fractions (0.5, 0.2) -> sea rung.
        futs = [server.submit(a, b, deadline_s=10.0) for b in bs]
        clock.advance(7.0)
        server.start()
        server.stop(drain=True)
        responses = [f.result() for f in futs]
        assert all(r.status is VerificationStatus.DEGRADED for r in responses)
        assert all(r.scheme == "sea" for r in responses)
        assert all(r.verified for r in responses)
        reg = server.registry
        assert counter_value(
            reg, "abft_serve_degradations_total", rung="sea"
        ) == len(bs)
        assert counter_value(reg, "abft_serve_dropped_total") == 0
