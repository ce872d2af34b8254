"""Closed-loop load generator for the serving layer.

:func:`run_loadgen` drives a :class:`~repro.serve.server.MatmulServer`
with a fixed number of requests at a fixed concurrency window (a closed
loop: a new request is submitted only when a slot frees up), measures
client-observed latencies and tallies every response by its
:class:`~repro.serve.request.VerificationStatus`.

Beyond the numbers, the generator checks the serving layer's
**accounting invariants** — the properties the ``serve-smoke`` CI job
gates on:

* every submitted request resolves: ``served + rejected + dropped ==
  submitted`` and ``dropped == 0``;
* no response is silently unverified: without deadline pressure every
  served response is ``FULL``; rejections always carry a reason;
* with ``verify_results=True``, no response is silently *wrong*: a
  result that differs from the reference product must either be flagged
  ``detected`` or carry an ``UNCHECKED`` status — a verified-and-clean
  wrong answer is the one unforgivable outcome;
* with ``reconcile=True`` (the default whenever the generator owns the
  server), the client-side tally is reconciled against the
  ``abft_serve_*`` counter movement over the run — every mismatch is
  reported as a labelled diff line, not a bare assert.
"""

from __future__ import annotations

import time
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..workloads import uniform_matrix
from .config import ServeConfig
from .request import MatmulResponse, VerificationStatus
from .server import MatmulServer

__all__ = [
    "LoadgenResult",
    "run_loadgen",
    "percentile",
    "serve_counter_snapshot",
    "reconcile_counters",
]


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    if not 0 < pct <= 100:
        raise ValueError(f"pct must lie in (0, 100], got {pct}")
    rank = max(1, int(np.ceil(pct / 100.0 * len(sorted_values))))
    return float(sorted_values[rank - 1])


@dataclass
class LoadgenResult:
    """Everything one load-generation run observed.

    ``latencies_s`` holds the client-observed (submit → resolve) seconds
    of every *served* response, sorted ascending.
    """

    submitted: int
    wall_s: float
    status_counts: dict[str, int] = field(default_factory=dict)
    rejection_reasons: dict[str, int] = field(default_factory=dict)
    detected: int = 0
    corrected: int = 0
    recomputed: int = 0
    retry_attempts: int = 0
    dropped: int = 0
    max_batch_size: int = 0
    silent_wrong: int = 0
    honest_wrong: int = 0
    latencies_s: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def served(self) -> int:
        """Responses that were executed (any non-rejected status)."""
        return sum(
            count
            for status, count in self.status_counts.items()
            if status != VerificationStatus.REJECTED.value
        )

    @property
    def rejected(self) -> int:
        return self.status_counts.get(VerificationStatus.REJECTED.value, 0)

    @property
    def throughput_rps(self) -> float:
        """Served requests per wall-clock second."""
        return self.served / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies_s, 50)

    @property
    def p90_s(self) -> float:
        return percentile(self.latencies_s, 90)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 99)

    @property
    def ok(self) -> bool:
        """Whether every accounting invariant held."""
        return not self.violations

    def summary(self) -> dict:
        """A JSON-friendly summary (what ``aabft loadgen`` prints)."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "dropped": self.dropped,
            "status_counts": dict(self.status_counts),
            "rejection_reasons": dict(self.rejection_reasons),
            "detected": self.detected,
            "corrected": self.corrected,
            "recomputed": self.recomputed,
            "retry_attempts": self.retry_attempts,
            "silent_wrong": self.silent_wrong,
            "honest_wrong": self.honest_wrong,
            "max_batch_size": self.max_batch_size,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_s": {
                "p50": self.p50_s,
                "p90": self.p90_s,
                "p99": self.p99_s,
            },
            "ok": self.ok,
            "violations": list(self.violations),
        }


def run_loadgen(
    server: MatmulServer | None = None,
    *,
    requests: int = 200,
    concurrency: int = 16,
    m: int = 128,
    n: int = 128,
    q: int = 16,
    shared_a: bool = True,
    deadline_s: float | None = None,
    seed: int = 0,
    serve_config: ServeConfig | None = None,
    registry=None,
    timeout_s: float = 120.0,
    verify_results: bool = False,
    reconcile: bool | None = None,
) -> LoadgenResult:
    """Drive a server with a closed-loop uniform-matrix workload.

    Parameters
    ----------
    server:
        The server to drive.  ``None`` builds one from ``serve_config``
        (and ``registry``) and stops it — drained — when the run ends.
    requests / concurrency:
        Total requests and the closed-loop window: at most ``concurrency``
        requests are outstanding at any moment.
    m, n, q:
        Workload shapes: ``A`` is ``m x n``, each ``B_i`` is ``n x q``.
    shared_a:
        One shared weight matrix ``A`` across all requests (the serving
        pattern micro-batching amortises best); ``False`` draws a fresh
        ``A`` per request.
    deadline_s:
        Per-request deadline; drives the degradation ladder under load.
    seed:
        Workload RNG seed.
    timeout_s:
        Per-future safety timeout — a hung server fails loudly instead of
        blocking the generator forever.
    verify_results:
        Compute the reference product at submission time and compare every
        served result against it.  A wrong result that claims verification
        without a detection flag is a **silent wrong answer** — reported
        as a violation.  Wrong-but-honest results (``UNCHECKED`` status or
        ``detected=True``) are tallied in ``honest_wrong`` only.
    reconcile:
        Reconcile the client-side tally against the movement of the
        ``abft_serve_*`` counters over the run; every mismatch becomes a
        labelled diff line in ``violations``.  Defaults to ``True`` when
        the generator builds (and therefore exclusively owns) the server,
        ``False`` for a caller-provided server whose registry may carry
        concurrent traffic.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    own_server = server is None
    if own_server:
        kwargs = {} if registry is None else {"registry": registry}
        server = MatmulServer(serve_config, **kwargs)
    if reconcile is None:
        reconcile = own_server

    rng = np.random.default_rng(seed)
    a_shared = uniform_matrix(m, n, rng) if shared_a else None

    # (response | exception, latency, wrong-result flag | None)
    records: list[tuple[object, float, bool | None]] = []

    def _on_done(fut, t0: float, ref) -> None:
        latency = time.perf_counter() - t0
        try:
            response = fut.result()
        except BaseException as exc:  # noqa: BLE001 - tallied as dropped
            records.append((exc, latency, None))
            return
        wrong = None
        if ref is not None and getattr(response, "c", None) is not None:
            wrong = not np.allclose(response.c, ref)
        records.append((response, latency, wrong))

    counters_before = (
        serve_counter_snapshot(server.registry) if reconcile else None
    )
    try:
        outstanding: deque = deque()
        submitted = 0
        t_start = time.perf_counter()
        while submitted < requests or outstanding:
            while submitted < requests and len(outstanding) < concurrency:
                a = a_shared if shared_a else uniform_matrix(m, n, rng)
                b = uniform_matrix(n, q, rng)
                ref = a @ b if verify_results else None
                t0 = time.perf_counter()
                fut = server.submit(
                    a,
                    b,
                    deadline_s=deadline_s,
                    request_id=f"lg{submitted}",
                )
                fut.add_done_callback(
                    lambda f, t0=t0, ref=ref: _on_done(f, t0, ref)
                )
                outstanding.append(fut)
                submitted += 1
            fut = outstanding.popleft()
            try:
                fut.result(timeout=timeout_s)
            except Exception:
                pass  # tallied via the done callback
        wall = time.perf_counter() - t_start
        # fut.result() wakes as soon as the result is *set*; the done
        # callback that records it runs afterwards on the resolving
        # thread.  Wait for the stragglers or the tally under-counts.
        drain_deadline = time.perf_counter() + timeout_s
        while len(records) < submitted and time.perf_counter() < drain_deadline:
            time.sleep(0.0005)
    finally:
        if own_server:
            server.stop(drain=True)

    result = _tally(records, submitted, wall, deadline_s)
    if reconcile:
        delta = counter_delta(
            counters_before, serve_counter_snapshot(server.registry)
        )
        result.violations.extend(reconcile_counters(result, delta))
    return result


def _tally(
    records: list,
    submitted: int,
    wall: float,
    deadline_s: float | None,
) -> LoadgenResult:
    statuses: _TallyCounter = _TallyCounter()
    reasons: _TallyCounter = _TallyCounter()
    latencies: list[float] = []
    detected = corrected = recomputed = retry_attempts = dropped = 0
    silent_wrong = honest_wrong = 0
    max_batch = 0
    violations: list[str] = []

    for outcome, latency, wrong in records:
        if not isinstance(outcome, MatmulResponse):
            dropped += 1
            violations.append(f"request died without a response: {outcome!r}")
            continue
        statuses[outcome.status.value] += 1
        if outcome.status is VerificationStatus.REJECTED:
            if not outcome.rejected_reason:
                violations.append(
                    f"{outcome.request_id}: rejected without a reason"
                )
            else:
                reasons[outcome.rejected_reason] += 1
            continue
        latencies.append(latency)
        max_batch = max(max_batch, outcome.batch_size)
        if outcome.c is None:
            violations.append(f"{outcome.request_id}: served without a result")
        if outcome.verified and outcome.report is None:
            violations.append(
                f"{outcome.request_id}: verified status without a report"
            )
        if deadline_s is None and outcome.status is not VerificationStatus.FULL:
            violations.append(
                f"{outcome.request_id}: served {outcome.status.value} "
                "without deadline pressure"
            )
        if wrong:
            if outcome.verified and not outcome.detected:
                # The one unforgivable outcome: a wrong result claiming
                # clean verification.
                silent_wrong += 1
                violations.append(
                    f"{outcome.request_id}: SILENT WRONG ANSWER — result "
                    f"differs from reference but status is "
                    f"{outcome.status.value} with detected=False"
                )
            else:
                honest_wrong += 1
        detected += bool(outcome.detected)
        corrected += bool(outcome.corrected)
        recomputed += bool(outcome.recomputed)
        retry_attempts += outcome.retries

    if len(records) != submitted:
        violations.append(
            f"{submitted} requests submitted but only {len(records)} resolved"
        )

    latencies.sort()
    return LoadgenResult(
        submitted=submitted,
        wall_s=wall,
        status_counts=dict(statuses),
        rejection_reasons=dict(reasons),
        detected=detected,
        corrected=corrected,
        recomputed=recomputed,
        retry_attempts=retry_attempts,
        dropped=dropped,
        max_batch_size=max_batch,
        silent_wrong=silent_wrong,
        honest_wrong=honest_wrong,
        latencies_s=latencies,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Counter reconciliation
# ---------------------------------------------------------------------------

#: The counter families the reconciliation owns — the ``abft_serve_*``
#: accounting set: any unexplained movement in these over a reconciled
#: run is a violation.
_RECONCILED_FAMILIES = frozenset(
    {
        "abft_serve_requests_total",
        "abft_serve_rejections_total",
        "abft_serve_degradations_total",
        "abft_serve_retries_total",
        "abft_serve_detections_total",
        "abft_serve_dropped_total",
    }
)


def serve_counter_snapshot(registry) -> dict:
    """Flat ``{(name, (label, value), ...): count}`` view of the
    reconciled counter families in ``registry`` — the before/after halves
    of a reconciliation delta."""
    out: dict = {}
    for name, family in registry.snapshot().items():
        if name not in _RECONCILED_FAMILIES or family["type"] != "counter":
            continue
        for entry in family["values"]:
            key = (name, *sorted(entry["labels"].items()))
            out[key] = entry["value"]
    return out


def counter_delta(before: dict, after: dict) -> dict:
    """Per-series counter movement between two snapshots."""
    return {key: value - before.get(key, 0) for key, value in after.items()}


def reconcile_counters(result: LoadgenResult, delta: dict) -> list[str]:
    """Diff a client-side tally against the server-side counter movement.

    Returns one human-readable line per mismatch (empty when the books
    balance).  Valid only when ``result`` accounts for *all* traffic the
    counters saw over the window — the generator guarantees that when it
    owns the server; composite harnesses (see :mod:`repro.chaos`) merge
    tallies first and then call this once.
    """
    delta = dict(delta)
    diffs: list[str] = []

    def moved(name: str, **labels) -> float:
        key = (name, *sorted(labels.items()))
        return delta.pop(key, 0)

    def expect(name: str, labels: dict, actual: float, expected: int) -> None:
        if actual != expected:
            label_s = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            diffs.append(
                f"counter {name}{label_s}: moved {actual:g}, "
                f"client tallied {expected} ({actual - expected:+g})"
            )

    served, rejected = result.served, result.rejected
    expect(
        "abft_serve_requests_total",
        {"outcome": "completed"},
        moved("abft_serve_requests_total", outcome="completed"),
        served,
    )
    expect(
        "abft_serve_requests_total",
        {"outcome": "rejected"},
        moved("abft_serve_requests_total", outcome="rejected"),
        rejected,
    )
    for reason in sorted(
        set(result.rejection_reasons)
        | {key[1][1] for key in delta if key[0] == "abft_serve_rejections_total"}
    ):
        expect(
            "abft_serve_rejections_total",
            {"reason": reason},
            moved("abft_serve_rejections_total", reason=reason),
            result.rejection_reasons.get(reason, 0),
        )
    # Degradation ladder: the "unchecked" rung maps to UNCHECKED responses;
    # every other (checked-but-cheaper) rung maps to DEGRADED ones.
    unchecked_moved = degraded_moved = 0.0
    for key in [k for k in delta if k[0] == "abft_serve_degradations_total"]:
        value = delta.pop(key)
        if dict(key[1:]).get("rung") == "unchecked":
            unchecked_moved += value
        else:
            degraded_moved += value
    expect(
        "abft_serve_degradations_total",
        {"rung": "unchecked"},
        unchecked_moved,
        result.status_counts.get(VerificationStatus.UNCHECKED.value, 0),
    )
    expect(
        "abft_serve_degradations_total",
        {"rung": "<checked>"},
        degraded_moved,
        result.status_counts.get(VerificationStatus.DEGRADED.value, 0),
    )
    expect(
        "abft_serve_detections_total",
        {},
        moved("abft_serve_detections_total"),
        result.detected + result.corrected + result.recomputed,
    )
    expect(
        "abft_serve_retries_total",
        {"kind": "corrected"},
        moved("abft_serve_retries_total", kind="corrected"),
        result.corrected,
    )
    expect(
        "abft_serve_retries_total",
        {"kind": "recomputed"},
        moved("abft_serve_retries_total", kind="recomputed"),
        result.retry_attempts,
    )
    expect(
        "abft_serve_dropped_total",
        {},
        moved("abft_serve_dropped_total"),
        result.dropped,
    )
    for key, value in delta.items():
        if value:
            diffs.append(
                f"unexplained counter movement: {key[0]}{dict(key[1:])} "
                f"+{value:g} not accounted for by the client tally"
            )
    return diffs
