"""Cached per-(shape, dtype, config) execution plans.

Building a protected multiplication involves shape-dependent setup that is
identical across repeated same-shape calls: partitioned layouts for both
encoded axes, padding geometry and workspaces, and the bound-scheme object.
:class:`ExecutionPlan` bundles that setup; :class:`PlanCache` keeps plans in
an LRU so iterative solvers and batch campaigns pay for it once.

In front of the plans sits a request index: a call's *request* (its
requested config, shape, operand dtypes, backend/fusion environment pins
and backend-registry generation) maps to a :class:`CallResolution`, the
negotiated outcome every later call with that request reuses.  Index
entries die with their plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..bounds.adaptive import AdaptiveBound
from ..bounds.base import BoundScheme
from ..bounds.fixed import FixedBound
from ..bounds.probabilistic import ProbabilisticBound
from ..bounds.sea import SEABound
from ..fp.constants import FloatFormat, dtype_name, format_for_dtype, format_for_name
from .config import AbftConfig

__all__ = [
    "CallResolution",
    "PlanKey",
    "ExecutionPlan",
    "PlanCache",
    "WorkspacePool",
    "build_plan",
]

#: ``(m, n, q, dtype-name, config)`` — everything a plan depends on.
PlanKey = tuple

#: Workspaces above this size are never pooled (a handful of retained
#: 8192x8192 buffers would pin gigabytes); below it, padding reuses buffers.
_POOL_BYTE_LIMIT = 1 << 25


class WorkspacePool:
    """Thread-safe free-lists of scratch buffers keyed by ``(shape, dtype)``.

    Every :class:`ExecutionPlan` owns one pool; the engine recycles its
    internal scratch arrays — padding workspaces, encoded-operand buffers
    (after the multiply has consumed them), top-p search workspaces and
    tolerance grids — through it across warm calls and pipelined batches.

    Safety rules the engine observes (see ``docs/API.md``):

    * only buffers that never escape into user-visible objects are given
      back — :class:`~repro.engine.engine.EncodedOperand` handles from the
      public ``encode()``, discrepancy arrays stored on reports, and result
      matrices are never pooled;
    * :meth:`give` silently rejects views (``base is not None``),
      non-contiguous arrays and buffers above ``_POOL_BYTE_LIMIT``, so a
      sliced or oversized workspace can never resurface;
    * :meth:`take` returns buffers with *undefined contents* — callers must
      overwrite every element.

    Concurrent :meth:`take` calls simply receive distinct buffers (a miss
    allocates outside the lock), so the pool is safe under
    ``execute_batch``'s thread pool.
    """

    def __init__(self, limit_per_key: int = 4, byte_limit: int = _POOL_BYTE_LIMIT):
        self._limit = limit_per_key
        self._byte_limit = byte_limit
        self._free: dict[tuple, deque[np.ndarray]] = {}
        self._lock = threading.Lock()
        self.takes = 0
        self.hits = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous scratch array of the requested shape and dtype."""
        key = (tuple(int(s) for s in shape), np.dtype(dtype))
        with self._lock:
            self.takes += 1
            bucket = self._free.get(key)
            if bucket:
                self.hits += 1
                return bucket.pop()
        return np.empty(key[0], dtype=key[1])

    def give(self, buffer: np.ndarray | None) -> None:
        """Return a scratch array for reuse (no-op when not poolable)."""
        if buffer is None:
            return
        if buffer.base is not None or not buffer.flags.c_contiguous:
            return
        if buffer.nbytes > self._byte_limit:
            return
        key = (buffer.shape, buffer.dtype)
        with self._lock:
            bucket = self._free.get(key)
            if bucket is None:
                bucket = self._free.setdefault(key, deque())
            if len(bucket) < self._limit:
                bucket.append(buffer)


@dataclass
class ExecutionPlan:
    """All shape-dependent state of one ``(m, n) @ (n, q)`` protected matmul.

    Attributes
    ----------
    key:
        The cache key the plan was built for.
    config:
        The :class:`~repro.engine.config.AbftConfig` in effect.
    dtype:
        Computation dtype (float32 when both operands are float32).
    m, n, q:
        Unpadded operand dimensions.
    rows_added / cols_added:
        Zero padding appended to reach block multiples.
    row_layout / col_layout:
        Partitioned layouts of the encoded result axes.
    scheme:
        The reusable bound-scheme object for this dtype/config.
    fmt:
        The IEEE format of the computation dtype.
    pool:
        The plan's :class:`WorkspacePool` — every scratch buffer of a call
        executed under this plan is taken from and given back to it.
    backend_name:
        The compute backend the GEMM stage dispatches through.  The
        engine resolves ``backend="auto"`` through capability negotiation
        *before* the plan lookup, so plans always carry a concrete
        backend.
    probe_verdicts / probe_lock:
        The pipelined executor's bitwise-probe verdicts by chunk width,
        each naming the chunk path that reproduced the per-item bytes:
        ``"compact"`` or ``"full"`` (the concatenated GEMM over the kept
        or over every right-operand column), else ``"per_item"``.  Read
        and written under the lock; they live and die with the plan.
    """

    key: PlanKey
    config: AbftConfig
    dtype: np.dtype
    m: int
    n: int
    q: int
    rows_added: int
    cols_added: int
    row_layout: PartitionedLayout
    col_layout: PartitionedLayout
    scheme: BoundScheme
    fmt: FloatFormat
    pool: WorkspacePool = field(repr=False, default=None)
    backend_name: str = "numpy"
    probe_verdicts: dict[int, str] = field(
        default_factory=dict, repr=False, compare=False
    )
    probe_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def padded_m(self) -> int:
        return self.m + self.rows_added

    @property
    def padded_q(self) -> int:
        return self.q + self.cols_added

    def pad_a(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Zero-pad ``a`` along axis 0, reusing a pooled workspace.

        Returns ``(padded, workspace)``; give the workspace back to
        :attr:`pool` once the padded view is no longer needed.  When no
        padding is required the operand is returned as-is.
        """
        if self.rows_added == 0:
            return a, None
        buf = self.pool.take((self.padded_m, self.n), self.dtype)
        buf[: self.m] = a
        buf[self.m :] = 0.0
        return buf, buf

    def pad_b(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Zero-pad ``b`` along axis 1, reusing a pooled workspace."""
        if self.cols_added == 0:
            return b, None
        buf = self.pool.take((self.n, self.padded_q), self.dtype)
        buf[:, : self.q] = b
        buf[:, self.q :] = 0.0
        return buf, buf


def build_plan(
    m: int, n: int, q: int, dtype: np.dtype, config: AbftConfig
) -> ExecutionPlan:
    """Construct the execution plan for one shape/dtype/config triple."""
    bs = config.block_size
    rows_added = (-m) % bs
    cols_added = (-q) % bs
    row_layout = PartitionedLayout(data_rows=m + rows_added, block_size=bs)
    col_layout = PartitionedLayout(data_rows=q + cols_added, block_size=bs)
    fmt = format_for_dtype(dtype)
    if config.scheme == "aabft":
        scheme: BoundScheme = ProbabilisticBound(
            omega=config.omega, fma=config.fma, fmt=fmt
        )
    elif config.scheme == "sea":
        scheme = SEABound(fmt=fmt)
    elif config.scheme == "adaptive":
        # ``dtype`` names the *storage* format; ``fmt`` stays the compute
        # format the checksums accumulate in.  AbftConfig already gated
        # bfloat16 on availability, so format_for_name cannot fail here.
        storage_fmt = format_for_name(config.dtype) if config.dtype else fmt
        scheme = AdaptiveBound(fmt=fmt, storage_fmt=storage_fmt)
    else:  # fixed — validated by AbftConfig.__post_init__
        scheme = FixedBound(float(config.fixed_epsilon))
    plan = ExecutionPlan(
        key=(m, n, q, dtype_name(dtype), config),
        config=config,
        dtype=np.dtype(dtype),
        m=m,
        n=n,
        q=q,
        rows_added=rows_added,
        cols_added=cols_added,
        row_layout=row_layout,
        col_layout=col_layout,
        scheme=scheme,
        fmt=fmt,
        # Plans built outside the engine's negotiation step (tests, direct
        # build_plan calls) treat an unresolved "auto" as the reference.
        backend_name=(
            "numpy" if config.backend == "auto" else config.backend
        ),
    )
    plan.pool = WorkspacePool()
    return plan


@dataclass(frozen=True, eq=False)
class CallResolution:
    """The negotiated execution of one request, reused by every call with it.

    Attributes
    ----------
    plan:
        The :class:`ExecutionPlan`; its ``config`` is the effective config
        (concrete backend and fusion) and its ``dtype`` the compute dtype.
    storage:
        The storage dtype (the compute dtype unless the config names a
        low-precision storage format).
    quantize:
        Whether results round-trip through ``storage`` before the check.
    backend_fallback / fused_fallback:
        The never-silent fallback texts copied onto every result.
    counters:
        Counter children incremented on every call: the fallback records
        (``abft_backend_fallbacks_total{reason="selection"}``,
        ``abft_fused_fallbacks_total{reason="negotiation"|"low_precision"}``).
    tune_key / tuned:
        When negotiation read the autotuner, its cache key and the
        decision read; calls re-read the key and resolve afresh when the
        decision changed.  ``tune_key`` is ``None`` otherwise.
    """

    plan: ExecutionPlan
    storage: np.dtype
    quantize: bool = False
    backend_fallback: str | None = None
    fused_fallback: str | None = None
    counters: tuple = ()
    tune_key: str | None = None
    tuned: object = None


class PlanCache:
    """A thread-safe LRU cache of :class:`ExecutionPlan` objects.

    It also holds the request index (:class:`CallResolution` by request
    key) under the same lock.  The index holds at most ``maxsize``
    entries, and an entry goes when its plan is evicted or cleared.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError(f"plan cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[PlanKey, ExecutionPlan] = OrderedDict()
        self._index: OrderedDict[tuple, CallResolution] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, m: int, n: int, q: int, dtype: np.dtype, config: AbftConfig
    ) -> tuple[ExecutionPlan, bool]:
        """The plan for the given key, building it on a miss.

        Returns ``(plan, hit)`` where ``hit`` reports whether the plan was
        served from cache.
        """
        key = (m, n, q, dtype_name(dtype), config)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan, True
        # Build outside the lock: plans are deterministic, so a racing
        # duplicate build is wasteful but harmless; the first one cached
        # is the one every caller gets.
        built = build_plan(m, n, q, dtype, config)
        with self._lock:
            self.misses += 1
            plan = self._plans.setdefault(key, built)
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                _key, evicted = self._plans.popitem(last=False)
                self.evictions += 1
                for request in [
                    r for r, call in self._index.items() if call.plan is evicted
                ]:
                    del self._index[request]
        return plan, False

    def resolved(self, request: tuple) -> CallResolution | None:
        """The resolution indexed under ``request``, or ``None``.

        Counts nothing: a caller that uses the entry reports it through
        :meth:`hit`.
        """
        with self._lock:
            return self._index.get(request)

    def hit(self, request: tuple, call: CallResolution) -> None:
        """Count a call served from the index as a plan hit."""
        with self._lock:
            self.hits += 1
            # Either may have gone since resolved(): the plan stays
            # usable, it is only no longer cached.
            if request in self._index:
                self._index.move_to_end(request)
            if call.plan.key in self._plans:
                self._plans.move_to_end(call.plan.key)

    def index(self, request: tuple, call: CallResolution) -> None:
        """Index a resolution whose plan :meth:`get` just returned.

        A plan evicted in the meantime is not indexed, so no entry
        outlives its plan.
        """
        with self._lock:
            if self._plans.get(call.plan.key) is not call.plan:
                return
            self._index[request] = call
            self._index.move_to_end(request)
            while len(self._index) > self.maxsize:
                self._index.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan and indexed request (counters are retained)."""
        with self._lock:
            self._plans.clear()
            self._index.clear()
