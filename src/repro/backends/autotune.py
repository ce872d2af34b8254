"""Fusion autotuner with a persisted on-disk decision cache.

In the spirit of A-ABFT's "autonomous, no user-provided tuning": for each
``(shape, dtype, scheme, block_size, p)`` key the tuner decides whether
the fused online-ABFT tile loop
(:func:`~repro.kernels.online_fused.online_fused_matmul`) beats the
separate GEMM + grid check.  It times both on warm-up calls over
synthetic operands of the *encoded* GEMM shapes (checksum rows/columns
included, so the timed problem is exactly what the engine dispatches) on
the ``numpy`` backend, and persists the decision with its evidence to a
JSON cache (``AABFT_AUTOTUNE_CACHE``, default
``~/.cache/aabft/autotune.json``).

Fused wins only by the hysteresis margin, so noise keeps the separate
default.  Trials only run through the explicit entry points
(:meth:`Autotuner.tune`, ``aabft autotune``,
``MatmulEngine.autotune()``); ordinary engine calls consult the cache via
:meth:`Autotuner.lookup` (:meth:`Autotuner.lookup_key` once the key is
known) and never pay timing overhead inline.  A cached
decision only applies to calls that run on ``numpy``, the backend it was
timed on.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..abft.encoding import PartitionedLayout
from ..fp.constants import dtype_name
from ..telemetry import BoundChildren, MetricsRegistry

__all__ = [
    "Autotuner",
    "AutotuneCache",
    "TunedChoice",
    "ENV_AUTOTUNE_CACHE",
    "default_cache_path",
]

#: Environment variable overriding the on-disk cache location.
ENV_AUTOTUNE_CACHE = "AABFT_AUTOTUNE_CACHE"


def default_cache_path() -> Path:
    """``$AABFT_AUTOTUNE_CACHE``, else ``~/.cache/aabft/autotune.json``."""
    env = os.environ.get(ENV_AUTOTUNE_CACHE, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "aabft" / "autotune.json"


#: On-disk format version.  A file of any other version reads as empty, so
#: entries written in an older format are re-tuned, never migrated.
_CACHE_VERSION = 2


@dataclass(frozen=True)
class TunedChoice:
    """One cached fusion decision and the timed evidence behind it.

    Attributes
    ----------
    per_call_s:
        The ``numpy`` GEMM's best-of-repeats seconds: the separate
        path's multiply.
    fusion / fused_tile_blocks:
        ``"fused"`` when the online-ABFT tile loop (GEMM + in-loop check)
        beat the separate GEMM + grid check by the hysteresis margin,
        else ``"separate"``; the winning fused tile edge in encoded
        blocks (``None`` = the single full-result tile).
    fused_per_call_s / separate_check_s:
        The best fused multiply+check seconds, and the separate
        grid-check seconds that ride on top of ``per_call_s`` in the
        separate strategy.
    """

    per_call_s: float
    fusion: str = "separate"
    fused_tile_blocks: int | None = None
    fused_per_call_s: float | None = None
    separate_check_s: float | None = None


class _FileLock:
    """An advisory ``flock`` over ``<path>.lock`` (no-op without fcntl).

    Serialises the writers of processes that share one cache path (two
    ``aabft autotune`` runs on the default path, say).  Platforms without
    ``fcntl`` (or filesystems refusing locks) degrade to the old
    last-writer-wins behaviour instead of failing — the cache is a
    performance artefact, never a correctness one.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle = None

    def __enter__(self) -> "_FileLock":
        try:
            import fcntl

            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a+")
            fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
        except (ImportError, OSError):
            if self._handle is not None:
                self._handle.close()
            self._handle = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            try:
                import fcntl

                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            self._handle.close()
            self._handle = None


def _optional(payload: dict, key: str, kind):
    value = payload.get(key)
    return None if value is None else kind(value)


def _parse_entries(text: str) -> dict[str, TunedChoice]:
    """Decode a cache file's entries; a corrupt, missing or other-version
    file reads empty."""
    entries: dict[str, TunedChoice] = {}
    try:
        raw = json.loads(text)
        if raw.get("version") != _CACHE_VERSION:
            return {}
        for key, payload in raw.get("entries", {}).items():
            entries[key] = TunedChoice(
                per_call_s=float(payload["per_call_s"]),
                fusion=str(payload["fusion"]),
                fused_tile_blocks=_optional(payload, "fused_tile_blocks", int),
                fused_per_call_s=_optional(payload, "fused_per_call_s", float),
                separate_check_s=_optional(payload, "separate_check_s", float),
            )
    except (ValueError, KeyError, TypeError, AttributeError):
        entries = {}
    return entries


class AutotuneCache:
    """Thread- and process-safe, crash-tolerant JSON store of decisions.

    Writes are atomic (temp file + rename) and **merge-on-write** under
    an advisory file lock: a writer re-reads the file inside the lock,
    folds its new decision into whatever other processes persisted since
    this process last looked, and only then rewrites — so processes that
    share one cache path cannot clobber each other's decisions.  A
    corrupt, missing or other-version file reads as empty instead of
    failing, so a broken or stale cache can only cost re-tuning, never
    correctness.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self._lock = threading.Lock()
        self._entries: dict[str, TunedChoice] | None = None

    def _read_disk(self) -> dict[str, TunedChoice]:
        try:
            text = self.path.read_text()
        except OSError:
            return {}
        return _parse_entries(text)

    def _load_locked(self) -> dict[str, TunedChoice]:
        if self._entries is None:
            self._entries = self._read_disk()
        return self._entries

    def get(self, key: str) -> TunedChoice | None:
        """The cached decision for a key, or ``None``."""
        with self._lock:
            return self._load_locked().get(key)

    def put(self, key: str, choice: TunedChoice) -> None:
        """Store a decision; persist atomically via read-merge-write."""
        with self._lock:
            self._load_locked()
            with _FileLock(self.path.with_name(self.path.name + ".lock")):
                # Fold in decisions other processes persisted since our
                # last read — their keys survive, ours lands on top.
                merged = self._read_disk()
                merged.update(self._entries)
                merged[key] = choice
                self._entries = merged
                payload = {
                    "version": _CACHE_VERSION,
                    "entries": {
                        k: asdict(v) for k, v in sorted(merged.items())
                    },
                }
                try:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    tmp = self.path.with_name(self.path.name + ".tmp")
                    tmp.write_text(json.dumps(payload, indent=2) + "\n")
                    os.replace(tmp, self.path)
                except OSError:
                    # An unwritable cache degrades to in-memory only.
                    pass

    def keys(self) -> list[str]:
        """All cached keys (sorted)."""
        with self._lock:
            return sorted(self._load_locked())

    def __len__(self) -> int:
        with self._lock:
            return len(self._load_locked())

    def clear(self) -> None:
        """Drop every entry (and the on-disk file, if any)."""
        with self._lock:
            self._entries = {}
            try:
                self.path.unlink(missing_ok=True)
            except OSError:
                pass


def _encoded_dims(m: int, q: int, block_size: int) -> tuple[int, int]:
    """Encoded result dims (data + checksum rows/cols) for an m x q result."""
    m_pad = m + (-m) % block_size
    q_pad = q + (-q) % block_size
    rows = PartitionedLayout(data_rows=m_pad, block_size=block_size)
    cols = PartitionedLayout(data_rows=q_pad, block_size=block_size)
    return rows.encoded_rows, cols.encoded_rows


class Autotuner:
    """Decides fused vs separate per call signature and caches it.

    Parameters
    ----------
    cache:
        The :class:`AutotuneCache`; defaults to the on-disk cache at
        :func:`default_cache_path`.
    repeats:
        Timed calls per candidate (best-of is kept).
    hysteresis:
        Fractional margin a fused candidate must beat the separate path
        by (guards against noise-driven flapping).
    metrics_registry:
        Target for the ``abft_backend_autotune_total`` and
        ``abft_fused_autotune_total`` counters.
    """

    def __init__(
        self,
        cache: AutotuneCache | None = None,
        *,
        repeats: int = 3,
        hysteresis: float = 0.05,
        metrics_registry: MetricsRegistry | None = None,
    ) -> None:
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if not 0.0 <= hysteresis < 1.0:
            raise ValueError(f"hysteresis must be in [0, 1), got {hysteresis}")
        self.cache = cache if cache is not None else AutotuneCache()
        self.repeats = repeats
        self.hysteresis = hysteresis
        reg = metrics_registry if metrics_registry is not None else MetricsRegistry()
        self._m_events = reg.counter(
            "abft_backend_autotune_total",
            "Autotuner events (cache_hit / cache_miss / tuned)",
            ("event",),
        )
        self._events = BoundChildren(self._m_events, "event")
        self._m_fusion = reg.counter(
            "abft_fused_autotune_total",
            "Fusion-strategy autotune decisions (fused / separate)",
            ("decision",),
        )

    # ------------------------------------------------------------------
    def key(self, m: int, n: int, q: int, dtype, config) -> str:
        """The cache key: shape, dtype, scheme, block size and p."""
        return (
            f"{m}x{n}x{q}/{dtype_name(dtype)}/{config.scheme}"
            f"/bs{config.block_size}/p{config.p}"
        )

    def lookup(self, m: int, n: int, q: int, dtype, config) -> TunedChoice | None:
        """The cached decision for a call signature (no timing, ever)."""
        return self.lookup_key(self.key(m, n, q, dtype, config))

    def lookup_key(self, key: str) -> TunedChoice | None:
        """The cached decision under a :meth:`key` (counted like
        :meth:`lookup`)."""
        choice = self.cache.get(key)
        self._events["cache_hit" if choice is not None else "cache_miss"].inc()
        return choice

    def tune(
        self,
        m: int,
        n: int,
        q: int,
        *,
        dtype=np.float64,
        config=None,
        force: bool = False,
        seed: int = 20140101,
    ) -> TunedChoice:
        """Time fused against separate for one call signature and persist
        the decision.

        Returns the cached decision without timing when one exists (pass
        ``force=True`` to re-tune).
        """
        from ..engine.config import AbftConfig

        cfg = config if config is not None else AbftConfig()
        cache_key = self.key(m, n, q, dtype, cfg)
        if not force:
            cached = self.cache.get(cache_key)
            if cached is not None:
                self._events["cache_hit"].inc()
                return cached

        rows_enc, cols_enc = _encoded_dims(m, q, cfg.block_size)
        rng = np.random.default_rng(seed)
        dt = np.dtype(dtype)
        a = rng.standard_normal((rows_enc, n)).astype(dt, copy=False)
        b = rng.standard_normal((n, cols_enc)).astype(dt, copy=False)

        choice = self._tune_fusion(self._time(a, b), cfg, a, b, m, q)
        self.cache.put(cache_key, choice)
        self._events["tuned"].inc()
        return choice

    def candidate_tile_blocks(self, m: int, q: int, block_size: int) -> list[int]:
        """Fused tile-edge candidates in whole encoded blocks per axis,
        capped to edges that actually subdivide the encoded result."""
        rows_enc, cols_enc = _encoded_dims(m, q, block_size)
        stride = block_size + 1
        largest = max(rows_enc, cols_enc)
        return [tb for tb in (2, 4, 8) if tb * stride < largest]

    def _tune_fusion(
        self, gemm_s: float, cfg, a: np.ndarray, b: np.ndarray,
        m: int, q: int,
    ) -> TunedChoice:
        """Time fused online tiles against the separate GEMM + grid check.

        Multi-tile candidates win only when their whole multiply+check
        wall time beats the GEMM (``gemm_s``) *plus* the separate grid
        check by the hysteresis margin, with the tolerance grids forced
        to ``inf`` so the random timing operands never trigger a
        recompute.  The degenerate single-tile candidate
        (``fused_tile_blocks=None``) runs the exact same GEMM as the
        separate path, so only its in-loop check time is compared
        (hysteresis applies to the component that can differ, not to the
        GEMM term that is equal by construction).
        """
        from ..abft.checking import column_discrepancies, row_discrepancies
        from ..kernels.online_fused import online_fused_matmul

        tile_blocks = self.candidate_tile_blocks(m, q, cfg.block_size)

        m_pad = m + (-m) % cfg.block_size
        q_pad = q + (-q) % cfg.block_size
        row_layout = PartitionedLayout(data_rows=m_pad, block_size=cfg.block_size)
        col_layout = PartitionedLayout(data_rows=q_pad, block_size=cfg.block_size)
        c = np.matmul(a, b)
        check_s = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            column_discrepancies(c, row_layout)
            row_discrepancies(c, col_layout)
            check_s = min(check_s, time.perf_counter() - t0)

        col_eps = np.full(
            (row_layout.num_blocks, col_layout.encoded_rows), np.inf
        )
        row_eps = np.full(
            (row_layout.encoded_rows, col_layout.num_blocks), np.inf
        )

        # Degenerate single-tile fusion: the GEMM is the separate path's
        # own (identical bytes and schedule), so only the self-timed
        # in-loop check cost matters.
        degenerate_check_s = float("inf")
        for i in range(self.repeats + 1):
            outcome = online_fused_matmul(
                a, b,
                row_layout=row_layout,
                col_layout=col_layout,
                col_eps=col_eps,
                row_eps=row_eps,
                tile_blocks=None,
                abort_on_failure=False,
            )
            if i > 0:  # first call is the warm-up
                degenerate_check_s = min(
                    degenerate_check_s, outcome.check_seconds
                )

        fused_s = float("inf")
        fused_tb: int | None = None
        for tb in tile_blocks:
            seconds = float("inf")
            for i in range(self.repeats + 1):
                t0 = time.perf_counter()
                online_fused_matmul(
                    a, b,
                    row_layout=row_layout,
                    col_layout=col_layout,
                    col_eps=col_eps,
                    row_eps=row_eps,
                    tile_blocks=tb,
                    abort_on_failure=False,
                )
                if i > 0:  # first call is the warm-up
                    seconds = min(seconds, time.perf_counter() - t0)
            if seconds < fused_s:
                fused_s, fused_tb = seconds, tb

        separate_s = gemm_s + check_s
        degenerate_s = gemm_s + degenerate_check_s
        degenerate_wins = degenerate_check_s < check_s * (1.0 - self.hysteresis)
        multi_tile_wins = fused_s < separate_s * (1.0 - self.hysteresis)
        if multi_tile_wins and (not degenerate_wins or fused_s < degenerate_s):
            self._m_fusion.labels(decision="fused").inc()
            return TunedChoice(
                per_call_s=gemm_s,
                fusion="fused",
                fused_tile_blocks=fused_tb,
                fused_per_call_s=fused_s,
                separate_check_s=check_s,
            )
        if degenerate_wins:
            self._m_fusion.labels(decision="fused").inc()
            return TunedChoice(
                per_call_s=gemm_s,
                fusion="fused",
                fused_tile_blocks=None,
                fused_per_call_s=degenerate_s,
                separate_check_s=check_s,
            )
        self._m_fusion.labels(decision="separate").inc()
        return TunedChoice(
            per_call_s=gemm_s,
            fusion="separate",
            fused_tile_blocks=None,
            fused_per_call_s=min(fused_s, degenerate_s),
            separate_check_s=check_s,
        )

    def _time(self, a, b) -> float:
        """Best-of-repeats seconds of the ``numpy`` backend's GEMM."""
        np.matmul(a, b)  # warm-up (BLAS thread spin-up)
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            np.matmul(a, b)
            best = min(best, time.perf_counter() - t0)
        return best
