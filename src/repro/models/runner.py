"""Executing model specs as chains of protected GEMMs.

The :class:`ModelRunner` walks a :class:`~repro.models.planner.ModelPlan`
layer by layer through a :class:`~repro.engine.engine.MatmulEngine`:
protected layers run as one ABFT-protected
:meth:`~repro.engine.engine.MatmulEngine.matmul` each under their planned
per-layer config (so backend and fusion negotiation applies, resolved
once per request), unchecked layers run the raw GEMM with an explicit
``unchecked`` record — never silently.

Three properties the serving and campaign layers build on:

* **Encoding reuse** — when layer ``k`` ran protected and clean, its
  activation is the identity, both layers share block size and compute
  dtype, and neither stores in low precision, the checksum rows of layer
  ``k``'s verified result are themselves a valid column-checksum encoding
  of layer ``k+1``'s input (checksums are linear maps, and the paper's
  tolerance verified them).  The runner then slices the previous
  ``c_fc`` into an A-side :class:`~repro.engine.engine.EncodedOperand` —
  recomputing only the cheap top-p/norm preprocessing — and skips the
  encode pass entirely.
* **Weight-encoding reuse** — a protected layer's weight is the same
  matrix on every pass, so the runner keeps one B-side
  :class:`~repro.engine.engine.EncodedOperand` per slot (model name,
  layer name, layer config) and passes it to the engine in place of the
  raw weight.  The slot is keyed by content, not by array identity:
  before each use the weight's bytes, in the compute dtype, are compared
  with the handle's data columns, and any difference re-encodes.  An
  updated or replaced weight is therefore never multiplied from a stale
  encoding, and never reads as a detection.  A detection evicts the slot,
  so a fault in a cached checksum costs one recompute; a fault in a
  cached data column fails the byte check.
* **Named-layer fault injection** — :class:`ModelInjection` flips one bit
  of the named layer's result through the engine's chaos-hook seam (or
  directly, for unchecked layers), firing exactly once; per-layer
  detection accounting feeds the ``model-coverage`` ci-gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..abft.encoding import PartitionedLayout, strip_data_columns
from ..bounds.upper_bound import top_p_arrays
from ..engine.config import AbftConfig
from ..engine.engine import (
    EncodedOperand,
    MatmulEngine,
    _resolve_storage_compute,
    default_engine,
)
from ..errors import ConfigurationError
from ..fp.constants import format_for_dtype, format_for_name
from ..fp.bits import flip_bit
from ..telemetry import BoundChildren, MetricsRegistry
from .planner import LayerAssignment, ModelPlan, ProtectionPlanner, _scheme_for
from .spec import ModelSpec, apply_activation

__all__ = [
    "ModelInjection",
    "ModelInputs",
    "LayerRun",
    "ModelRunResult",
    "ModelRunner",
]

#: Rung strength order used when capping (degrading) a planned rung.
_RUNG_ORDER = {"full": 0, "sea": 1, "unchecked": 2}


@dataclass(frozen=True)
class ModelInjection:
    """A single-bit fault injected into one named layer's result.

    The flip lands at data position ``(row, col)`` of the layer's result
    matrix, in the *compute* dtype (the value a faulty GEMM would have
    produced before storage).  ``bit`` is the flipped bit index (LSB = 0)
    — ``None`` picks a default per field: the top stored mantissa bit for
    ``"mantissa"``, a mid exponent bit for ``"exponent"`` (a decisively
    critical magnitude change).
    """

    layer: str
    row: int = 0
    col: int = 0
    fault_field: str = "exponent"
    bit: int | None = None

    def __post_init__(self) -> None:
        if self.fault_field not in ("mantissa", "exponent", "sign"):
            raise ConfigurationError(
                f"fault_field must be 'mantissa', 'exponent' or 'sign', "
                f"got {self.fault_field!r}"
            )

    def bit_index(self, fmt) -> int:
        """The concrete bit index for a compute format."""
        if self.bit is not None:
            return int(self.bit)
        if self.fault_field == "mantissa":
            return fmt.mantissa_bits - 1
        if self.fault_field == "exponent":
            # A low-middle exponent bit scales the value by 2^±4 — far
            # outside any tolerance yet always finite (the top exponent
            # bit would overflow values in [1, 2) to NaN, which no
            # ``|discrepancy| > eps`` comparison can flag).
            return fmt.mantissa_bits + 2
        return fmt.sign_bit_index


@dataclass(frozen=True)
class ModelInputs:
    """Deterministically generated input + weights for one model."""

    x: np.ndarray
    weights: tuple[np.ndarray, ...]

    @classmethod
    def generate(cls, model: ModelSpec, seed: int = 0) -> "ModelInputs":
        """Standard-normal input and ``1/sqrt(d_in)``-scaled weights.

        The scaling keeps activations of deep stacks in range — essential
        for float16 storage, whose max finite value is 65504.
        """
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((model.batch, model.d_in))
        x = x.astype(format_for_name(model.layers[0].dtype).dtype)
        weights = []
        for layer in model.layers:
            w = rng.standard_normal((layer.d_in, layer.d_out))
            w *= 1.0 / np.sqrt(layer.d_in)
            weights.append(w.astype(format_for_name(layer.dtype).dtype))
        return cls(x=x, weights=tuple(weights))


@dataclass
class LayerRun:
    """What actually happened to one layer during a model run."""

    layer: str
    planned_rung: str
    rung: str
    scheme: str | None
    detected: bool = False
    recomputed: bool = False
    reused_encoding: bool = False
    degraded: bool = False
    injected: bool = False
    seconds: float = 0.0
    backend: str | None = None

    @property
    def protected(self) -> bool:
        return self.rung != "unchecked"

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "planned_rung": self.planned_rung,
            "rung": self.rung,
            "scheme": self.scheme,
            "detected": self.detected,
            "recomputed": self.recomputed,
            "reused_encoding": self.reused_encoding,
            "degraded": self.degraded,
            "injected": self.injected,
            "seconds": self.seconds,
            "backend": self.backend,
        }


@dataclass
class ModelRunResult:
    """The outcome of one end-to-end model run."""

    model: ModelSpec
    output: np.ndarray
    layers: list[LayerRun] = field(default_factory=list)
    seconds: float = 0.0
    verified: bool | None = None
    max_abs_diff: float | None = None

    @property
    def detected(self) -> bool:
        return any(layer.detected for layer in self.layers)

    @property
    def degraded(self) -> bool:
        return any(layer.degraded for layer in self.layers)

    @property
    def reuse_count(self) -> int:
        return sum(1 for layer in self.layers if layer.reused_encoding)

    def layer_run(self, name: str) -> LayerRun:
        for run in self.layers:
            if run.layer == name:
                return run
        raise ConfigurationError(f"run has no layer {name!r}")

    def to_dict(self) -> dict:
        return {
            "model": self.model.name,
            "seconds": self.seconds,
            "detected": self.detected,
            "degraded": self.degraded,
            "verified": self.verified,
            "max_abs_diff": self.max_abs_diff,
            "layers": [layer.to_dict() for layer in self.layers],
        }


def _weaker(rung_a: str, rung_b: str) -> str:
    """The weaker of two protection rungs."""
    return rung_a if _RUNG_ORDER[rung_a] >= _RUNG_ORDER[rung_b] else rung_b


class ModelRunner:
    """Executes planned models through a :class:`MatmulEngine`.

    Parameters
    ----------
    engine:
        The engine protected layers run on; defaults to the process
        default engine.
    registry:
        Telemetry registry for the ``abft_model_*`` metric family;
        defaults to the engine's registry so model metrics land next to
        the engine's in one scrape.
    """

    def __init__(
        self,
        engine: MatmulEngine | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.engine = engine if engine is not None else default_engine()
        reg = registry if registry is not None else self.engine.registry
        self.registry = reg
        self._m_runs = reg.counter(
            "abft_model_runs_total", "Completed end-to-end model runs"
        )
        self._m_layers = reg.counter(
            "abft_model_layers_total",
            "Model layers executed, by protection rung and bound scheme",
            ("rung", "scheme"),
        )
        self._layers = BoundChildren(self._m_layers, "rung", "scheme")
        self._m_detections = reg.counter(
            "abft_model_detections_total",
            "Model layers whose check flagged a fault, by layer name",
            ("layer",),
        )
        self._m_reuses = reg.counter(
            "abft_model_encode_reuses_total",
            "Layers whose A-side encoding reused the previous layer's "
            "verified output checksums",
        )
        weight_cache = reg.counter(
            "abft_model_weight_cache_total",
            "Protected-layer weight encodings by cache outcome: hit (bytes "
            "matched), miss (empty slot) or changed (slot held other bytes)",
            ("outcome",),
        )
        self._m_weight_cache = {
            outcome: weight_cache.labels(outcome=outcome)
            for outcome in ("hit", "miss", "changed")
        }
        # One B-side handle per (model name, layer name, layer config).
        self._weights: dict[tuple, EncodedOperand] = {}
        self._m_degraded = reg.counter(
            "abft_model_degraded_layers_total",
            "Layers served below their planned protection rung "
            "(never silently)",
        )
        self._m_injections = reg.counter(
            "abft_model_injections_total",
            "Campaign faults injected into model layers, by layer and "
            "whether the check caught them",
            ("layer", "detected"),
        )
        self._h_run = reg.histogram(
            "abft_model_run_seconds", "End-to-end model run wall seconds"
        )
        self._h_layer = reg.histogram(
            "abft_model_layer_seconds",
            "Per-layer wall seconds, by protection rung",
            ("rung",),
        )
        self._layer_seconds = BoundChildren(self._h_layer, "rung")
        self._g_adaptive = reg.gauge(
            "abft_model_adaptive_threshold",
            "Mean variance-adaptive column tolerance of the last run's "
            "adaptive-checked layers, by layer name",
            ("layer",),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        model: ModelSpec,
        plan: ModelPlan | None = None,
        inputs: ModelInputs | None = None,
        *,
        seed: int = 0,
        inject: ModelInjection | None = None,
        verify: bool = False,
        rung_cap=None,
    ) -> ModelRunResult:
        """One forward pass under the plan's per-layer protection.

        Parameters
        ----------
        model / plan:
            The model and its protection plan; a missing plan is built by
            a default :class:`~repro.models.planner.ProtectionPlanner`.
        inputs:
            Input activation and weights; generated deterministically
            from ``seed`` when omitted.
        inject:
            Optional single-bit fault injected into the named layer's
            result (fires once; per-layer detection is recorded).
        verify:
            Recompute the whole chain with plain numpy reference math and
            compare outputs (``verified`` / ``max_abs_diff`` on the
            result).  Meaningless together with ``inject``.
        rung_cap:
            Optional ``callable(layer_index, assignment) -> rung`` capping
            each layer's protection (the serving deadline ladder); a
            served rung below the planned one is recorded as degraded —
            never silently.

        Protected layers run through the engine's ``matmul`` under each
        layer's planned :class:`~repro.engine.config.AbftConfig`, which
        carries any backend pin or fusion strategy.
        """
        if plan is None:
            plan = ProtectionPlanner().plan(model)
        if plan.model != model:
            raise ConfigurationError(
                f"plan was built for model {plan.model.name!r}, "
                f"got {model.name!r}"
            )
        if inputs is None:
            inputs = ModelInputs.generate(model, seed=seed)
        if inject is not None:
            model.layer(inject.layer)  # validate the name eagerly

        t_start = time.perf_counter()
        x = inputs.x
        prev_reusable: EncodedOperand | None = None
        layer_runs: list[LayerRun] = []
        for index, assignment in enumerate(plan.assignments):
            layer = assignment.layer
            rung = assignment.rung
            if rung_cap is not None:
                capped = rung_cap(index, assignment)
                if capped not in _RUNG_ORDER:
                    raise ConfigurationError(
                        f"rung_cap returned {capped!r}; expected one of "
                        f"{tuple(_RUNG_ORDER)}"
                    )
                rung = _weaker(rung, capped)
            run = LayerRun(
                layer=layer.name,
                planned_rung=assignment.rung,
                rung=rung,
                scheme=_scheme_for(rung, layer),
                degraded=_RUNG_ORDER[rung] > _RUNG_ORDER[assignment.rung],
            )
            injection = (
                inject if inject is not None and inject.layer == layer.name
                else None
            )
            t0 = time.perf_counter()
            if rung == "unchecked":
                x, prev_reusable = self._run_unchecked(
                    layer, x, inputs.weights[index], injection, run
                )
            else:
                x, prev_reusable = self._run_protected(
                    model,
                    assignment,
                    rung,
                    x,
                    inputs.weights[index],
                    prev_reusable,
                    injection,
                    run,
                    consumed=index + 1 < len(plan.assignments),
                )
            run.seconds = time.perf_counter() - t0
            self._layer_seconds[rung].observe(run.seconds)
            self._layers[rung, run.scheme or "none"].inc()
            if run.degraded:
                self._m_degraded.inc()
            if run.injected:
                self._m_injections.labels(
                    layer=layer.name, detected=str(run.detected).lower()
                ).inc()
            if run.detected:
                self._m_detections.labels(layer=layer.name).inc()
            layer_runs.append(run)

        seconds = time.perf_counter() - t_start
        self._m_runs.inc()
        self._h_run.observe(seconds)
        result = ModelRunResult(
            model=model, output=x, layers=layer_runs, seconds=seconds
        )
        if verify:
            ref = self.reference_output(model, inputs)
            diff = np.abs(
                x.astype(np.float64) - ref.astype(np.float64)
            )
            result.max_abs_diff = float(diff.max()) if diff.size else 0.0
            result.verified = bool(
                result.max_abs_diff <= _verify_tolerance(model, ref)
            )
        return result

    # ------------------------------------------------------------------
    def reference_output(
        self, model: ModelSpec, inputs: ModelInputs
    ) -> np.ndarray:
        """The unprotected reference chain with identical storage semantics.

        Each layer computes in the engine's compute dtype (float32 for
        low-precision storage, the storage dtype otherwise), stores back
        to the layer dtype, then applies the activation in compute
        precision — exactly what the protected path produces fault-free.
        """
        x = inputs.x
        for layer, w in zip(model.layers, inputs.weights):
            storage, compute = _layer_dtypes(layer)
            y = x.astype(compute) @ w.astype(compute)
            y = y.astype(storage)
            x = _activate(layer, y, storage, compute)
        return x

    # ------------------------------------------------------------------
    def _run_unchecked(self, layer, x, w, injection, run):
        storage, compute = _layer_dtypes(layer)
        y = x.astype(compute) @ w.astype(compute)
        if injection is not None:
            fmt = format_for_dtype(y.dtype)
            row, col = injection.row % y.shape[0], injection.col % y.shape[1]
            y[row, col] = flip_bit(y[row, col], injection.bit_index(fmt))
            run.injected = True
            # No check ran: an unchecked layer can never detect (the
            # explicit per-layer coverage hole the gate accounts).
        y = y.astype(storage)
        run.backend = "numpy"
        return _activate(layer, y, storage, compute), None

    def _run_protected(
        self,
        model: ModelSpec,
        assignment: LayerAssignment,
        rung: str,
        x,
        w,
        prev_reusable: EncodedOperand | None,
        injection,
        run: LayerRun,
        *,
        consumed: bool,
    ):
        """One checked layer; returns its output and, when a later layer
        (``consumed``) may reuse them, its verified checksum rows."""
        layer = assignment.layer
        storage, compute = _layer_dtypes(layer)
        cfg = self._config_for(assignment, rung)
        a_operand = x
        if (
            prev_reusable is not None
            and prev_reusable.array.shape == (
                prev_reusable.layout.encoded_rows, layer.d_in,
            )
            and prev_reusable.config.block_size == cfg.block_size
            and prev_reusable.dtype == compute
            and not layer.is_low_precision
        ):
            a_operand = _rebuild_handle(prev_reusable, cfg)
            run.reused_encoding = True
            self._m_reuses.inc()
        slot = (model.name, layer.name, cfg)
        _storage, call_dtype = _resolve_storage_compute(
            cfg, a_operand.dtype, w.dtype
        )
        b_operand = self._weight_handle(slot, w, cfg, call_dtype)

        hook_state = {"armed": injection is not None}

        def chaos_hook(event, **kwargs):
            if event != "result" or not hook_state["armed"]:
                return
            c_fc = kwargs.get("c_fc")
            if c_fc is None:
                return
            hook_state["armed"] = False
            # Layouts derived from the live result shape (encoded rows =
            # data + data/BS), so injection coordinates stay correct even
            # if negotiation reshaped the plan.  That holds for the
            # full-checksum result of the serial ``matmul`` call below,
            # not for a pipelined chunk's compact product (see
            # ``MatmulEngine.set_chaos_hook``).
            bs = cfg.block_size
            row_layout = PartitionedLayout(
                data_rows=c_fc.shape[0] // (bs + 1) * bs, block_size=bs
            )
            col_layout = PartitionedLayout(
                data_rows=c_fc.shape[1] // (bs + 1) * bs, block_size=bs
            )
            fmt = format_for_dtype(c_fc.dtype)
            r = row_layout.to_encoded_index(injection.row % model.batch)
            c = col_layout.to_encoded_index(injection.col % layer.d_out)
            c_fc[r, c] = flip_bit(c_fc[r, c], injection.bit_index(fmt))
            run.injected = True

        installed_hook = False
        try:
            if injection is not None:
                self.engine.set_chaos_hook(chaos_hook)
                installed_hook = True
            result = self.engine.matmul(a_operand, b_operand, config=cfg)
        finally:
            if installed_hook:
                self.engine.set_chaos_hook(None)
        run.detected = bool(result.report.error_detected)
        if run.scheme == "adaptive":
            self._record_adaptive_threshold(layer.name, result)
        if run.detected:
            # The fault may sit in the cached checksums: re-encode next use.
            self._weights.pop(slot, None)
            if injection is None:
                # A real (non-campaign) detection: recompute once, from the
                # raw weight; it recovered only if its own check passed.
                result = self.engine.matmul(x, w, config=cfg)
                run.recomputed = not result.report.error_detected
        run.backend = result.backend

        y = result.c
        reusable = None
        if (
            consumed
            and layer.activation == "none"
            and not layer.is_low_precision
            and not result.report.error_detected
            and not run.injected
        ):
            reusable = _reusable_from_result(result, layer, cfg, model.batch)
        return _activate(layer, y, storage, compute), reusable

    def _weight_handle(
        self, slot: tuple, w, cfg: AbftConfig, dtype: np.dtype
    ) -> EncodedOperand:
        """The slot's handle if it encodes ``w`` (:func:`_encodes`), else a
        fresh encoding that replaces it.  Each call checks the handle it
        returns, so concurrent runs can at worst encode a weight twice.
        """
        handle = self._weights.get(slot)
        if handle is not None and _encodes(handle, w.astype(dtype, copy=False)):
            self._m_weight_cache["hit"].inc()
            return handle
        self._m_weight_cache["miss" if handle is None else "changed"].inc()
        # Release a stale encoding before building its replacement, so
        # the new buffers can reuse its memory.
        self._weights.pop(slot, None)
        del handle
        handle = self.engine.encode(w, side="b", config=cfg, dtype=dtype)
        self._weights[slot] = handle
        return handle

    def _config_for(self, assignment: LayerAssignment, rung: str) -> AbftConfig:
        if rung == assignment.rung and assignment.config is not None:
            return assignment.config
        base = assignment.config
        if base is None:
            base = AbftConfig()
        layer = assignment.layer
        return base.replace(
            scheme=_scheme_for(rung, layer),
            dtype=layer.dtype if layer.is_low_precision else None,
        )

    def _record_adaptive_threshold(self, layer_name: str, result) -> None:
        grids = result.provider.epsilon_grids(
            result.row_layout, result.col_layout
        )
        if grids is None:
            return
        col_eps, _row_eps = grids
        self._g_adaptive.labels(layer=layer_name).set(float(col_eps.mean()))


def _layer_dtypes(layer) -> tuple[np.dtype, np.dtype]:
    """(storage, compute) dtypes of a layer, mirroring the engine's rule."""
    storage = format_for_name(layer.dtype).dtype
    if layer.is_low_precision:
        return storage, np.dtype(np.float32)
    return storage, storage


def _activate(layer, y, storage, compute):
    if layer.activation == "none":
        return y
    out = apply_activation(layer.activation, y.astype(compute))
    return out.astype(storage)


def _verify_tolerance(model: ModelSpec, ref: np.ndarray) -> float:
    """Absolute comparison tolerance scaled to dtype and magnitude."""
    eps = max(
        float(np.finfo(format_for_name(layer.dtype).dtype).eps)
        for layer in model.layers
    )
    scale = float(np.abs(ref.astype(np.float64)).max()) if ref.size else 1.0
    return 64.0 * eps * max(scale, 1.0) * model.depth


def _reusable_from_result(result, layer, cfg, batch: int) -> EncodedOperand:
    """Slice a verified result into next layer's A-side encoded operand.

    The checksum *rows* of ``c_fc`` propagate (column checksums are linear
    in the data rows and the check just verified them within tolerance);
    checksum columns and column padding are dropped.  The scheme
    preprocessing is left to the layer that consumes the handle
    (:func:`_rebuild_handle`).  ``shape`` and ``padding`` record the
    *true* batch so the next layer's strip removes the same zero rows
    this layer's encode added.
    """
    sliced = strip_data_columns(result.c_fc, result.col_layout)
    d_out = layer.d_out
    if sliced.shape[1] != d_out:
        sliced = np.ascontiguousarray(sliced[:, :d_out])
    return EncodedOperand(
        side="a",
        array=sliced,
        layout=result.row_layout,
        shape=(batch, d_out),
        padding=result.row_layout.data_rows - batch,
        config=cfg,
    )


def _encodes(handle: EncodedOperand, w: np.ndarray) -> bool:
    """Whether a B-side handle's data columns hold exactly ``w``'s bytes.

    ``w`` is already in the compute dtype.  The first row is compared on
    its own first, so a weight that changes every pass costs one row; a
    match then compares every byte as unsigned words, so a NaN or a
    signed zero matches only itself.  The zero padding columns are not
    compared: they reach the output only through the checksums, so, as in
    the checksum columns, a fault there shows as a detection.
    """
    if handle.shape != w.shape or handle.dtype != w.dtype:
        return False
    rows, cols = w.shape
    layout = handle.layout
    bs = layout.block_size
    blocks = handle.array.reshape(rows, layout.num_blocks, layout.stride)
    full = cols // bs
    pairs = [(w[:, : full * bs].reshape(rows, full, bs), blocks[:, :full, :bs])]
    if full * bs < cols:
        pairs.append((w[:, full * bs :], blocks[:, full, : cols - full * bs]))
    words = np.dtype(f"u{w.dtype.itemsize}")
    return all(
        np.array_equal(ours[0].view(words), theirs[0].view(words))
        for ours, theirs in pairs
    ) and all(
        np.array_equal(ours.view(words), theirs.view(words))
        for ours, theirs in pairs
    )


def _rebuild_handle(handle: EncodedOperand, cfg: AbftConfig) -> EncodedOperand:
    """Adapt a reusable handle to the consuming layer's config.

    The encoded bytes only depend on the block size (already matched).
    The scheme preprocessing — top-p for ``aabft``, norms for ``sea`` /
    ``adaptive`` — depends on the checked values and on this layer's
    scheme, so it is computed here, once per consuming layer.  The
    ``TopP`` cache starts empty: ``replace`` would otherwise share the old
    handle's cached list.
    """
    top_values = top_indices = norms = None
    if cfg.scheme == "aabft":
        top_values, top_indices = top_p_arrays(handle.array, cfg.p, axis=1)
    elif cfg.scheme in ("sea", "adaptive"):
        norms = np.linalg.norm(handle.array, axis=1)
    return replace(
        handle,
        config=cfg,
        top_values=top_values,
        top_indices=top_indices,
        norms=norms,
        _tops_cache=[],
    )
