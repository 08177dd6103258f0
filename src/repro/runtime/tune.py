"""Static schedule rules and the per-layer schedule tuner.

This module is the single home of every "which way should this conv
run" decision in the runtime:

- **Static rules.** :data:`GATHER_WIDTH_LIMIT` /
  :func:`prefer_gather` (should a compiled SPM conv gather natively or
  decode to a dense GEMM), and the eager conv's
  :data:`GROUPED_EXPANSION_LIMIT` (when an encoding decodes into the
  dense path) and :data:`TILE_THRESHOLD_ELEMENTS` (its slab bound).
  ``compile.py``, ``passes.py`` and ``engine.py`` import these from here
  instead of keeping private copies.
- **Cost-model tuning** (``tune="cost"``). For each lowered conv the
  tuner ranks its candidate schedules — dense GEMM vs native SPM gather,
  at the default or cache-sized slab tiling — with the analytic
  accelerator cost model (:func:`repro.arch.conv_layer_cost`: a roofline
  over MAC slots and memory traffic), and applies the cheapest. Zero
  measurement, deterministic.
- **Measured tuning** (``tune="measure"``). The cost model only *ranks*;
  the top candidates are then built and timed on a small synthetic
  input, and the winner is recorded in a :class:`TuningCache` persisted
  to ``~/.cache/repro-tune.json`` (override with the
  ``REPRO_TUNE_CACHE`` environment variable), keyed by layer geometry,
  encoding, dtype and CPU count — so the next compile of the same model
  on the same machine applies the winning schedule without measuring
  anything.

The tuner runs as the ``tune`` pass of the compile
:class:`~repro.runtime.passes.PassManager`; ``predict(tune=...)``,
``ModelServer(tune=...)`` and the CLI ``--tune`` flag all funnel here.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "GATHER_WIDTH_LIMIT",
    "GROUPED_EXPANSION_LIMIT",
    "TILE_THRESHOLD_ELEMENTS",
    "gather_width_ratio",
    "prefer_gather",
    "ConvSchedule",
    "TuningCache",
    "TuningCacheStats",
    "TuningReport",
    "effective_cpu_count",
    "get_tuning_cache",
    "tune_graph",
]

# ---------------------------------------------------------------------
# Static selection rules (single source of truth)
# ---------------------------------------------------------------------
#: Compiled-pipeline SPM lowering policy: gather natively only when the
#: grouped contraction reads at most this ratio of the dense one's
#: columns (|P| * n / k^2 <= limit), else decode once at compile time.
GATHER_WIDTH_LIMIT = 1.0

#: Eager SPM policy: above this grouped-matrix expansion ratio the eager
#: conv decodes the encoding and runs the dense GEMM instead (its job is
#: demonstrating SPM-regular execution, so the bound is looser).
GROUPED_EXPANSION_LIMIT = 4.0

#: Workspace bound (elements) per eager im2col / gather slab: above it
#: the eager conv runs over output-row slabs.
TILE_THRESHOLD_ELEMENTS = 1 << 22

#: Workspace budget (bytes) the measured tuner's "cache-sized" slab
#: candidate targets — roughly an L2 slice, so the im2col slab and GEMM
#: tile stay resident between the pack and the multiply.
CACHE_SLAB_BYTES = 1 << 20


def gather_width_ratio(num_patterns: int, n_nonzero: int, kernel_area: int) -> float:
    """Grouped-contraction width relative to the dense one (|P|·n / k²)."""
    return num_patterns * n_nonzero / kernel_area


def prefer_gather(encoded, kernel_area: int, limit: float = GATHER_WIDTH_LIMIT) -> bool:
    """The static gather-eligibility rule for one SPM-encoded layer.

    True when the grouped contraction is no wider than the dense GEMM's,
    so serving straight from SPM storage does not cost extra FLOPs.
    """
    ratio = gather_width_ratio(
        len(encoded.codebook), encoded.codebook.n_nonzero, kernel_area
    )
    return ratio <= limit


# ---------------------------------------------------------------------
# Tuning cache
# ---------------------------------------------------------------------
#: Environment variable overriding the persisted tuning-cache path.
TUNE_CACHE_ENV = "REPRO_TUNE_CACHE"
#: Environment variable overriding the CPU count :func:`effective_cpu_count`
#: reports: the tuning-cache key and ``predict``'s default lane count.
TUNE_CPUS_ENV = "REPRO_TUNE_CPUS"
# v2: the schedule space grew winograd2/winograd4 modes — v1 entries
# would silently pin pre-Winograd winners, so the key version bumps.
_CACHE_VERSION = 2


def effective_cpu_count() -> int:
    """CPUs this process can actually run on — the tuning-cache key.

    ``os.cpu_count()`` reports the machine, not the process: under CPU
    affinity or cgroup limits (containers, ``taskset``) it overstates
    the hardware budget. Resolution order: the :data:`TUNE_CPUS_ENV`
    override, then ``len(os.sched_getaffinity(0))``, then
    ``os.cpu_count()``.
    """
    override = os.environ.get(TUNE_CPUS_ENV)
    if override:
        try:
            value = int(override)
        except ValueError:
            value = 0
        if value > 0:
            return value
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_cache_path() -> str:
    """Resolved tuning-cache path (env override, else ``~/.cache``)."""
    override = os.environ.get(TUNE_CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-tune.json")


@dataclass
class TuningCacheStats:
    """Hit/miss accounting for a :class:`TuningCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total cache probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        """JSON-ready view (served on ``GET /stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": round(self.hit_rate, 3),
        }


class TuningCache:
    """Persisted winning schedules, keyed by layer geometry strings.

    Entries are small JSON dicts (``{"mode": ..., "slab_bytes": ...,
    "ips": ..., "source": "measure"}``). The file loads lazily on first
    probe and writes atomically (temp file + rename) on every store, so
    concurrent compiles at worst lose a redundant measurement, never the
    file. A corrupt or missing file behaves as empty.
    """

    def __init__(self, path: Optional[str] = None, autosave: bool = True) -> None:
        self.path = path or default_cache_path()
        self.autosave = autosave
        self.stats = TuningCacheStats()
        self._entries: Optional[Dict[str, dict]] = None
        self._lock = threading.Lock()

    def _load(self) -> Dict[str, dict]:
        if self._entries is None:
            entries: Dict[str, dict] = {}
            try:
                with open(self.path) as fh:
                    raw = json.load(fh)
                if isinstance(raw, dict) and raw.get("version") == _CACHE_VERSION:
                    entries = dict(raw.get("entries", {}))
            except (OSError, ValueError):
                entries = {}
            self._entries = entries
        return self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def get(self, key: str) -> Optional[dict]:
        """Cached schedule for ``key`` (counts a hit or miss)."""
        with self._lock:
            entry = self._load().get(key)
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return dict(entry) if entry is not None else None

    def put(self, key: str, value: dict) -> None:
        """Store a schedule and (by default) persist immediately."""
        with self._lock:
            self._load()[key] = dict(value)
            self.stats.stores += 1
            if self.autosave:
                self._save_locked()

    def save(self) -> None:
        """Write the cache file atomically (temp + rename)."""
        with self._lock:
            self._save_locked()

    def _save_locked(self) -> None:
        entries = self._load()
        directory = os.path.dirname(self.path) or "."
        try:
            os.makedirs(directory, exist_ok=True)
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump({"version": _CACHE_VERSION, "entries": entries}, fh, indent=1)
                fh.write("\n")
            os.replace(tmp, self.path)
        except OSError:
            # A read-only cache dir must never fail a compile; the
            # schedule still applies, it just is not remembered.
            pass

    def clear(self) -> None:
        """Drop every entry (and the file) and reset the statistics."""
        with self._lock:
            self._entries = {}
            self.stats = TuningCacheStats()
            try:
                os.remove(self.path)
            except OSError:
                pass


_default_cache: Optional[TuningCache] = None
_default_cache_lock = threading.Lock()


def get_tuning_cache() -> TuningCache:
    """The process-wide default :class:`TuningCache` (lazily created)."""
    global _default_cache
    with _default_cache_lock:
        if _default_cache is None or _default_cache.path != default_cache_path():
            _default_cache = TuningCache()
        return _default_cache


def layer_cache_key(
    *,
    c_in: int,
    c_out: int,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    in_hw: Tuple[int, int],
    encoding: Optional[Tuple[int, int]],
    dtype,
    cpus: int,
) -> str:
    """Stable cache key for one conv layer's schedule.

    Keyed by everything the winning schedule depends on: geometry,
    encoding shape (|P|, n), compile dtype and the machine's CPU count.
    """
    enc = f"P{encoding[0]}n{encoding[1]}" if encoding else "dense"
    dt = np.dtype(dtype).name if dtype is not None else "native"
    return (
        f"v{_CACHE_VERSION}|conv|cin{c_in}|cout{c_out}"
        f"|k{kernel[0]}x{kernel[1]}|s{stride}|p{padding}"
        f"|in{in_hw[0]}x{in_hw[1]}|{enc}|{dt}|cpu{cpus}"
    )


# ---------------------------------------------------------------------
# Schedules and the tuning report
# ---------------------------------------------------------------------
@dataclass
class ConvSchedule:
    """One conv's chosen execution schedule.

    ``mode`` is ``"dense"`` (decode to a dense GEMM when encoded),
    ``"gather"`` (serve natively from SPM storage), or
    ``"winograd2"``/``"winograd4"`` (the F(m x m, 3x3) fast-convolution
    path over decoded weights); ``slab_bytes``
    replaces the default slab-tiling byte budget when set (the budget
    stays batch-adaptive — rows are derived from it per call, so the
    measured footprint holds at any serving batch). ``source`` records
    who decided: the static ``heuristic``, the analytic ``cost`` model,
    a fresh ``measure`` run, or a tuning-``cache`` hit.
    """

    mode: str
    slab_bytes: Optional[int] = None
    source: str = "heuristic"
    score_ms: Optional[float] = None  # analytic estimate (cost mode)
    ips: Optional[float] = None  # measured images/sec (measure mode)

    def describe(self) -> str:
        """Compact annotation, e.g. ``gather/cache`` or ``dense/cost``."""
        slab = (
            f",slab={self.slab_bytes // 1024}KiB" if self.slab_bytes is not None else ""
        )
        return f"{self.mode}/{self.source}{slab}"

    def as_dict(self) -> dict:
        """JSON-ready form (what the cache stores)."""
        out = {"mode": self.mode, "slab_bytes": self.slab_bytes, "source": self.source}
        if self.score_ms is not None:
            out["score_ms"] = round(self.score_ms, 6)
        if self.ips is not None:
            out["ips"] = round(self.ips, 2)
        return out


@dataclass
class TuningReport:
    """What the ``tune`` pass decided for one compiled pipeline."""

    mode: str  # "cost" | "measure"
    layers: List[dict] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    micro_batch: Optional[int] = None

    @property
    def tuned_layers(self) -> int:
        """How many convs received a tuned schedule."""
        return len(self.layers)

    @property
    def changed_layers(self) -> int:
        """How many tuned schedules differ from the static heuristic."""
        return sum(1 for row in self.layers if row["changed"])

    def describe(self) -> str:
        """One line per tuned conv: geometry, schedule, provenance."""
        lines = [
            f"tune={self.mode}: {self.tuned_layers} conv(s), "
            f"{self.changed_layers} changed vs heuristic, "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses"
        ]
        for row in self.layers:
            mark = " *" if row["changed"] else ""
            lines.append(f"  {row['tag']}: {row['geometry']} -> {row['schedule']}{mark}")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# Candidate costing
# ---------------------------------------------------------------------
def _op_geometry(op, in_hw: Tuple[int, int]) -> dict:
    """Geometry facts the cost model needs for one lowered conv."""
    from ..nn.functional import conv_output_size

    kh, kw = op.kernel
    oh = conv_output_size(in_hw[0], kh, op.stride, op.padding)
    ow = conv_output_size(in_hw[1], kw, op.stride, op.padding)
    encoding = None
    if op.encoded is not None:
        encoding = (len(op.encoded.codebook), op.encoded.codebook.n_nonzero)
    return {
        "in_hw": in_hw,
        "out_hw": (oh, ow),
        "kernel_area": kh * kw,
        "encoding": encoding,
    }


def _wino_tile_of(mode: str) -> int:
    """The tile a ``winogradN`` mode names (0 for GEMM modes)."""
    return int(mode[len("winograd") :]) if mode.startswith("winograd") else 0


def _candidate_modes(op, geometry: dict) -> List[str]:
    from .winograd import eligible_tiles

    modes = ["dense"] if op.encoded is None else ["gather", "dense"]
    modes += [
        f"winograd{m}"
        for m in eligible_tiles(
            kernel=op.kernel,
            stride=op.stride,
            out_hw=geometry["out_hw"],
            c_in=op.c_in,
            use_gather=False,  # winograd replaces the decoded dense GEMM
        )
    ]
    return modes


def _analytic_cost_ms(
    op, geometry: dict, mode: str, itemsize: int, batch: int = 1
) -> float:
    """Rank one candidate with the per-layer accelerator cost model.

    The model is a proxy machine (MAC slots + a memory roofline), not a
    CPU simulator — what matters is the *relative* order of candidates:
    a gather contraction is charged its |P|·n·C_in GEMM width plus the
    extra gathered-operand traffic, a dense one its k²·C_in width, a
    Winograd one its transform GEMMs and 4x-larger weight operand.
    Candidates are ranked at the tuning batch: weight traffic is
    batch-invariant while activation traffic scales, and that ratio is
    exactly what separates Winograd (bigger weights, far fewer MACs)
    from im2col on each layer.
    """
    from ..arch.latency import conv_layer_cost

    k2 = geometry["kernel_area"]
    c_in = op.c_in
    oh, ow = geometry["out_hw"]
    windows = batch * oh * ow
    tile = _wino_tile_of(mode)
    if tile:
        cost = conv_layer_cost(
            out_hw=geometry["out_hw"],
            c_in=c_in,
            c_out=op.c_out,
            kernel_size=op.kernel[0],
            batch=batch,
            winograd_tile=tile,
            itemsize=itemsize,
        )
        return cost.latency_ms
    if mode == "gather":
        num_patterns, n_nonzero = geometry["encoding"]
        width = num_patterns * n_nonzero * c_in
        # The gathered A matrix is materialised per window on top of the
        # im2col columns it is gathered from.
        extra_bytes = float(windows * width * itemsize)
    else:
        width = k2 * c_in
        extra_bytes = 0.0
    cost = conv_layer_cost(
        out_hw=geometry["out_hw"],
        c_in=c_in,
        c_out=op.c_out,
        kernel_size=op.kernel[0],
        batch=batch,
        contraction_width=width,
        extra_bytes=extra_bytes,
        itemsize=itemsize,
    )
    return cost.latency_ms


def _cache_slab_candidate(op, geometry: dict, itemsize: int) -> Optional[int]:
    """Cache-sized slab budget, when it would actually change tiling.

    Returns :data:`CACHE_SLAB_BYTES` if the layer's monolithic workspace
    at the probe batch exceeds it (so the candidate genuinely tiles),
    else ``None`` — the monolithic default is then the same candidate.
    The budget, not a row count, is what gets measured and cached: rows
    derive from it per call, so the footprint holds at any batch.
    """
    oh, ow = geometry["out_hw"]
    k = geometry["kernel_area"] * op.c_in
    workspace = _MEASURE_BATCH * oh * ow * (k + op.c_out) * itemsize
    return CACHE_SLAB_BYTES if workspace > CACHE_SLAB_BYTES else None


# ---------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------
_MEASURE_BATCH = 4
_MEASURE_REPEATS = 3
#: A measured candidate must beat the default schedule by this margin
#: before it replaces it. Probes run on small synthetic batches, so a
#: few percent is measurement noise — switching on it would let the
#: tuner *regress* a schedule the heuristic already had right.
_MEASURE_MARGIN = 0.05


def _measure_layer_ips(op, geometry: dict, dtype, batch: int = _MEASURE_BATCH) -> float:
    """Time one candidate conv op on a synthetic NHWC input.

    Fresh arena and plan cache per candidate (so nothing leaks between
    them); the op binds once — the same thunk a compiled forward
    replays — and the bind's own first call is the warm-up. Then
    best-of-``_MEASURE_REPEATS`` replays — best rather than mean because
    scheduler noise only ever adds time.
    Probes run at the tuning batch, not at 1: schedules whose fixed
    overhead amortises over the batch (Winograd transforms, gather
    grouping) would otherwise lose probes they win at serving batches.
    """
    from .arena import Arena
    from .compile import _ExecState
    from .plan import PlanCache

    ih, iw = geometry["in_hw"]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, ih, iw, op.c_in)).astype(
        np.dtype(dtype) if dtype is not None else np.float64
    )
    thunk = op.bind(x, _ExecState(arena=Arena(), plans=PlanCache()))
    thunk(x)  # warm: first touch of the arena buffers and operands
    best = float("inf")
    for _ in range(_MEASURE_REPEATS):
        start = time.perf_counter()
        thunk(x)
        best = min(best, time.perf_counter() - start)
    return batch / best if best > 0 else float("inf")


def _measure_chunk_ips(ops: List[object], input_shape, dtype, batch: int, chunk: int) -> float:
    """Whole-pipeline throughput at one micro-batch chunk size.

    Each chunk geometry binds once, as a compiled forward does (the
    bind doubles as the warm-up), then best-of-two timed replays —
    noise only ever adds time.
    """
    from .arena import Arena
    from .compile import _bind_chain, _ExecState, _replay
    from .plan import PlanCache

    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch,) + tuple(input_shape)).astype(
        np.dtype(dtype) if dtype is not None else np.float64
    )
    state = _ExecState(arena=Arena(), plans=PlanCache())
    chunks = [x[lo : lo + chunk] for lo in range(0, batch, chunk)]
    traces = {}
    for part in chunks:
        if part.shape not in traces:
            traces[part.shape], _ = _bind_chain(ops, part, state)
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        for part in chunks:
            _replay(traces[part.shape], part)
        best = min(best, time.perf_counter() - start)
    return batch / best if best > 0 else float("inf")


# ---------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------
class _ShapeUnknown(Exception):
    """A pipeline op whose spatial output cannot be derived analytically."""


def _conv_shapes_analytic(
    ops: List[object], input_shape
) -> Optional[Dict[int, Tuple[int, int]]]:
    """Each conv op's input (H, W), by pure geometry propagation.

    Walks the op chain applying the same output-size arithmetic the ops
    use at run time (``conv_output_size`` for convs and pools, branches
    recursed for residuals) — no op executes, so cost-mode tuning stays
    genuinely zero-measurement. Returns ``None`` when an op's spatial
    behaviour is unknowable (a ``ModuleOp`` fallback); the caller then
    records shapes with a one-image probe forward instead.
    """
    from ..nn.functional import conv_output_size
    from .compile import (
        AvgPoolOp,
        ConvOp,
        FlattenOp,
        GlobalAvgPoolOp,
        MaxPoolOp,
        ModuleOp,
        ResidualOp,
    )

    shapes: Dict[int, Tuple[int, int]] = {}

    def out_hw(hw, kernel, stride, padding) -> Tuple[int, int]:
        return (
            conv_output_size(hw[0], kernel, stride, padding),
            conv_output_size(hw[1], kernel, stride, padding),
        )

    def walk(op_list: List[object], hw):
        for op in op_list:
            if isinstance(op, ResidualOp):
                body_hw = walk(op.body, hw)
                walk(op.shortcut, hw)
                hw = body_hw  # the add requires both branches to agree
            elif isinstance(op, ConvOp):
                shapes[id(op)] = hw
                hw = out_hw(hw, op.kernel[0], op.stride, op.padding)
            elif isinstance(op, MaxPoolOp):
                hw = out_hw(hw, op.kernel, op.stride, op.padding)
            elif isinstance(op, AvgPoolOp):
                hw = out_hw(hw, op.kernel, op.stride, 0)
            elif isinstance(op, (GlobalAvgPoolOp, FlattenOp)):
                hw = None  # spatial pipeline ends (no convs can follow)
            elif isinstance(op, ModuleOp):
                raise _ShapeUnknown(type(op.module).__name__)
            # Layout casts, ReLU, BN, linears, quantize/dequantize
            # boundaries: spatial dims pass through unchanged.
        return hw

    try:
        walk(ops, (input_shape[1], input_shape[2]))
    except _ShapeUnknown:
        return None
    return shapes


def _record_conv_shapes(ops: List[object], x: np.ndarray, state) -> Dict[int, Tuple[int, int]]:
    """Probe-forward fallback: record each conv's input (H, W) by running.

    Only used when :func:`_conv_shapes_analytic` bails on a ``ModuleOp``
    fallback. Residual ops are recursed manually (mirroring their run
    semantics) so branch convs get their true input geometry.
    """
    from .compile import ConvOp, ResidualOp

    shapes: Dict[int, Tuple[int, int]] = {}

    def walk(op_list: List[object], cur: np.ndarray) -> np.ndarray:
        for op in op_list:
            if isinstance(op, ResidualOp):
                out = walk(op.body, cur)
                identity = walk(op.shortcut, cur)
                cur = (out if out is not cur else cur.copy()) + identity
                continue
            if isinstance(op, ConvOp):
                shapes[id(op)] = (cur.shape[1], cur.shape[2])  # NHWC
            cur = op.run(cur, state)
        return cur

    walk(ops, x)
    return shapes


def tune_graph(graph, ctx) -> TuningReport:
    """Tune every conv in ``graph`` in place; returns the report.

    ``ctx`` is the compile :class:`~repro.runtime.passes.CompileContext`
    — it supplies the tune mode (``"cost"``/``"measure"``), the model
    input shape (needed to derive per-layer geometry), the compile dtype
    and the :class:`TuningCache`.
    """
    from .arena import Arena
    from .compile import ConvOp, _ExecState
    from .plan import PlanCache
    from .quant import QuantConvOp

    mode = ctx.tune
    if mode not in ("cost", "measure"):
        raise ValueError(f"tune= must be 'cost' or 'measure', got {mode!r}")
    if ctx.input_shape is None:
        raise ValueError(
            "tune= needs the model input shape to derive per-layer "
            "geometry; pass input_shape=(C, H, W) to compile_model "
            "(predict/serving/CLI fill it in automatically)"
        )
    cache = ctx.tuning_cache if ctx.tuning_cache is not None else get_tuning_cache()
    cpus = effective_cpu_count()
    itemsize = np.dtype(ctx.dtype).itemsize if ctx.dtype is not None else 8
    report = TuningReport(mode=mode)

    ops = graph.op_list()
    shapes = _conv_shapes_analytic(ops, ctx.input_shape)
    if shapes is None:
        # A ModuleOp fallback hides its spatial behaviour: fall back to
        # one probe forward (the ops involved get invalidated below, so
        # the probe's heuristic GEMM state never leaks into serving).
        probe = np.zeros((1,) + tuple(ctx.input_shape))
        if ctx.dtype is not None:
            probe = probe.astype(ctx.dtype)
        shapes = _record_conv_shapes(
            ops, probe, _ExecState(arena=Arena(), plans=PlanCache())
        )

    for node in graph.walk():
        op = node.op
        if not isinstance(op, ConvOp) or isinstance(op, QuantConvOp):
            continue
        in_hw = shapes.get(id(op))
        if in_hw is None:  # unreached op (should not happen)
            continue
        geometry = _op_geometry(op, in_hw)
        if op.wino_m < 0:
            # Auto marker from a shape-blind winograd pass: the tuner
            # knows the geometry, so resolve it to a concrete default.
            from .winograd import default_tile, eligible_tiles

            op.wino_m = default_tile(
                out_hw=geometry["out_hw"],
                c_in=op.c_in,
                tiles=eligible_tiles(
                    kernel=op.kernel,
                    stride=op.stride,
                    out_hw=geometry["out_hw"],
                    c_in=op.c_in,
                    use_gather=op.use_gather,
                ),
            )
        if op.wino_m:
            heuristic_mode = f"winograd{op.wino_m}"
        else:
            heuristic_mode = "gather" if op.use_gather else "dense"
        key = layer_cache_key(
            c_in=op.c_in,
            c_out=op.c_out,
            kernel=op.kernel,
            stride=op.stride,
            padding=op.padding,
            in_hw=in_hw,
            encoding=geometry["encoding"],
            dtype=ctx.dtype,
            cpus=cpus,
        )
        schedule = None
        if mode == "measure":
            hit = cache.get(key)
            if hit is not None:
                schedule = ConvSchedule(
                    mode=hit["mode"],
                    slab_bytes=hit.get("slab_bytes"),
                    source="cache",
                    ips=hit.get("ips"),
                )
                report.cache_hits += 1
            else:
                report.cache_misses += 1
        if schedule is None:
            rank_batch = ctx.tune_batch or _MEASURE_BATCH
            ranked = sorted(
                _candidate_modes(op, geometry),
                key=lambda m: _analytic_cost_ms(op, geometry, m, itemsize, rank_batch),
            )
            if mode == "cost":
                best = ranked[0]
                schedule = ConvSchedule(
                    mode=best,
                    slab_bytes=None,
                    source="cost",
                    score_ms=_analytic_cost_ms(
                        op, geometry, best, itemsize, rank_batch
                    ),
                )
            else:
                # The heuristic's own schedule measures first and is the
                # default: an alternative must beat it by _MEASURE_MARGIN
                # (probes are small and noisy; a coin-flip switch could
                # regress a schedule the static rule already had right).
                default = ConvSchedule(mode=heuristic_mode, slab_bytes=None)
                candidates: List[ConvSchedule] = [default]
                for cand_mode in ranked:
                    if cand_mode != heuristic_mode:
                        candidates.append(ConvSchedule(mode=cand_mode, slab_bytes=None))
                    if _wino_tile_of(cand_mode):
                        continue  # winograd ignores slab tiling
                    slab = _cache_slab_candidate(op, geometry, itemsize)
                    if slab is not None:
                        candidates.append(ConvSchedule(mode=cand_mode, slab_bytes=slab))
                for cand in candidates:
                    variant = op.clone_with(
                        use_gather=(cand.mode == "gather"),
                        slab_bytes=cand.slab_bytes,
                        wino_m=_wino_tile_of(cand.mode),
                    )
                    cand.ips = _measure_layer_ips(
                        variant, geometry, ctx.dtype, rank_batch
                    )
                schedule = max(candidates, key=lambda c: c.ips)
                # Never persist a winner that did not beat the default
                # schedule by the noise margin: probe batches are small,
                # and a cached regression would outlive the noisy run
                # that produced it (the bench guard checks the invariant
                # end to end as tuned-vs-compiled throughput).
                if (
                    schedule is not default
                    and schedule.ips < default.ips * (1.0 + _MEASURE_MARGIN)
                ):
                    schedule = default
                schedule.source = "measure"
                cache.put(key, schedule.as_dict())
        op.use_gather = schedule.mode == "gather"
        op.slab_bytes = schedule.slab_bytes
        op.wino_m = _wino_tile_of(schedule.mode)
        op.schedule = schedule
        # The probe forward above already built GEMM state under the
        # heuristic schedule; drop it so finalize rebuilds for the
        # tuned one (bias rows differ between gather and dense).
        op.invalidate()
        report.layers.append(
            {
                "tag": op.tag,
                "geometry": (
                    f"{op.c_in}x{in_hw[0]}x{in_hw[1]} -> {op.c_out}, "
                    f"k{op.kernel[0]} s{op.stride}"
                    + (
                        f", |P|={geometry['encoding'][0]} n={geometry['encoding'][1]}"
                        if geometry["encoding"]
                        else ""
                    )
                ),
                "key": key,
                "schedule": schedule.describe(),
                "mode": schedule.mode,
                "slab_bytes": schedule.slab_bytes,
                "source": schedule.source,
                "changed": schedule.mode != heuristic_mode
                or schedule.slab_bytes is not None,
            }
        )

    if mode == "measure":
        report.micro_batch = _tune_chunk(graph, ctx, cache, report, cpus)
    return report


def _tune_chunk(graph, ctx, cache: TuningCache, report: TuningReport, cpus: int) -> Optional[int]:
    """Pick the micro-batch chunk size for the whole tuned pipeline.

    Measured at ``ctx.tune_batch`` images over halving chunk candidates;
    the winner persists in the tuning cache keyed by the pipeline's
    layer-key signature, so a warm cache skips the measurement entirely.
    """
    import hashlib

    batch = ctx.tune_batch
    if batch is None or batch < 2:
        return None
    signature = hashlib.sha256(
        "+".join(row["key"] for row in report.layers).encode()
    ).hexdigest()[:16]
    key = f"v{_CACHE_VERSION}|chunk|{signature}|b{batch}|cpu{cpus}"
    hit = cache.get(key)
    if hit is not None:
        report.cache_hits += 1
        return hit.get("micro_batch")
    report.cache_misses += 1
    ops = graph.op_list()
    candidates = []
    chunk = batch
    while chunk >= max(1, batch // 4):
        candidates.append(chunk)
        chunk //= 2
    # Full-batch chunking (what predict does untuned) is the default; a
    # smaller chunk must beat it by the measurement margin to win.
    best, best_ips = None, -1.0
    default_ips = None
    for chunk in candidates:
        ips = _measure_chunk_ips(ops, ctx.input_shape, ctx.dtype, batch, chunk)
        if chunk == batch:
            default_ips = ips
        if ips > best_ips:
            best, best_ips = chunk, ips
    if (
        best != batch
        and default_ips is not None
        and best_ips < default_ips * (1.0 + _MEASURE_MARGIN)
    ):
        best, best_ips = batch, default_ips
    # "Best chunk == the whole probe batch" means splitting never won;
    # record None so predict keeps its normal (unsplit / per-worker)
    # chunking instead of capping serving batches at the probe size.
    chunk_choice = None if best == batch else best
    cache.put(
        key,
        {"micro_batch": chunk_choice, "ips": round(best_ips, 2), "source": "measure"},
    )
    return chunk_choice
