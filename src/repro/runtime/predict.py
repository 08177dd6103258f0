"""Batched inference API — the runtime engine's serving entry point.

:func:`predict` runs a model forward in eval/no-grad mode over a batch of
inputs, optionally split into micro-batches. Micro-batching keeps every
chunk's im2col workspace resident in cache (and bounded in memory) while
the engine's plan cache guarantees the per-geometry planning cost is
paid once for the whole run — the serving-style loop the ROADMAP's
"heavy traffic" north star asks for.

Two throughput levers stack on top:

- ``compile=True`` (or passing a
  :class:`~repro.runtime.compile.CompiledModel` directly) runs the
  lowered pipeline — BN folded into convs, fused bias/ReLU epilogues,
  float32 parameters, zero-allocation buffer arenas — instead of the
  float64 module graph.
- Lanes. A compiled model's large batches run as one batch lane per
  usable core, each on its own thread, with BLAS held at one thread
  (:mod:`repro.runtime.blas`) so lanes do not oversubscribe the cores.
  ``workers=N`` fans micro-batches out over a thread pool explicitly.
  The GEMMs dominating the compiled path run inside BLAS, which releases
  the GIL, so the chunks genuinely overlap; compiled execution state is
  thread-local, so one compiled model serves all workers.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .. import nn
from . import blas
from .compile import CompiledModel, compile_model

__all__ = ["PredictStats", "predict", "effective_cpu_count", "LANE_MIN_MACS"]

#: Environment variable overriding the CPU count
#: :func:`effective_cpu_count` reports, for deployments whose cgroup CPU
#: quota is narrower than the affinity mask.
CPUS_ENV = "REPRO_TUNE_CPUS"

#: Dense multiply-accumulates each automatic batch lane must carry. A
#: lane this size is ~10 ms of single-threaded float32 GEMM, against
#: well under a millisecond of thread hand-off; VGG-16 on CIFAR carries
#: ~313 M MACs per image, a small serving CNN under 1 M.
LANE_MIN_MACS = 1_000_000_000

# Worker threads are shared across predict() calls: compiled-model
# execution state is keyed by thread identity (thread-local arenas), so
# persistent threads are what make repeated predict(..., workers=N)
# serving loops allocation-free after warm-up — a fresh pool per call
# would rebuild every arena every call. One pool per distinct size,
# never shut down (a handful of sizes in practice): replacing a live
# pool would race concurrent predict() calls still holding it.
_pool_lock = threading.Lock()
_pools: dict = {}


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    with _pool_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-predict-{workers}"
            )
            _pools[workers] = pool
        return pool


def effective_cpu_count() -> int:
    """CPUs this process can actually run on — ``predict``'s lane count.

    ``os.cpu_count()`` reports the machine, not the process: under CPU
    affinity (``taskset``) it overstates the hardware budget, and a
    cgroup quota shows in neither. Resolution order: the
    :data:`CPUS_ENV` override, then ``len(os.sched_getaffinity(0))``,
    then ``os.cpu_count()``.
    """
    override = os.environ.get(CPUS_ENV)
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


def _auto_lanes(compiled: CompiledModel, x: np.ndarray) -> int:
    """Batch lanes for an unpinned compiled call: one per usable core,
    each carrying at least :data:`LANE_MIN_MACS` dense MACs. One lane
    where BLAS threads cannot be pinned (lanes would oversubscribe)."""
    cores = effective_cpu_count()
    if cores < 2 or not blas.controllable():
        return 1
    macs = compiled.dense_macs(x.shape[1:])
    if not macs:
        return 1
    return max(1, min(cores, x.shape[0], macs * x.shape[0] // LANE_MIN_MACS))


# Input geometries at which each compiled model has run its lanes. The
# first call at a geometry runs its lanes one after another on the
# caller's thread, so lazily built operands (and their float64
# temporaries) are created once, on that thread — not raced for, and not
# left behind in other threads' malloc arenas.
_laned: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class PredictStats:
    """Timing/shape accounting of one :func:`predict` call."""

    batch: int = 0
    micro_batch: Optional[int] = None
    chunks: int = 0
    workers: int = 1
    compiled: bool = False
    seconds: float = 0.0
    chunk_seconds: List[float] = field(default_factory=list)

    @property
    def images_per_second(self) -> float:
        """End-to-end throughput of the call (batch / wall seconds)."""
        return self.batch / self.seconds if self.seconds > 0 else float("inf")


# Memoized empty-batch output geometry, keyed weakly by model object ->
# {(compile?, input shape, input dtype): (output shape, output dtype)}.
# Output geometry is a function of the architecture and input geometry
# alone (weight *values* never move it), so a hot serving loop that
# polls with empty flushes pays the one-image probe forward exactly once
# per model and geometry.
_probe_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _probe_output(
    model: Union[nn.Module, CompiledModel], want_compiled: bool, x: np.ndarray
) -> Tuple[Tuple[int, ...], np.dtype]:
    """Output (shape-tail, dtype) via a cached one-image probe forward."""
    key = (want_compiled, x.shape[1:], np.dtype(x.dtype))
    try:
        cache = _probe_cache.setdefault(model, {})
    except TypeError:  # un-weakref-able model: probe without memoizing
        cache = {}
    entry = cache.get(key)
    if entry is None:
        probe = np.zeros((1,) + x.shape[1:], dtype=x.dtype)
        if want_compiled and not isinstance(model, CompiledModel):
            out = compile_model(model)(probe)
        elif isinstance(model, CompiledModel):
            out = model(probe)
        else:
            was_training = model.training
            model.eval()
            try:
                with nn.no_grad():
                    out = model(nn.Tensor(probe, dtype=None)).data
            finally:
                model.train(was_training)
        entry = (out.shape[1:], out.dtype)
        cache[key] = entry
    return entry


def predict(
    model: Union[nn.Module, CompiledModel],
    x: np.ndarray,
    *,
    micro_batch: Optional[int] = None,
    workers: Optional[int] = None,
    executor: Optional[ThreadPoolExecutor] = None,
    compile: bool = False,
    quantize=None,
    calibration: Optional[np.ndarray] = None,
    stats: Optional[PredictStats] = None,
) -> np.ndarray:
    """Run ``model`` over a batch of inputs through the runtime engine.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` (put into eval mode for the call and
        restored afterwards) or an already-lowered
        :class:`~repro.runtime.compile.CompiledModel`.
    x:
        Inputs ``(N, C, H, W)``.
    micro_batch:
        Split size along the batch axis; ``None`` runs one chunk (or,
        with ``workers``, one chunk per worker). The last chunk may be
        smaller.
    workers:
        Run micro-batches on a thread pool of this size. BLAS releases
        the GIL during the GEMMs that dominate inference, so chunks
        overlap on real cores. ``1`` keeps the sequential loop.
        Pools are created lazily and shared across calls (one per
        distinct size), so repeated serving loops never pay pool (or
        thread-local arena) startup per call. ``None`` means automatic:
        a compiled model splits the batch into one lane per usable core
        (:func:`effective_cpu_count`), as long as
        each lane carries at least :data:`LANE_MIN_MACS` dense MACs
        (:meth:`~repro.runtime.compile.CompiledModel.dense_macs`) and
        BLAS threads can be controlled; ``micro_batch`` or ``executor``
        also turn the automatic split off. The caller's thread runs lane
        0 and the shared pool the rest; the first call at a new input
        geometry runs every lane on the caller's thread, so lazily built
        operands are created once. Small batches and models stay on the
        sequential loop. Whenever more than one thread runs chunks —
        automatic lanes or an explicit ``workers > 1`` — OpenBLAS is
        held at one thread for the call (:func:`repro.runtime.blas.pinned`)
        and restored afterwards.
    executor:
        Bring-your-own ``ThreadPoolExecutor`` used instead of the shared
        thread pool, for callers that already own a pool or want bounded
        lifetimes in tests.
    compile:
        Lower the model with :func:`~repro.runtime.compile.compile_model`
        for this call (BN folding, fused epilogues, float32, arenas).
        Compilation snapshots the weights, so repeated serving loops
        should compile once themselves and pass the compiled model in.
    quantize:
        Compile to the int8 execution path
        (:mod:`repro.runtime.quant`): ``"int8"``, a bit width, or a
        :class:`~repro.runtime.quant.QuantizationConfig`. Implies
        ``compile=True``. Activation scales calibrate on
        ``calibration`` when given, else on the leading images of ``x``
        itself (fine for one-shot calls; serving loops should
        ``compile_model(quantize=...)`` once with a held-out batch).
    calibration:
        Optional ``(N, C, H, W)`` batch for ``quantize`` calibration.
    stats:
        Optional :class:`PredictStats` filled in with timings.

    Returns
    -------
    Stacked model outputs ``(N, ...)`` as a numpy array.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) inputs, got shape {x.shape}")
    if micro_batch is not None and micro_batch < 1:
        raise ValueError("micro_batch must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if quantize is not None and isinstance(model, CompiledModel):
        # An already-lowered model cannot be re-quantized here; serving
        # float while the caller believes they measured int8 would be
        # worse than failing.
        if model.quantization is None:
            raise ValueError(
                "quantize= has no effect on an already-compiled model; "
                "pass the eager model, or compile_model(quantize=...) yourself"
            )
    compile = compile or quantize is not None
    want_compiled = compile or isinstance(model, CompiledModel)
    if x.shape[0] == 0:
        # A batcher flush or a drained queue legitimately produces N=0:
        # answer with a correctly-shaped (0, ...) output. A compiled
        # model knows (or can derive) its output geometry from metadata
        # — no forward pass; otherwise fall back to a one-image probe,
        # memoized per model and geometry (checked before the compile
        # step so repeated empty calls never lower the model).
        entry = (
            model.output_geometry(x.shape[1:], x.dtype)
            if isinstance(model, CompiledModel)
            else None
        )
        shape_tail, dtype = entry if entry is not None else _probe_output(
            model, want_compiled, x
        )
        result = np.empty((0,) + shape_tail, dtype=dtype)
        if stats is not None:
            stats.batch = 0
            stats.micro_batch = micro_batch
            stats.chunks = 0
            stats.workers = workers or 1
            stats.compiled = want_compiled
            stats.seconds = 0.0
            stats.chunk_seconds = []
        return result

    if compile and not isinstance(model, CompiledModel):
        model = compile_model(
            model,
            quantize=quantize,
            calibration=calibration if calibration is not None else x,
            input_shape=x.shape[1:],
        )
    compiled = model if isinstance(model, CompiledModel) else None

    batch = x.shape[0]
    lanes = 1
    unpinned = workers is None and micro_batch is None and executor is None
    if compiled is not None and unpinned:
        lanes = _auto_lanes(compiled, x)
    workers = workers or lanes
    if micro_batch is None and workers > 1:
        # One chunk per worker keeps every thread busy exactly once.
        micro_batch = -(-batch // workers)
    step = batch if micro_batch is None else micro_batch
    chunks = [x[lo : lo + step] for lo in range(0, batch, step)]
    # Ragged tail chunk on the compiled path: pad it up to the uniform
    # chunk size (rows are independent in inference, so the padding rows
    # are computed and discarded). One chunk geometry means one set of
    # execution plans and arena buffers, instead of the compiled model
    # keeping a second full buffer set alive for every distinct tail
    # size a serving loop happens to produce.
    tail_rows = chunks[-1].shape[0]
    pad_tail = compiled is not None and len(chunks) > 1 and tail_rows < step
    if pad_tail:
        pad = np.zeros((step - tail_rows,) + x.shape[1:], dtype=x.dtype)
        chunks[-1] = np.concatenate([chunks[-1], pad])
    chunk_seconds = [0.0] * len(chunks)

    def run_chunk(index: int) -> np.ndarray:
        chunk_start = time.perf_counter()
        if compiled is not None:
            out = compiled(chunks[index])
        else:
            # Grad mode is per-thread, so each (possibly pooled) worker
            # disables recording for its own chunk.
            with nn.no_grad():
                out = model(nn.Tensor(chunks[index], dtype=None)).data
        chunk_seconds[index] = time.perf_counter() - chunk_start
        return out

    def run_all() -> List[np.ndarray]:
        if lanes > 1:
            laned = _laned.setdefault(compiled, set())
            geometry = (x.shape[1:], np.dtype(x.dtype))
            if geometry not in laned:
                # First call at this geometry: every lane in turn on the
                # caller's thread, BLAS threads left as they are.
                outputs = [run_chunk(i) for i in range(len(chunks))]
                laned.add(geometry)
                return outputs
            with blas.pinned():
                # Lane 0 on the caller's thread, the rest on the pool.
                pool = _shared_pool(lanes - 1)
                futures = [pool.submit(run_chunk, i) for i in range(1, len(chunks))]
                try:
                    head = run_chunk(0)
                finally:
                    wait(futures)  # no lane may outlive the BLAS pin
            return [head] + [future.result() for future in futures]
        if workers == 1:
            return [run_chunk(i) for i in range(len(chunks))]
        with blas.pinned():
            pool = executor if executor is not None else _shared_pool(workers)
            return list(pool.map(run_chunk, range(len(chunks))))

    start = time.perf_counter()
    if compiled is not None:
        outputs = run_all()
    else:
        was_training = model.training
        model.eval()
        try:
            # This outer no_grad covers the sequential path (run_chunk
            # adds a per-thread one for pooled workers, since grad mode
            # is thread-local).
            with nn.no_grad():
                outputs = run_all()
        finally:
            model.train(was_training)

    if pad_tail:
        outputs[-1] = outputs[-1][:tail_rows]
    result = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
    if stats is not None:
        stats.batch = batch
        stats.micro_batch = micro_batch
        stats.chunks = len(outputs)
        stats.workers = workers
        stats.compiled = compiled is not None
        stats.seconds = time.perf_counter() - start
        stats.chunk_seconds = chunk_seconds
    return result
