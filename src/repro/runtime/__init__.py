"""repro.runtime — unified conv execution engine.

One shared, plan-caching execution layer for every convolution in the
reproduction (nn forward passes, SPM-encoded inference, deployment
bundles, the accelerator simulator's functional path):

- :func:`dispatch` — single entry point; selects a backend from layer
  shape + encoding and executes through a cached
  :class:`ExecutionPlan`.
- :class:`ConvBackend` registry — ``dense`` (im2col + GEMM reference),
  ``pattern`` (fused gather over SPM storage), ``tiled`` (bounded-memory
  GEMM for large inputs), ``winograd`` (F(m x m, 3x3) transform-domain
  conv for 3x3/stride-1); :func:`register_backend` adds more.
- :class:`PlanCache` — memoizes per-geometry planning; pattern gather
  indices are additionally cached on each
  :class:`~repro.core.spm.EncodedLayer`.
- :func:`predict` — batched inference with configurable micro-batch
  splitting, thread-pool ``workers=``, and ``compile=True``.
- :func:`compile_model` / :class:`CompiledModel` — the compiled serving
  pipeline: the model lowers onto a small graph IR
  (:class:`Graph`, :mod:`repro.runtime.ir`) transformed by a validated
  :class:`PassManager` sequence (``lower → fold_bn → fuse_epilogues →
  winograd → [tune] → [quantize] → link_halos → assign_arenas →
  finalize``) into
  BN-folded, epilogue-fused, channels-last ops over per-thread
  zero-allocation :class:`Arena` workspaces.
- :mod:`repro.runtime.tune` — backend-selection policy and the
  cost-model/autotune pass: ``compile_model(tune="cost")`` ranks
  per-layer schedules with the analytic accelerator model,
  ``tune="measure"`` times the top candidates and persists winners in
  the :class:`TuningCache` (``~/.cache/repro-tune.json``).
- :mod:`repro.runtime.quant` — the int8 execution path:
  ``compile_model(quantize="int8", calibration=batch)`` runs the conv
  trunk on integer weight/activation codes with requantizing epilogues
  and per-layer float fallback (:class:`QuantizationConfig`).
"""

from .arena import Arena, ArenaStats
from .backends import (
    ConvBackend,
    DenseGemmBackend,
    Epilogue,
    PatternSparseBackend,
    TiledBackend,
    WinogradBackend,
    available_backends,
    get_backend,
    register_backend,
)
from .compile import CompiledModel, compile_model, fold_batchnorm
from .engine import ConvRequest, default_cache, dispatch, select_backend
from .ir import Graph, GraphError, Node, TensorMeta
from .passes import (
    PASS_REGISTRY,
    CompileContext,
    Pass,
    PassManager,
    PassRecord,
    default_passes,
)
from .plan import ExecutionPlan, PlanCache, PlanCacheStats
from .predict import PredictStats, conv_backend_override, predict
from .quant import QuantizationConfig, QuantizationReport, resolve_quantization
from .tune import (
    ConvSchedule,
    TuningCache,
    TuningCacheStats,
    TuningReport,
    effective_cpu_count,
    get_tuning_cache,
)

__all__ = [
    "Arena",
    "ArenaStats",
    "ConvBackend",
    "Epilogue",
    "DenseGemmBackend",
    "PatternSparseBackend",
    "TiledBackend",
    "WinogradBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "CompiledModel",
    "compile_model",
    "fold_batchnorm",
    "ConvRequest",
    "dispatch",
    "select_backend",
    "default_cache",
    "ExecutionPlan",
    "PlanCache",
    "PlanCacheStats",
    "PredictStats",
    "predict",
    "conv_backend_override",
    "QuantizationConfig",
    "QuantizationReport",
    "resolve_quantization",
    "Graph",
    "GraphError",
    "Node",
    "TensorMeta",
    "Pass",
    "PassManager",
    "PassRecord",
    "PASS_REGISTRY",
    "CompileContext",
    "default_passes",
    "ConvSchedule",
    "TuningCache",
    "TuningCacheStats",
    "TuningReport",
    "effective_cpu_count",
    "get_tuning_cache",
]
