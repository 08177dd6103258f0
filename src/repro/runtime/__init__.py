"""repro.runtime — conv execution: the eager reference and the compiler.

- :func:`dispatch` — the eager convolution every nn forward pass,
  SPM-encoded inference, deployment bundle and the accelerator
  simulator's functional path run through: im2col + GEMM over bounded
  output-row slabs for a dense weight, the grouped pattern gather for
  an SPM encoding (:mod:`repro.runtime.engine`). It is the oracle the
  compiled pipeline is tested against.
- :class:`PlanCache` — memoizes per-geometry planning; pattern gather
  indices are additionally cached on each
  :class:`~repro.core.spm.EncodedLayer`.
- :func:`predict` — batched inference with configurable micro-batch
  splitting, thread-pool ``workers=``, and ``compile=True``.
- :func:`compile_model` / :class:`CompiledModel` — the compiled serving
  pipeline: the model lowers onto a small graph IR
  (:class:`Graph`, :mod:`repro.runtime.ir`) transformed by a validated
  :class:`PassManager` sequence (``lower → fold_bn → fuse_epilogues →
  winograd → [quantize] → link_halos → assign_arenas → finalize``)
  into BN-folded, epilogue-fused, channels-last ops over per-thread
  zero-allocation :class:`Arena` workspaces. Every conv's schedule is
  static: Winograd F(m x m, 3x3) where eligible, else the im2col GEMM,
  SPM convs decoded when their operand is built.
- :mod:`repro.runtime.quant` — the int8 execution path:
  ``compile_model(quantize="int8", calibration=batch)`` runs the conv
  trunk on integer weight/activation codes with requantizing epilogues
  and per-layer float fallback (:class:`QuantizationConfig`).
"""

from .arena import Arena, ArenaStats
from .compile import CompiledModel, Epilogue, compile_model, fold_batchnorm
from .engine import default_cache, dispatch
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
from .predict import PredictStats, effective_cpu_count, predict
from .quant import QuantizationConfig, QuantizationReport, resolve_quantization

__all__ = [
    "Arena",
    "ArenaStats",
    "Epilogue",
    "CompiledModel",
    "compile_model",
    "fold_batchnorm",
    "dispatch",
    "default_cache",
    "ExecutionPlan",
    "PlanCache",
    "PlanCacheStats",
    "PredictStats",
    "predict",
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
    "effective_cpu_count",
]
