"""repro — full reproduction of PCNN (DAC 2020).

PCNN: Pattern-based Fine-Grained Regular Pruning Towards Optimizing CNN
Accelerators. The package is organised as:

- :mod:`repro.nn` — numpy autograd neural-network framework (substrate).
- :mod:`repro.models` — VGG-16 / ResNet-18 / PatternNet model zoo.
- :mod:`repro.data` — synthetic dataset generators and loaders.
- :mod:`repro.core` — the PCNN algorithm: patterns, SPM encoding,
  KP-based pattern distillation, ADMM fine-tuning, compression accounting,
  orthogonal (kernel/channel) pruning and baselines.
- :mod:`repro.runtime` — conv execution: the eager reference conv
  (dense im2col GEMM / SPM pattern gather), the compiled inference
  pipeline and the batched ``predict()`` inference API.
- :mod:`repro.serving` — dynamic-batching model server: request
  coalescing, multi-model registry (bundles or registry names), JSON
  endpoint, latency/batch statistics.
- :mod:`repro.arch` — the pattern-aware accelerator: memory layout, SPM
  decoder, sparsity pointer generation, PE group, cycle-level simulator and
  area/power model.
- :mod:`repro.analysis` — paper-style table and figure rendering.

See DESIGN.md for the system inventory and the per-experiment index, and
EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "models",
    "data",
    "core",
    "runtime",
    "serving",
    "arch",
    "analysis",
    "utils",
]
