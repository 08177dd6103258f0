"""Pattern-grouped sparse convolution — the software view of PCNN compute.

The regularity PCNN enforces (equal-length non-zero sequences, few shared
patterns per layer) lets a software kernel skip zeros with *structured*
access: kernels sharing an SPM code read the same ``n`` kernel positions,
so the layer decomposes into |P_l| grouped contractions over ``n`` columns
each — exactly ``n/9`` of the dense multiplies, with no per-weight index
decoding.

Execution lives in :mod:`repro.runtime`: the eager conv's SPM path turns
the grouped structure into a single BLAS GEMM against a cached grouped
weight matrix (an order of magnitude over a per-pattern gather loop —
``bench_software_sparse_conv`` quantifies it). An honest note remains: at
CIFAR-era sizes dense BLAS GEMM is still roughly on par wall-clock, which
is precisely the paper's argument for building a pattern-aware
accelerator rather than relying on general-purpose hardware (Sec. I).
The cycle-level win is measured by :mod:`repro.arch.simulator`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..runtime.engine import dispatch
from .spm import EncodedLayer

__all__ = ["pattern_sparse_conv2d", "sparse_conv_flops", "dense_conv_flops"]


def sparse_conv_flops(encoded: EncodedLayer, output_hw: Tuple[int, int]) -> int:
    """Multiplies executed by the pattern-sparse convolution."""
    oh, ow = output_hw
    return encoded.num_kernels * encoded.values.shape[1] * oh * ow


def dense_conv_flops(encoded: EncodedLayer, output_hw: Tuple[int, int]) -> int:
    """Multiplies of the equivalent dense convolution."""
    oh, ow = output_hw
    k2 = encoded.shape[-1] * encoded.shape[-2]
    return encoded.num_kernels * k2 * oh * ow


def pattern_sparse_conv2d(
    x: np.ndarray,
    encoded: EncodedLayer,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Convolution computed directly from SPM storage.

    Equivalent to ``conv2d(x, decode_layer(encoded))`` but never
    materialises the zeros (for codebooks within
    ``GROUPED_EXPANSION_LIMIT``). Thin wrapper over
    :func:`repro.runtime.dispatch`: the layer's cached gather plan picks
    each pattern's ``n`` positions per channel from the im2col columns,
    and one GEMM against the grouped weight matrix computes every
    output channel.
    The output dtype follows ``np.result_type(x, encoded.values)`` so
    float32 pipelines stay float32 end-to-end.
    """
    return dispatch(
        x,
        encoded=encoded,
        bias=bias,
        stride=stride,
        padding=padding,
    )
