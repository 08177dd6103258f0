"""The eager convolution: one reference conv with two paths.

Every eager convolution in the repo runs through :func:`dispatch` — the
autograd forward of :func:`repro.nn.functional.conv2d`, the no-grad
``Conv2d`` fast path, :func:`repro.core.pattern_sparse_conv2d`,
:meth:`repro.core.LayerBundle.conv_forward` and the accelerator
simulator's functional path. It is also the oracle every compiled
pipeline is checked against, so it stays a plain reference with no
options. The path follows from what it is given:

- **Dense weight** — im2col + one GEMM per output-row slab. Slabs keep
  the column workspace under :data:`TILE_THRESHOLD_ELEMENTS`;
  a geometry that fits runs as one slab (the monolithic GEMM).
- **SPM encoding** — the paper's grouped contraction: kernels sharing
  an SPM code read the same ``n`` positions, so each slab is one GEMM of
  the gathered ``|P| * n`` pattern columns per channel
  (:meth:`~repro.core.spm.EncodedLayer.gather_plan`) against the grouped
  weight matrix (:meth:`~repro.core.spm.EncodedLayer.grouped_weight_matrix`).
  When the codebook is so diverse that this matrix would be more than
  :data:`GROUPED_EXPANSION_LIMIT` times the dense
  weight, the encoding is decoded for the call only and runs the dense
  path.

The output dtype is ``np.result_type(x, weights)``. Per-geometry
:class:`~repro.runtime.plan.ExecutionPlan` objects are memoized in a
:class:`~repro.runtime.plan.PlanCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..nn.functional import im2col
from .plan import ExecutionPlan, PlanCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.spm import EncodedLayer

__all__ = ["dispatch", "default_cache"]

#: Above this grouped-matrix expansion ratio the SPM path decodes the
#: encoding and runs the dense GEMM instead (its job is demonstrating
#: SPM-regular execution, so the bound is loose).
GROUPED_EXPANSION_LIMIT = 4.0

#: Workspace bound (elements) per im2col / gather slab: above it the
#: conv runs over output-row slabs.
TILE_THRESHOLD_ELEMENTS = 1 << 22


def gather_width_ratio(num_patterns: int, n_nonzero: int, kernel_area: int) -> float:
    """Grouped-contraction width relative to the dense one (|P|·n / k²)."""
    return num_patterns * n_nonzero / kernel_area

#: Process-wide plan cache shared by every dispatch() call that does not
#: bring its own. Keys are pure geometry, so it never goes stale.
default_cache = PlanCache()


def dispatch(
    x: np.ndarray,
    weight: Optional[np.ndarray] = None,
    *,
    encoded: Optional["EncodedLayer"] = None,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
    cache: Optional[PlanCache] = None,
    workspace: Optional[dict] = None,
) -> np.ndarray:
    """Run one convolution (cross-correlation) eagerly.

    Parameters
    ----------
    x:
        Input activations ``(N, C_in, H, W)``.
    weight:
        Dense filters ``(C_out, C_in, KH, KW)``; ignored when ``encoded``
        is given.
    encoded:
        SPM-encoded layer; the conv then computes from its storage.
    bias:
        Optional per-output-channel bias ``(C_out,)``, added in place to
        each GEMM slab in the output dtype.
    cache:
        Plan cache to use; defaults to the process-wide one.
    workspace:
        Dict that receives the whole im2col matrix (``cols``) and the
        ``(C_out, C_in*KH*KW)`` weight matrix (``w_mat``) for the
        autograd backward pass; the dense path then runs as one slab.

    Returns
    -------
    Output activations ``(N, C_out, OH, OW)``.
    """
    if weight is None and encoded is None:
        raise ValueError("dispatch needs a weight or an encoded layer")
    if x.ndim != 4:
        raise ValueError(f"input must be (N, C, H, W), got shape {x.shape}")
    w_shape = tuple(encoded.shape if encoded is not None else weight.shape)
    if x.shape[1] != w_shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]} vs weights {w_shape[1]}")
    if workspace is not None and encoded is not None:
        raise ValueError("workspace= needs a dense weight")

    plans = default_cache if cache is None else cache
    key = (x.shape, w_shape, stride, padding)
    plan = plans.get_or_build(
        key, lambda: ExecutionPlan.build(key, x.shape, w_shape, stride, padding)
    )
    n, c_in, c_out = plan.batch, plan.in_channels, plan.out_channels
    kh, kw = plan.kernel
    k2 = kh * kw
    oh, ow = plan.out_hw

    gather = None
    if encoded is not None:
        num_patterns, n_nonzero = len(encoded.codebook), encoded.codebook.n_nonzero
        if gather_width_ratio(num_patterns, n_nonzero, k2) <= GROUPED_EXPANSION_LIMIT:
            gather = encoded.gather_plan()
            w_mat = encoded.grouped_weight_matrix()  # (|P| * C_in * n, C_out)
        else:
            from ..core.spm import decode_layer  # repro.core imports this module

            weight = decode_layer(encoded)  # for this call only, never memoized
    if gather is None:
        w_mat = weight.reshape(c_out, -1).T
    # Widest per-output-row workspace: the columns or the gathered matrix.
    per_row = n * ow * max(c_in * k2, w_mat.shape[0])
    rows = oh if workspace is not None else TILE_THRESHOLD_ELEMENTS // per_row
    rows = max(1, min(oh, rows))

    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dtype = np.result_type(x.dtype, w_mat.dtype)
    out = None if rows == oh else np.empty((n, oh, ow, c_out), dtype=dtype)
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        x_slab = x[:, :, r0 * stride : (r1 - 1) * stride + kh, :]
        cols, _ = im2col(x_slab, (kh, kw), stride, 0)
        if gather is not None:
            # (slab, C_in, |P|, n) -> (slab, |P| * C_in * n), matching the
            # grouped weight matrix's (code, channel, slot) row layout.
            gathered = cols.reshape(-1, c_in, k2)[:, :, gather.positions_by_code]
            cols = gathered.transpose(0, 2, 1, 3).reshape(len(gathered), -1)
        tile = cols @ w_mat
        if bias is not None:
            tile += np.asarray(bias).astype(tile.dtype, copy=False)
        if out is None:
            out = tile.reshape(n, oh, ow, c_out)
        else:
            out[:, r0:r1] = tile.reshape(n, r1 - r0, ow, c_out)
    if workspace is not None:
        workspace["cols"] = cols
        workspace["w_mat"] = w_mat.T
    return out.transpose(0, 3, 1, 2)
