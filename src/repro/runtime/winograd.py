"""Winograd fast-convolution transforms: F(2x2,3x3) and F(4x4,3x3).

A 3x3/stride-1 convolution over an ``m x m`` output tile can be computed
with ``(m+2)^2`` multiplies instead of ``9 m^2`` by transforming the
input tile and the kernel into a "Winograd domain", multiplying
element-wise there, and transforming back (Lavin & Gray, 2016).  Batched
over every tile and every channel, the element-wise products become a
stack of dense GEMMs with ``(m+2)^2 / (9 m^2)`` of the direct MACs:
2.25x fewer for F(2x2,3x3), 4x fewer for F(4x4,3x3).

This module owns the 1-D transform matrices, their Kronecker-squared 2-D
forms, and the static eligibility/selection rules shared by the
``winograd`` compiler pass, the executor's auto markers and the int8
tile rule (:func:`int8_tile`).  The execution loop itself is bound by
:meth:`repro.runtime.compile.ConvOp._bind_winograd`, the only Winograd
executor, for float and int8 convs alike; its tests check it against
the eager im2col conv (:func:`repro.runtime.dispatch`) and, on int8
codes, against the int32 reference GEMM.

Numerics
--------
F(2x2,3x3) transforms only add/subtract (``B``/``A`` entries in
{0, +-1}) and halve (``G`` entries in {0, 1/2, 1}), so int8 convs run
it exactly: with ``G`` scaled by 2, the operand ``U' = 4U`` and the
input transform of int8 codes (bounded by ``4 * 127 = 508``) are
integers, each C_in span of the Winograd-domain GEMM stays inside
float32's exact range (2^24) by a certificate on the layer's own
codes, and the output transform divides by 4 exactly (see
:meth:`repro.runtime.quant.QuantConvOp._wino_operand`).

F(4x4,3x3) uses the Cook-Toom points {0, +-1, 2, -1/2}, whose
transform entries reach 8 and 16/15; it still amplifies float32
rounding several-fold over im2col (the Winograd-domain GEMM dominates),
so its max-abs error vs im2col stays ~1e-5 on unit-scale activations,
inside the repo-wide 1e-4 equivalence budget. F(4x4) is only
auto-selected for float32/float64 compute, never for larger tiles than
the output needs.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "WINO_TILES",
    "transforms",
    "weight_transform",
    "eligible_tiles",
    "default_tile",
    "wino_geometry",
    "int8_tile",
    "INT8_MIN_C_IN",
    "INT8_MIN_TILES",
]

# 1-D transform matrices, exact in binary floating point where possible.
_G2 = np.array(
    [[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 0.0, 1.0]]
)
_BT2 = np.array(
    [[1.0, 0.0, -1.0, 0.0],
     [0.0, 1.0, 1.0, 0.0],
     [0.0, -1.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, -1.0]]
)
_AT2 = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]])

# F(4x4,3x3) over interpolation points {0, +-1, 2, -1/2} (plus the point
# at infinity). Against Lavin & Gray's {0, +-1, +-2}, swapping -2 for its
# reciprocal shrinks that point's output-transform column from up to -8
# to at most 1/2, and lowers the float32 RMS error of a transformed tile
# about 1.5x (Barabasz et al., "Error analysis and improving the
# accuracy of Winograd convolution", 2020). Rows of BT are
# scaled by powers of two (exact) so its entries stay integers; the
# inverse scale sits in G, which is applied once in float64.
_BT4 = np.array(
    [[2.0, 3.0, -4.0, -3.0, 2.0, 0.0],
     [0.0, -2.0, -5.0, -1.0, 2.0, 0.0],
     [0.0, 2.0, 1.0, -5.0, 2.0, 0.0],
     [0.0, -1.0, -2.0, 1.0, 2.0, 0.0],
     [0.0, 2.0, -1.0, -2.0, 1.0, 0.0],
     [0.0, 2.0, 3.0, -4.0, -3.0, 2.0]]
)
_G4 = np.array(
    [[1.0 / 2.0, 0.0, 0.0],
     [-1.0 / 6.0, -1.0 / 6.0, -1.0 / 6.0],
     [1.0 / 6.0, -1.0 / 6.0, 1.0 / 6.0],
     [1.0 / 30.0, 1.0 / 15.0, 2.0 / 15.0],
     [-16.0 / 15.0, 8.0 / 15.0, -4.0 / 15.0],
     [0.0, 0.0, 1.0 / 2.0]]
)
_AT4 = np.array(
    [[1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
     [0.0, 1.0, -1.0, 2.0, -1.0 / 2.0, 0.0],
     [0.0, 1.0, 1.0, 4.0, 1.0 / 4.0, 0.0],
     [0.0, 1.0, -1.0, 8.0, -1.0 / 8.0, 1.0]]
)

#: Supported output-tile sizes, largest (fastest on big maps) first.
WINO_TILES = (4, 2)

_1D = {2: (_G2, _BT2, _AT2), 4: (_G4, _BT4, _AT4)}

# (GG, BT, AT) Kronecker-squared 2-D transforms per (tile, dtype); the
# f64 masters are computed once, casts are cached per compute dtype.
_2D_CACHE: dict = {}


def transforms(m: int, dtype=np.float32) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D transform matrices ``(GG, BT, AT)`` for tile size ``m``.

    ``GG`` is ``(f, 9)``, ``BT`` is ``(f, f)``, ``AT`` is ``(m*m, f)``
    with ``f = (m+2)**2``; all contiguous and cached per dtype.
    """
    key = (m, np.dtype(dtype))
    cached = _2D_CACHE.get(key)
    if cached is None:
        g, bt, at = _1D[m]
        cached = tuple(
            np.ascontiguousarray(np.kron(a, a).astype(dtype))
            for a in (g, bt, at)
        )
        _2D_CACHE[key] = cached
    return cached


def weight_transform(w9: np.ndarray, m: int, dtype=np.float32) -> np.ndarray:
    """Transform a ``(9, C_in, C_out)`` kernel stack into ``(f, C_in, C_out)``.

    ``w9`` rows are the im2col window order ``kh*3 + kw`` — the same
    order :meth:`ConvOp.prepare` flattens ``weight_t`` rows in — so
    ``U[f] = sum_k GG[f, k] * w9[k]``.  The product runs in float64 and
    is cast once, keeping the precomputation error far below the
    execution error.
    """
    gg = np.kron(_1D[m][0], _1D[m][0])  # float64 master
    u = np.einsum("fk,kio->fio", gg, w9.astype(np.float64))
    return np.ascontiguousarray(u.astype(dtype))


def eligible_tiles(
    *,
    kernel: Tuple[int, int],
    stride: int,
    out_hw: Tuple[int, int],
    c_in: int,
) -> Tuple[int, ...]:
    """Tile sizes a conv layer may legally run under, best-first.

    Legality only — profitability is :func:`default_tile`'s job.  A tile
    is only offered when the output is large enough that at least one
    full tile exists.
    """
    if tuple(kernel) != (3, 3) or stride != 1:
        return ()
    if c_in < 1 or min(out_hw) < 1:
        return ()
    return tuple(m for m in WINO_TILES if min(out_hw) + 1 >= m)


def default_tile(
    *,
    out_hw: Tuple[int, int],
    c_in: int,
    tiles: Tuple[int, ...],
) -> int:
    """Static-heuristic tile choice (0 = stay on im2col).

    Measured on the VGG-16/CIFAR ladder (1-core, OpenBLAS f32):
    F(4x4,3x3) wins 1.5-2.4x whenever the map has room for a full 4x4
    tile, F(2x2,3x3) wins ~1.3x on 2x2 maps, and neither pays off when
    the contraction is too narrow for the transform overhead (the
    c_in=3 stem layer).
    """
    if not tiles or c_in < 16:
        return 0
    if 4 in tiles and min(out_hw) >= 4:
        return 4
    if 2 in tiles:
        return 2
    return 0


def wino_geometry(
    *, out_hw: Tuple[int, int], m: int
) -> Tuple[int, int, int, int]:
    """Tiling of an ``(oh, ow)`` output by ``m x m`` tiles.

    Returns ``(th, tw, f, tile_span)``: tile counts per axis, Winograd-
    domain frequency count ``f = (m+2)**2``, and the input span
    ``m*t + 2`` each axis must provide (partial edge tiles read
    zero-padding past the convolution's own padding).
    """
    oh, ow = out_hw
    th = -(-oh // m)
    tw = -(-ow // m)
    return th, tw, (m + 2) ** 2, m + 2


#: The int8 tile rule's thresholds. Measured per layer on the int8
#: VGG-16/CIFAR flagship (16-image lanes, one BLAS thread each, one lane
#: alone or two concurrently, int8 F(2x2) vs the int8 column GEMM):
#: 128- to 512-channel layers on 16x16 to 4x4 maps ran in 0.64-0.89x
#: the time; 64-channel layers (K = 64 per frequency is too narrow a
#: GEMM to amortise the transforms) in 0.99-1.06x, and 2x2 maps (one
#: tile per image: few GEMM rows per byte of ``U'``, which is 16/9 the
#: column operand) in 1.05-1.25x.
INT8_MIN_C_IN = 128
INT8_MIN_TILES = 4


def int8_tile(
    *,
    kernel: Tuple[int, int],
    stride: int,
    out_hw: Optional[Tuple[int, int]],
    c_in: int,
) -> Tuple[int, str]:
    """Static tile rule of an int8 conv: ``(2, "")`` for the exact
    F(2x2,3x3) schedule, or ``(0, reason)`` when the layer stays on the
    column GEMM. With ``out_hw=None`` only the geometry-free conditions
    (kernel, stride, ``c_in``) are checked.
    """
    if tuple(kernel) != (3, 3) or stride != 1:
        return 0, "not a 3x3/stride-1 conv"
    if c_in < INT8_MIN_C_IN:
        return 0, f"c_in {c_in} < {INT8_MIN_C_IN}"
    if out_hw is None:
        return 2, ""
    th, tw, _, _ = wino_geometry(out_hw=out_hw, m=2)
    if th * tw < INT8_MIN_TILES:
        return 0, f"{th * tw} tile(s)/image < {INT8_MIN_TILES}"
    return 2, ""
