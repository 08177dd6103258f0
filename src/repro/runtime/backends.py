"""Pluggable convolution backends for the runtime engine.

Every conv in the repo — training forward passes, SPM-encoded inference,
the accelerator simulator's functional path — reduces to the same
contract: turn ``(x, weight-or-encoding, stride, padding)`` into a
``(windows, C_out)`` output matrix. A :class:`ConvBackend` implements
that contract one way; the registry lets :func:`repro.runtime.dispatch`
pick the right implementation from the request's shape and encoding, and
lets downstream code (tests, benchmarks, future accelerator bindings)
register new ones without touching call-sites.

Built-in backends:

- :class:`DenseGemmBackend` — im2col + BLAS GEMM, the reference path
  (numerically identical to :func:`repro.nn.functional.conv2d`).
- :class:`PatternSparseBackend` — computes directly from SPM storage as
  one grouped-contraction GEMM against the layer's cached gather plan
  and grouped weight matrix (possible because PCNN keeps ``n`` equal
  across a layer's kernels).
- :class:`TiledBackend` — im2col + GEMM over output-row tiles, bounding
  workspace memory for large inputs (ImageNet-scale activations).
- :class:`WinogradBackend` — F(m x m, 3x3) fast convolution for
  3x3/stride-1 requests, the engine-dispatch twin of the compiled
  pipeline's Winograd schedule (same transform matrices, request-dtype
  compute so float64 requests pin to the reference at 1e-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..nn.functional import im2col
from .arena import Arena
from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ConvRequest

__all__ = [
    "ConvBackend",
    "Epilogue",
    "DenseGemmBackend",
    "PatternSparseBackend",
    "TiledBackend",
    "WinogradBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]

# The selection policy constants live in repro.runtime.tune (the single
# home of every backend-eligibility rule); re-exported here because the
# slab backends and historical callers read them from this module.
from .tune import (  # noqa: E402  (policy import, see comment above)
    GROUPED_EXPANSION_LIMIT,
    TILE_THRESHOLD_ELEMENTS,
    gather_width_ratio,
)


@dataclass
class Epilogue:
    """Fused post-GEMM work applied in place to the output matrix.

    The classic inference-runtime epilogue: per-output-channel bias add
    and/or ReLU folded into the convolution's GEMM output while the tile
    is still cache-hot, instead of as separate full-tensor passes. The
    engine builds one for every ``bias=`` dispatch; the compiled pipeline
    (:func:`repro.runtime.compile_model`) builds them with the folded BN
    bias and the fused activation.
    """

    bias: Optional[np.ndarray] = None  # (C_out,), added per output channel
    relu: bool = False

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Apply to a ``(windows, C_out)`` matrix (or row tile) in place."""
        if self.bias is not None:
            # Harmonise dtype so a float64 bias cannot silently promote a
            # float32 activation path; += keeps the add allocation-free.
            mat += self.bias.astype(mat.dtype, copy=False)
        if self.relu:
            np.maximum(mat, 0.0, out=mat)
        return mat


@runtime_checkable
class ConvBackend(Protocol):
    """Protocol every registered conv backend satisfies."""

    name: str

    def supports(self, request: "ConvRequest") -> bool:
        """Whether this backend can execute the request at all."""
        ...

    def execute(
        self,
        request: "ConvRequest",
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """Run the convolution, returning a ``(windows, C_out)`` matrix.

        ``workspace``, when a dict, asks the backend to stash reusable
        intermediates (the dense backend stores ``cols`` for autograd);
        ``workspace["arena"]`` + ``workspace["tag"]`` hand the backend an
        :class:`~repro.runtime.arena.Arena` to draw its scratch buffers
        from instead of allocating. ``epilogue`` is applied in place to
        the output matrix (tile-by-tile in the slab backends) before it
        is returned.
        """
        ...


def _arena_from(workspace: Optional[dict]) -> Tuple[Optional[Arena], str]:
    """Extract the (arena, tag) pair a caller smuggled in via workspace."""
    if not workspace:
        return None, ""
    return workspace.get("arena"), workspace.get("tag", "conv")


def _dense_weight(request: "ConvRequest") -> np.ndarray:
    """Dense weight tensor of a request, decoding SPM storage if needed.

    Decoding is memoized on the ``EncodedLayer``, so repeated forwards
    pay it once.
    """
    if request.weight is not None:
        return request.weight
    return request.encoded.decoded_weight()


def _iter_im2col_row_slabs(
    x: np.ndarray,
    plan: ExecutionPlan,
    workspace_per_row: int,
    arena: Optional[Arena] = None,
    tag: str = "conv",
):
    """Yield ``(r0, r1, cols)`` output-row slabs of the im2col matrix.

    Pads once, then materialises columns slab-by-slab so peak workspace
    stays under ``TILE_THRESHOLD_ELEMENTS`` (``workspace_per_row`` is the
    caller's worst per-output-row element count). Small geometries come
    out as a single slab — the monolithic fast path. With an ``arena``,
    the padded input and every slab's column matrix live in reused
    buffers, so the steady-state loop allocates nothing.
    """
    kh, kw = plan.kernel
    stride, padding = plan.stride, plan.padding
    oh, ow = plan.out_hw
    rows = max(1, min(oh, TILE_THRESHOLD_ELEMENTS // max(1, workspace_per_row)))
    if padding > 0:
        if arena is not None:
            x = arena.padded(f"{tag}:pad", x, padding)
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[0], x.shape[1]
    for r0 in range(0, oh, rows):
        r1 = min(r0 + rows, oh)
        x_slab = x[:, :, r0 * stride : (r1 - 1) * stride + kh, :]
        out = None
        if arena is not None:
            out = arena.take(
                f"{tag}:cols", (n * (r1 - r0) * ow, c * kh * kw), x.dtype
            )
        cols, _ = im2col(x_slab, (kh, kw), stride, 0, out=out)
        yield r0, r1, cols


class DenseGemmBackend:
    """Reference im2col + GEMM path (what ``nn.functional.conv2d`` runs)."""

    name = "dense"

    def supports(self, request: "ConvRequest") -> bool:
        """Dense weights or an encoding (decoded on demand) both work."""
        return request.weight is not None or request.encoded is not None

    def execute(
        self,
        request: "ConvRequest",
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """Monolithic im2col + one BLAS GEMM (+ in-place epilogue)."""
        weight = _dense_weight(request)
        arena, tag = _arena_from(workspace)
        w_mat = weight.reshape(plan.out_channels, -1)
        if arena is not None:
            x = arena.padded(f"{tag}:pad", request.x, plan.padding)
            cols_buf = arena.take(
                f"{tag}:cols", (plan.windows, w_mat.shape[1]), x.dtype
            )
            cols, _ = im2col(x, plan.kernel, plan.stride, 0, out=cols_buf)
            out = arena.take(
                f"{tag}:out",
                (plan.windows, plan.out_channels),
                np.result_type(cols.dtype, w_mat.dtype),
            )
            np.matmul(cols, w_mat.T, out=out)
        else:
            cols, _ = im2col(request.x, plan.kernel, plan.stride, plan.padding)
            out = cols @ w_mat.T
        if epilogue is not None:
            epilogue.apply(out)
        if workspace is not None:
            workspace["cols"] = cols
            workspace["w_mat"] = w_mat
        return out


class PatternSparseBackend:
    """Grouped-contraction conv straight from SPM storage.

    The paper's regularity argument executed literally: kernels sharing
    an SPM code read the same ``n`` positions, so the layer collapses to
    ``A @ B`` — ``A`` gathers the ``|P| * n`` cached pattern positions
    per input channel from the im2col matrix (a cheap slice, not a
    per-kernel fancy gather) and ``B`` is the layer's memoized grouped
    weight matrix (:meth:`~repro.core.spm.EncodedLayer.grouped_weight_matrix`).
    One BLAS GEMM of ``|P| * n / k^2`` relative width replaces the seed's
    per-pattern Python loop. When the codebook is so diverse that the
    grouped matrix would exceed ``GROUPED_EXPANSION_LIMIT`` times the
    dense weight, the backend falls back to decode + dense GEMM (still
    zero per-call index math). Both paths run over bounded output-row
    slabs, so large inputs never materialise a monolithic im2col.
    """

    name = "pattern"

    def supports(self, request: "ConvRequest") -> bool:
        """Requires SPM storage — dense-only requests have no codes."""
        return request.encoded is not None

    def execute(
        self,
        request: "ConvRequest",
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """Grouped-contraction GEMM over output-row slabs (see class doc)."""
        encoded = request.encoded
        kh, kw = plan.kernel
        c_in = plan.in_channels
        c_out = plan.out_channels
        k2 = kh * kw
        oh, ow = plan.out_hw
        batch = plan.batch
        n = encoded.codebook.n_nonzero
        num_patterns = len(encoded.codebook)
        arena, tag = _arena_from(workspace)

        if gather_width_ratio(num_patterns, n, k2) > GROUPED_EXPANSION_LIMIT:
            # Diverse codebook: the grouped matrix would dwarf the dense
            # weight, so run a GEMM against the memoized decoded weight.
            gather = None
            w_mat = encoded.decoded_weight().reshape(c_out, -1)
            per_row = batch * ow * c_in * k2
        else:
            gather = encoded.gather_plan()
            grouped = encoded.grouped_weight_matrix()  # (|P| * C_in * n, C_out)
            # Worst per-output-row workspace: im2col columns or the
            # gathered A matrix, whichever is wider.
            per_row = batch * ow * max(c_in * k2, grouped.shape[0])

        dtype = np.result_type(request.x.dtype, encoded.values.dtype)
        if arena is not None:
            out = arena.take(f"{tag}:out", (batch, oh, ow, c_out), dtype)
        else:
            out = np.empty((batch, oh, ow, c_out), dtype=dtype)
        for r0, r1, cols in _iter_im2col_row_slabs(
            request.x, plan, per_row, arena=arena, tag=tag
        ):
            if gather is None:
                tile = cols @ w_mat.T
            else:
                # (slab, C_in, |P|, n) -> (slab, |P| * C_in * n), matching
                # the grouped weight matrix's (code, channel, slot) layout.
                # The gather itself still allocates its A matrix — the
                # fancy index has no out= form — but the tile GEMM result
                # is fresh either way, so the epilogue mutates safely.
                cols_r = cols.reshape(-1, c_in, k2)
                gathered = cols_r[:, :, gather.positions_by_code]
                a_mat = gathered.transpose(0, 2, 1, 3).reshape(len(cols_r), -1)
                tile = a_mat @ grouped
            if epilogue is not None:
                epilogue.apply(tile)
            out[:, r0:r1] = tile.reshape(batch, r1 - r0, ow, c_out)
        return out.reshape(batch * oh * ow, c_out)


class TiledBackend:
    """im2col + GEMM over output-row tiles with bounded workspace.

    Pads once, then materialises the column matrix tile-by-tile so the
    peak workspace stays under ``TILE_THRESHOLD_ELEMENTS`` even for
    ImageNet-scale activations where a monolithic im2col would be
    hundreds of megabytes.
    """

    name = "tiled"

    def supports(self, request: "ConvRequest") -> bool:
        """Dense weights or an encoding (decoded on demand) both work."""
        return request.weight is not None or request.encoded is not None

    def execute(
        self,
        request: "ConvRequest",
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """im2col + GEMM tile by tile, epilogue applied per tile."""
        weight = _dense_weight(request)
        kh, kw = plan.kernel
        oh, ow = plan.out_hw
        batch = plan.batch
        arena, tag = _arena_from(workspace)

        w_mat = weight.reshape(plan.out_channels, -1)
        dtype = np.result_type(request.x.dtype, weight.dtype)
        if arena is not None:
            out = arena.take(f"{tag}:out", (batch, oh, ow, plan.out_channels), dtype)
        else:
            out = np.empty((batch, oh, ow, plan.out_channels), dtype=dtype)
        per_row = batch * ow * plan.in_channels * kh * kw
        for r0, r1, cols in _iter_im2col_row_slabs(
            request.x, plan, per_row, arena=arena, tag=tag
        ):
            if arena is not None:
                tile = arena.take(f"{tag}:tile", (len(cols), plan.out_channels), dtype)
                np.matmul(cols, w_mat.T, out=tile)
            else:
                tile = cols @ w_mat.T  # (batch * rows * ow, C_out)
            if epilogue is not None:
                epilogue.apply(tile)
            out[:, r0:r1] = tile.reshape(batch, r1 - r0, ow, plan.out_channels)
        return out.reshape(batch * oh * ow, plan.out_channels)


class WinogradBackend:
    """F(m x m, 3x3) fast convolution for 3x3/stride-1 requests.

    The engine-dispatch twin of the compiled pipeline's Winograd
    schedule (:meth:`repro.runtime.compile.ConvOp._bind_winograd`): input
    tiles and the kernel move into the Winograd domain, multiply there
    as one batched GEMM per frequency, and transform back — the same
    :mod:`repro.runtime.winograd` matrices, applied to the engine's
    ``(N, C, H, W)`` layout. The compute dtype follows the request
    (float64 inputs run the transforms in float64), so the result pins
    to the ``conv2d`` reference at the registry-wide 1e-9 tolerance.
    An explicit ``backend="winograd"`` dispatch always runs the fast
    path with the largest legal tile; profitability heuristics belong
    to the tune pass, not to an explicit override.
    """

    name = "winograd"

    def supports(self, request: "ConvRequest") -> bool:
        """3x3 kernels at stride 1 only — the F(m,3) algorithms' domain."""
        if request.weight is None and request.encoded is None:
            return False
        _, _, kh, kw = request.weight_shape
        return (kh, kw) == (3, 3) and request.stride == 1

    def execute(
        self,
        request: "ConvRequest",
        plan: ExecutionPlan,
        workspace: Optional[dict] = None,
        epilogue: Optional[Epilogue] = None,
    ) -> np.ndarray:
        """Transform -> batched Winograd-domain GEMM -> inverse transform."""
        from .winograd import (
            eligible_tiles,
            transforms,
            weight_transform,
            wino_geometry,
        )

        weight = _dense_weight(request)
        arena, tag = _arena_from(workspace)
        n, c_in, c_out = plan.batch, plan.in_channels, plan.out_channels
        oh, ow = plan.out_hw
        p = plan.padding
        tiles = eligible_tiles(
            kernel=plan.kernel, stride=plan.stride, out_hw=(oh, ow), c_in=c_in
        )
        if not tiles:  # pragma: no cover - supports() already gates this
            raise ValueError("winograd backend: request is not 3x3/stride-1")
        m = tiles[0]  # largest legal tile, best-first per WINO_TILES
        th, tw, f, span = wino_geometry(out_hw=(oh, ow), m=m)
        x = request.x
        dtype = np.result_type(x.dtype, weight.dtype)
        _, bt, at = transforms(m, dtype)
        # (C_out, C_in, 3, 3) -> (9, C_in, C_out) rows in im2col window
        # order, matching what weight_transform expects.
        w9 = weight.reshape(c_out, c_in, 9).transpose(2, 1, 0)
        u = weight_transform(w9, m, dtype)  # (f, C_in, C_out)

        # Tile extraction reads m*t + 2 rows/cols; partial edge tiles
        # read zero-fill past the convolution's own padded extent.
        h, w_in = x.shape[2], x.shape[3]
        ph = max(h + 2 * p, m * th + 2)
        pw = max(w_in + 2 * p, m * tw + 2)
        if arena is not None:
            pad = arena.take_filled(f"{tag}:wpad", (n, c_in, ph, pw), dtype, 0.0)
        else:
            pad = np.zeros((n, c_in, ph, pw), dtype=dtype)
        pad[:, :, p : p + h, p : p + w_in] = x

        sn, sc, sh, sw = pad.strides
        tiles6 = np.lib.stride_tricks.as_strided(
            pad, (n, th, tw, span, span, c_in), (sn, m * sh, m * sw, sh, sw, sc)
        )
        pcount = n * th * tw
        if arena is not None:
            d = arena.take(f"{tag}:wd", (f, pcount, c_in), dtype)
            v = arena.take(f"{tag}:wv", (f, pcount, c_in), dtype)
            mmat = arena.take(f"{tag}:wm", (f, pcount, c_out), dtype)
            ybuf = arena.take(f"{tag}:wy", (m * m, pcount * c_out), dtype)
        else:
            d = np.empty((f, pcount, c_in), dtype)
            v = np.empty_like(d)
            mmat = np.empty((f, pcount, c_out), dtype)
            ybuf = np.empty((m * m, pcount * c_out), dtype)
        d.reshape(span, span, n, th, tw, c_in)[...] = tiles6.transpose(3, 4, 0, 1, 2, 5)
        np.matmul(bt, d.reshape(f, pcount * c_in), out=v.reshape(f, pcount * c_in))
        np.matmul(v, u, out=mmat)
        np.matmul(at, mmat.reshape(f, pcount * c_out), out=ybuf)

        out = np.empty((n, oh, ow, c_out), dtype)
        y6 = ybuf.reshape(m, m, n, th, tw, c_out)
        exact = m * th == oh and m * tw == ow
        if exact:
            out.reshape(n, th, m, tw, m, c_out)[...] = y6.transpose(2, 3, 0, 4, 1, 5)
        else:
            full = np.empty((n, m * th, m * tw, c_out), dtype)
            full.reshape(n, th, m, tw, m, c_out)[...] = y6.transpose(2, 3, 0, 4, 1, 5)
            out[...] = full[:, :oh, :ow, :]
        mat = out.reshape(n * oh * ow, c_out)
        if epilogue is not None:
            epilogue.apply(mat)
        return mat


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------
_REGISTRY: Dict[str, ConvBackend] = {}


def register_backend(backend: ConvBackend, overwrite: bool = False) -> ConvBackend:
    """Register a backend under ``backend.name``; returns it for chaining."""
    name = backend.name
    if not name:
        raise ValueError("backend needs a non-empty name")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} already registered")
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> ConvBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown conv backend {name!r}; registered: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Names of all registered backends, in registration order."""
    return list(_REGISTRY)


register_backend(PatternSparseBackend())
register_backend(DenseGemmBackend())
register_backend(TiledBackend())
register_backend(WinogradBackend())
