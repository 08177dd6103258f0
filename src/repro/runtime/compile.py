"""Compiled inference pipeline: ops, the compiled model, and its entry point.

:func:`compile_model` performs the autograd→inference split real serving
runtimes make — but since PR 5 it no longer does so in one monolithic
walk. The model lowers to a small graph IR (:mod:`repro.runtime.ir`:
ops with explicit producer/consumer links and per-edge tensor metadata)
and a :class:`~repro.runtime.passes.PassManager` transforms that graph
through named, independently-testable passes::

    lower → fold_bn → fuse_epilogues → winograd → [quantize]
          → link_halos → assign_arenas → finalize

What the pipeline ends up with (see :mod:`repro.runtime.passes` for the
per-pass detail):

- **BN folding** — every eval-mode ``BatchNorm2d`` collapses into the
  preceding conv's weights and bias, including convs that carry an SPM
  encoding (scaling a kernel's non-zero sequence never moves its
  pattern).
- **Fused epilogues** — bias add and a following ``ReLU`` run in place
  on the conv's GEMM output while the tile is cache-hot, the bias
  itself riding inside the GEMM as an appended weight row against an
  all-ones column.
- **One-time float32 cast** — parameters are cast once when the ops are
  finalized (``dtype=None`` keeps the training precision).
- **Channels-last layout** — activations flow NHWC between ops; the
  conv GEMM's output *is* the next layer's channels-last activation.
- **Workspace arenas** — each op draws scratch buffers from a
  per-thread :class:`~repro.runtime.arena.Arena`, so the steady-state
  loop does zero large allocations.
- **Halo linking** — producers write activations straight into the
  consumer's padded-buffer interior, skipping the pad copy.
- **Static per-layer schedules** — eligible 3x3/stride-1 convs run
  Winograd F(m x m, 3x3), the rest the im2col column GEMM. SPM convs
  decode their encoding transiently when the operand is built, so they
  take the same rule as dense convs: on a CPU the grouped pattern
  gather is no narrower than the dense GEMM (docs/KERNELS.md).

Residual topologies lower through two small model-side hooks instead of
tracing: ``lowering_sequence()`` (an ordered list of submodules — VGG16,
ResNet18, PatternNet) and ``lowering_branches()``
(``(body, shortcut[, post_relu])`` — BasicBlock). Anything the lowerer
does not recognise falls back to a :class:`ModuleOp` that runs the
original module under ``no_grad``, so ``compile_model`` is total.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn.functional import im2col_nhwc, pool_windows_nhwc
from .arena import Arena
from .ir import Graph, TensorMeta
from .plan import ExecutionPlan, PlanCache
from .winograd import transforms as wino_transforms
from .winograd import weight_transform as wino_weight_transform
from .winograd import wino_geometry

__all__ = ["compile_model", "CompiledModel", "Epilogue", "fold_batchnorm"]

# Per-conv workspace budget (bytes) for the compiled executor's im2col
# slabs. Byte-based rather than element-based so the float32 pipeline
# gets twice the rows of a float64 one for the same memory footprint;
# larger monolithic slabs measurably beat many small GEMMs until the
# workspace falls out of cache. Rows are derived from the budget at each
# call's geometry, so it holds at any batch.
SLAB_BYTES = 64 * 2**20

# Serialises the lazy builds of derived GEMM operands (prepare(), the
# column-GEMM weight, Winograd and int8 operands). Lanes of one predict
# call run the same ops on several threads; without the lock each lane
# would build — and its bound thunks pin — a private copy of every operand.
# Builders check their memo, then re-check under the lock (reentrant:
# bind() may prepare() while another builder holds it).
_derive_lock = threading.RLock()


@dataclass
class Epilogue:
    """Fused post-GEMM work of a compiled conv: per-output-channel bias
    add and/or ReLU, which :meth:`ConvOp._epilogue` folds into the GEMM
    output while the tile is still cache-hot instead of running them as
    separate full-tensor passes. The ``fuse_epilogues`` pass sets the
    ReLU; ``fold_bn`` supplies the folded BN bias."""

    bias: Optional[np.ndarray] = None  # (C_out,), added per output channel
    relu: bool = False


# ---------------------------------------------------------------------
# Folding helpers
# ---------------------------------------------------------------------
def fold_batchnorm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    bn: "nn.BatchNorm2d",
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an eval-mode BN into the preceding conv's weight and bias.

    Returns ``(weight', bias')`` with
    ``conv(x, w') + b' == BN(conv(x, w) + b)`` for the BN's current
    running statistics.
    """
    scale, shift = bn.fold_params()
    return fold_batchnorm_params(weight, bias, scale, shift)


def fold_batchnorm_params(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    scale: np.ndarray,
    shift: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a BN's affine map ``(scale, shift)`` into conv parameters."""
    folded_weight = weight * scale[:, None, None, None]
    folded_bias = shift if bias is None else shift + bias * scale
    return folded_weight, folded_bias


def _fold_encoded(encoded, scale: np.ndarray, dtype):
    """Scale an SPM-encoded layer's values per output filter.

    Kernels are stored in ``(filter, channel)`` row-major order, so
    kernel ``k`` belongs to filter ``k // C_in``; scaling the non-zero
    sequences leaves codes and codebook untouched.
    """
    from ..core.spm import EncodedLayer

    c_out, c_in, kh, kw = encoded.shape
    filters = np.arange(encoded.num_kernels) // c_in
    values = encoded.values * scale[filters][:, None]
    if dtype is not None:
        values = values.astype(dtype, copy=False)
    return EncodedLayer(
        codes=encoded.codes,
        values=values,
        codebook=encoded.codebook,
        shape=encoded.shape,
    )


def _cast_encoded(encoded, dtype):
    """Re-wrap an encoding with values cast to the compile dtype."""
    from ..core.spm import EncodedLayer

    if dtype is None or encoded.values.dtype == np.dtype(dtype):
        return encoded
    return EncodedLayer(
        codes=encoded.codes,
        values=encoded.values.astype(dtype),
        codebook=encoded.codebook,
        shape=encoded.shape,
    )


def _arr_nbytes(*arrays: Optional[np.ndarray]) -> int:
    """Summed ``nbytes`` over the arrays that exist (None-tolerant)."""
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _nhwc_rows(weight: np.ndarray) -> np.ndarray:
    """``(C_out, C_in, KH, KW)`` weights as the ``(KH*KW*C_in, C_out)``
    matrix a channels-last im2col multiplies by (a view when possible)."""
    return weight.transpose(0, 2, 3, 1).reshape(weight.shape[0], -1).T


def _cast(array: Optional[np.ndarray], dtype) -> Optional[np.ndarray]:
    if array is None or dtype is None:
        return array
    return np.ascontiguousarray(array, dtype=dtype)


# ---------------------------------------------------------------------
# Execution state + ops
# ---------------------------------------------------------------------
@dataclass
class _ExecState:
    """Per-thread execution resources (arena is not thread-safe)."""

    arena: Arena
    plans: PlanCache
    # (input shape, dtype) -> bound thunk list (CompiledModel.__call__).
    # Thunks prebind arena buffers and GEMM operands, so the dict must be
    # cleared whenever either is released (see CompiledModel.release_*).
    traces: Dict[tuple, list] = field(default_factory=dict)


Thunk = Callable[[np.ndarray], np.ndarray]


def _bind_chain(
    ops: Sequence["_InferenceOp"], x: np.ndarray, state: _ExecState
) -> Tuple[List[Thunk], np.ndarray]:
    """Bind ``ops`` in order; returns ``(thunks, output)``.

    Each op binds against its real input, which is the previous thunk's
    output, so binding a chain runs it once.
    """
    thunks = []
    for op in ops:
        thunk = op.bind(x, state)
        x = thunk(x)
        thunks.append(thunk)
    return thunks, x


def _replay(thunks: List[Thunk], x: np.ndarray) -> np.ndarray:
    for thunk in thunks:
        x = thunk(x)
    return x


class _InferenceOp:
    """One step of the compiled pipeline: ndarray in, ndarray out.

    The execution contract is :meth:`bind`: given the op's real input
    ``x``, return a thunk that computes the op for ``x`` and for every
    later input of the same shape and dtype. Binding resolves plans,
    arena buffers, GEMM operands and layout decisions once; calling the
    thunk only does the arithmetic. :meth:`run` is the one-shot form.

    ``layout_in`` / ``layout_out`` declare the op's activation-layout
    contract for :meth:`repro.runtime.ir.Graph.verify` (``"any"`` /
    ``"same"`` for elementwise ops); ``spatial_only`` marks ops that can
    never follow a flattened edge.
    """

    tag: str = ""
    layout_in: str = "any"
    layout_out: str = "same"
    spatial_only: bool = False

    def bind(self, x: np.ndarray, state: _ExecState) -> Thunk:
        raise NotImplementedError  # pragma: no cover - abstract

    def run(self, x: np.ndarray, state: _ExecState) -> np.ndarray:
        """Bind and call once (calibration, probes and tests)."""
        return self.bind(x, state)(x)

    def describe(self) -> str:
        return type(self).__name__

    # -- byte accounting (fleet residency) -----------------------------
    def param_nbytes(self) -> int:
        """Bytes of *source* parameters the op owns (weights, codes) —
        the unreclaimable part that survives demotion/eviction."""
        return 0

    def derived_nbytes(self) -> int:
        """Bytes of rebuildable derived state (GEMM operands, memoized
        gathers) — what :meth:`release_derived` can hand back."""
        return 0

    def release_derived(self) -> int:
        """Drop rebuildable derived state; returns the bytes freed.

        The next :meth:`bind` rebuilds lazily, so releasing is always
        safe — it trades the first post-release latency for memory.
        """
        return 0


@dataclass
class ToNHWC(_InferenceOp):
    """NCHW → channels-last, copied once into a reused buffer."""

    tag: str
    layout_in = "nchw"
    layout_out = "nhwc"

    def bind(self, x, state):
        n, c, h, w = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, h, w, c), x.dtype)

        def thunk(x_in):
            out[...] = x_in.transpose(0, 2, 3, 1)
            return out

        return thunk

    def describe(self) -> str:
        return "to-nhwc"


@dataclass
class ToNCHW(_InferenceOp):
    """Channels-last → NCHW, for fallbacks and the public output."""

    tag: str
    layout_in = "nhwc"
    layout_out = "nchw"

    def bind(self, x, state):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c, h, w), x.dtype)

        def thunk(x_in):
            out[...] = x_in.transpose(0, 3, 1, 2)
            return out

        return thunk

    def describe(self) -> str:
        return "to-nchw"


def _out_buffer(arena: Arena, tag: str, halo, shape, dtype) -> np.ndarray:
    """An op's ``:out`` buffer, or the consumer's pad interior under halo
    fusion (``halo = (consumer tag, consumer padding)``)."""
    if halo is not None:
        consumer_tag, p = halo
        n, oh, ow, c = shape
        buffer = arena.take_filled(
            f"{consumer_tag}:pad", (n, oh + 2 * p, ow + 2 * p, c), dtype, 0.0
        )
        return buffer[:, p : p + oh, p : p + ow, :]
    return arena.take(f"{tag}:out", shape, dtype)


@dataclass(frozen=True)
class _WinoOperand:
    """What one conv's Winograd schedule multiplies by and how it
    accumulates (see :meth:`ConvOp._wino_operand`)."""

    u: np.ndarray  # (f, C_in, C_out) transformed weights, the GEMM dtype
    spans: Tuple[Tuple[int, int], ...]  # C_in spans of the domain GEMM
    stage: np.dtype  # dtype of M and of the output transform
    at: np.ndarray  # (m*m, f) output transform, in ``stage``
    acc: np.dtype  # accumulator dtype handed to the epilogue
    bias: Optional[np.ndarray]  # added before the epilogue (None: it adds it)


@dataclass
class ConvOp(_InferenceOp):
    """Channels-last convolution with folded BN and a fused epilogue.

    The op is created by the ``lower`` pass with its *source*
    parameters — the raw ``weight``/``bias`` (or SPM ``encoded``) plus
    geometry — and mutated by later passes: ``fold_bn`` rewrites the
    parameters, ``fuse_epilogues`` sets ``relu``, ``winograd`` sets
    ``wino_m``, ``link_halos`` sets ``halo``. The
    *derived* state is built by :meth:`prepare` (the :class:`Epilogue`,
    and a dense column-GEMM conv's operand), which the ``finalize`` pass
    runs eagerly and :meth:`bind` on demand, and by the schedule that
    runs: ``weight_t`` — the ``(KH*KW*C_in[+1], C_out)`` NHWC column-GEMM
    operand with the bias folded in as an extra row against an all-ones
    column, decoded from SPM on first use — or the Winograd operand
    ``U``. Each op holds only the operand
    its schedule multiplies by; a pass that changes source parameters
    calls :meth:`invalidate` to force a rebuild.

    Two schedules: Winograd F(m x m, 3x3) (``wino_m``) and the column
    GEMM. The column GEMM unfolds the input with im2col and multiplies
    it by the dense operand. It runs monolithic, or in bands of whole
    images (or of output rows) when the columns outgrow
    :attr:`band_bytes`. Every schedule ends
    in the same two hooks, :meth:`_out_dtype` and :meth:`_epilogue`,
    which is all the int8 op overrides besides its GEMM operand.

    ``halo`` names the direct consumer's padded input buffer: the
    epilogue then writes its activation straight into that buffer's
    interior, so the consumer skips its pad copy entirely.
    """

    stride: int
    padding: int
    kernel: Tuple[int, int]
    c_in: int
    c_out: int
    tag: str
    weight: Optional[np.ndarray] = None
    bias: Optional[np.ndarray] = None
    encoded: Optional[object] = None
    relu: bool = False
    dtype: Optional[object] = None
    wino_m: int = 0  # Winograd output-tile size (0 = im2col GEMM)
    halo: Optional[Tuple[str, int]] = None  # (consumer tag, consumer padding)
    # Derived state (prepare() and the schedule's operand builders):
    weight_t: Optional[np.ndarray] = field(default=None, repr=False)
    bias_rows: int = 0  # 1 when the bias is folded into weight_t, else 0
    epilogue: Optional[Epilogue] = field(default=None, repr=False)
    _wino_u: Optional[np.ndarray] = field(default=None, repr=False)
    _prepared: bool = field(default=False, repr=False)

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True
    #: Workspace budget (bytes) of one band of either schedule (see
    #: :meth:`_bands`); an instance may set its own.
    band_bytes = SLAB_BYTES

    # -- derived-state lifecycle --------------------------------------
    def prepare(self) -> None:
        """Cast the source parameters and build the epilogue.

        A dense conv on the column GEMM also gets its ``weight_t`` here;
        every other operand is built by the schedule that multiplies by
        it. Idempotent; run eagerly by the ``finalize`` pass and lazily
        by :meth:`bind` (calibration clones execute before finalize).
        """
        if self._prepared:
            return
        with _derive_lock:
            if self._prepared:
                return
            bias = _cast(self.bias, self.dtype)
            if self.encoded is not None:
                self.encoded = _cast_encoded(self.encoded, self.dtype)
            # The column-GEMM operand appends the bias as a GEMM row; the
            # column buffer carries a matching all-ones column, so the
            # bias add costs one extra GEMM row instead of a pass over
            # the output.
            self.bias_rows = int(bias is not None)
            self.epilogue = Epilogue(bias=bias, relu=self.relu)
            self._prepared = True
            if self.encoded is None and not self.wino_m:
                self._operand_weight_t()

    def invalidate(self) -> None:
        """Drop derived GEMM state after a pass mutated source params."""
        self.weight_t = None
        self.bias_rows = 0
        self.epilogue = None
        self._wino_u = None
        self._prepared = False

    def param_nbytes(self) -> int:
        total = _arr_nbytes(self.weight, self.bias)
        if self.encoded is not None:
            total += self.encoded.nbytes
        return total

    def derived_nbytes(self) -> int:
        total = _arr_nbytes(self.weight_t, self._wino_u)
        if self.encoded is not None:
            total += self.encoded.cached_nbytes
        return total

    def release_derived(self) -> int:
        freed = self.derived_nbytes()
        self.invalidate()
        if self.encoded is not None:
            self.encoded.invalidate_caches()
        return freed

    def clone_with(self, *, wino_m: int) -> "ConvOp":
        """Fresh unprepared copy on another Winograd tile (calibration)."""
        return ConvOp(
            stride=self.stride,
            padding=self.padding,
            kernel=self.kernel,
            c_in=self.c_in,
            c_out=self.c_out,
            tag=self.tag,
            weight=self.weight,
            bias=self.bias,
            encoded=self.encoded,
            relu=self.relu,
            dtype=self.dtype,
            wino_m=wino_m,
        )

    def bind(self, x, state):
        if not self._prepared:
            self.prepare()
        if self.wino_m:
            thunk = self._bind_winograd(x, state)
            if thunk is not None:
                return thunk
        return self._bind_gemm(x, state)

    # -- shared geometry ----------------------------------------------
    def _plan(self, x: np.ndarray, state: _ExecState) -> ExecutionPlan:
        n, h, w, c = x.shape
        kh, kw = self.kernel
        key = ("nhwc", (n, h, w, c), (self.c_out, c, kh, kw), self.stride, self.padding)
        return state.plans.get_or_build(
            key,
            lambda: ExecutionPlan.build(
                key, (n, c, h, w), (self.c_out, c, kh, kw), self.stride, self.padding
            ),
        )

    def _pad_buffer(self, x: np.ndarray, arena: Arena, tag: str, shape) -> tuple:
        """Zero-bordered input buffer and its interior view for ``x``.

        Thunks copy into the interior only when the producer did not
        already write there (halo fusion: ``x_in.base is pad``).
        """
        p = self.padding
        h, w = x.shape[1], x.shape[2]
        pad = arena.take_filled(f"{self.tag}:{tag}", shape, x.dtype, 0.0)
        return pad, pad[:, p : p + h, p : p + w, :]

    # -- epilogue hooks -----------------------------------------------
    def _out_dtype(self, acc_dtype) -> np.dtype:
        """Dtype of the activation this conv hands on."""
        return np.dtype(acc_dtype)

    def _dest(self, arena: Arena, shape, acc_dtype) -> np.ndarray:
        """Where the finished activation lands: the consumer's pad
        interior under halo fusion, else this op's ``:out`` buffer (the
        accumulator itself when the dtypes agree, so the epilogue runs
        in place)."""
        return _out_buffer(arena, self.tag, self.halo, shape, self._out_dtype(acc_dtype))

    def _acc(self, arena: Arena, shape, acc_dtype) -> np.ndarray:
        """The full-size accumulator: this op's ``:out`` buffer when the
        activation lands there in the same dtype (see :meth:`_dest`),
        else the shared ``acc`` slab — dead once the epilogue has moved
        it into its destination."""
        if self.halo is None and self._out_dtype(acc_dtype) == acc_dtype:
            return arena.take(f"{self.tag}:out", shape, acc_dtype)
        return arena.scratch("acc", shape, acc_dtype)

    def _epilogue(self, acc: np.ndarray, dest: np.ndarray) -> None:
        """Finish one accumulator tile into ``dest`` (``acc`` may be
        clobbered; ``dest`` may be ``acc``): the bias when the GEMM
        operand does not carry it, then ReLU."""
        if not self.bias_rows and self.epilogue.bias is not None:
            np.add(acc, self.epilogue.bias, out=acc)
        if self.relu:
            np.maximum(acc, 0.0, out=dest)
        elif dest is not acc:
            np.copyto(dest, acc)

    # -- column GEMM schedule -----------------------------------------
    def _gemm_blocks(self) -> Tuple[List[Tuple[int, int]], List[np.ndarray], int]:
        """The dense GEMM operand as ``(spans, blocks, extra)``: one
        operand block per K span of the columns, plus ``extra`` ones
        columns driving bias rows appended to the last block."""
        weight_t = self._operand_weight_t()
        k = weight_t.shape[0] - self.bias_rows
        return [(0, k)], [weight_t], self.bias_rows

    def _image_bands(self, n: int, image_bytes: int) -> List[Tuple[int, int]]:
        """``(i0, i1)`` bands of whole images: one band when all ``n``
        fit the budget, otherwise balanced bands of as many images as
        fit (at least one each)."""
        budget = self.band_bytes
        if n * image_bytes <= budget:
            return [(0, n)]
        imgs = max(1, budget // image_bytes)
        imgs = -(-n // (-(-n // imgs)))  # balance the band sizes
        return [(i0, min(i0 + imgs, n)) for i0 in range(0, n, imgs)]

    def _bands(self, n: int, oh: int, row_bytes: int) -> List[Tuple[int, int, int, int]]:
        """Split the output into ``(i0, i1, r0, r1)`` image x row bands.

        Whole-image bands (:meth:`_image_bands`; contiguous accumulator
        rows, so the GEMM writes in place), or bands of output rows when
        one image alone outgrows the budget. ``row_bytes`` is one output
        row's columns.
        """
        budget = self.band_bytes
        if n * oh * row_bytes > budget and oh * row_bytes > budget:
            rows = max(1, budget // (n * row_bytes))
            return [(0, n, r0, min(r0 + rows, oh)) for r0 in range(0, oh, rows)]
        return [(i0, i1, 0, oh) for i0, i1 in self._image_bands(n, oh * row_bytes)]

    def _bind_gemm(self, x, state):
        """Bind the column GEMM schedule for ``x``: im2col columns times
        the dense operand."""
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        kh = self.kernel[0]
        oh, ow = plan.out_hw
        c_in, c_out, stride = self.c_in, self.c_out, self.stride
        spans, blocks, extra = self._gemm_blocks()
        k = spans[-1][1]
        dtype = np.result_type(x.dtype, blocks[0].dtype)
        single = len(blocks) == 1
        # Multi-span operands stage float32-exact span partials into a
        # float64 accumulator (the int8 exactness certificate).
        acc_dtype = dtype if single else np.dtype(np.float64)
        last = len(spans) - 1

        def gemm(cols, acc, partial):
            if single:
                np.matmul(cols, blocks[0], out=acc)
                return
            for i, (k0, k1) in enumerate(spans):
                a_blk = cols[:, k0 : k1 + extra] if i == last else cols[:, k0:k1]
                np.matmul(a_blk, blocks[i], out=partial)
                if i == 0:
                    acc[...] = partial
                else:
                    acc += partial

        bands = self._bands(n, oh, ow * (k + extra) * dtype.itemsize)
        band_windows = max((i1 - i0) * (r1 - r0) * ow for i0, i1, r0, r1 in bands)
        # Shared slab: the ones column multiplying an appended bias row
        # is rewritten with every band, like the k columns before it.
        cols_buf = arena.scratch("cols", (band_windows, k + extra), dtype)
        partial = None
        if not single:
            partial = arena.scratch("partial", (band_windows, c_out), np.float32)
        shape = (n, oh, ow, c_out)
        dest = self._dest(arena, shape, acc_dtype)
        if bands[0][3] - bands[0][2] == oh:
            acc = self._acc(arena, shape, acc_dtype)
        else:
            acc = arena.scratch("tile", (band_windows, c_out), acc_dtype)
        acc_mat = acc.reshape(-1, c_out)
        bound = []
        for i0, i1, r0, r1 in bands:
            windows = (i1 - i0) * (r1 - r0) * ow
            cols = cols_buf[:windows]
            h0, h1 = r0 * stride, (r1 - 1) * stride + 1
            base = i0 * oh * ow if r1 - r0 == oh else 0
            tile = acc_mat[base : base + windows]
            tile4 = tile.reshape(i1 - i0, r1 - r0, ow, c_out)
            bound.append(
                (
                    (slice(i0, i1), slice(h0, h1 + kh - 1)),
                    cols[:, :k],
                    cols[:, k:] if extra else None,
                    cols,
                    tile,
                    tile4,
                    # Same buffer: hand the epilogue the same view, so it
                    # runs in place.
                    tile4 if dest is acc else dest[i0:i1, r0:r1],
                    None if partial is None else partial[:windows],
                )
            )
        kernel = self.kernel
        epilogue = self._epilogue
        pad = interior = None
        if self.padding > 0:
            p = self.padding
            h, w = x.shape[1], x.shape[2]
            pad, interior = self._pad_buffer(
                x, arena, "pad", (n, h + 2 * p, w + 2 * p, c_in)
            )

        def thunk(x_in):
            src = x_in
            if pad is not None:
                if x_in.base is not pad:
                    interior[...] = x_in
                src = pad
            for window, cols_k, ones, cols, tile, tile4, dest_band, part in bound:
                if ones is not None:
                    ones.fill(1.0)
                im2col_nhwc(src[window], kernel, stride, out=cols_k)
                gemm(cols, tile, part)
                epilogue(tile4, dest_band)
            return dest

        return thunk

    def _operand_weight_t(self) -> np.ndarray:
        """Memoized ``(K[+1], C_out)`` column-GEMM operand (``weight_t``),
        bias row appended when the layer carries one."""
        if self.weight_t is None:
            with _derive_lock:
                if self.weight_t is None:
                    rows = self._weight_rows()
                    if self.bias_rows:
                        bias = self.epilogue.bias.astype(rows.dtype)
                        rows = np.vstack([rows, bias[None, :]])
                    self.weight_t = np.ascontiguousarray(rows)
        return self.weight_t

    def _weight_rows(self) -> np.ndarray:
        """The ``(KH*KW*C_in, C_out)`` NHWC weight matrix, fresh from the
        source parameters: SPM decodes transiently, never memoized, so an
        operand built from it is the only dense copy the op keeps."""
        from ..core import spm

        if self.encoded is not None:
            return _nhwc_rows(spm.decode_layer(self.encoded))
        return _nhwc_rows(_cast(self.weight, self.dtype))

    def _param_dtype(self) -> np.dtype:
        """Dtype of the (cast) weights every operand is built in."""
        if self.encoded is not None:
            return self.encoded.values.dtype
        return np.dtype(self.dtype) if self.dtype is not None else self.weight.dtype

    # -- Winograd F(m x m, 3x3) schedule ------------------------------
    def _wino_operand(self, m: int, x_dtype) -> "_WinoOperand":
        """The Winograd operand for tile ``m``: the memoized transformed
        weights ``U = (G(x)G) W``, ``(f, C_in, C_out)`` in the GEMM
        dtype, run as one span staged in that same dtype."""
        dtype = np.result_type(x_dtype, self._param_dtype())
        f = (m + 2) ** 2

        def stale(u):
            return u is None or u.shape[0] != f or u.dtype != dtype

        u = self._wino_u
        if stale(u):
            with _derive_lock:
                u = self._wino_u
                if stale(u):
                    w9 = np.ascontiguousarray(self._weight_rows()).reshape(
                        9, self.c_in, self.c_out
                    )
                    u = self._wino_u = wino_weight_transform(w9, m, dtype)
        bias = self.epilogue.bias.astype(dtype) if self.bias_rows else None
        return _WinoOperand(
            u=u, spans=((0, self.c_in),), stage=dtype,
            at=wino_transforms(m, dtype)[2], acc=dtype, bias=bias,
        )

    def _tile_rule(self, out_hw) -> int:
        """The static tile rule an auto marker resolves with."""
        from .winograd import default_tile, eligible_tiles

        tiles = eligible_tiles(
            kernel=self.kernel,
            stride=self.stride,
            out_hw=out_hw,
            c_in=self.c_in,
        )
        return default_tile(out_hw=out_hw, c_in=self.c_in, tiles=tiles)

    def _wino_tile(self, out_hw) -> int:
        """Resolve the effective tile for one geometry (and persist it).

        ``wino_m > 0`` is a concrete compile-time choice (the winograd
        pass with known shapes); ``wino_m == -1`` marks a
        statically-eligible conv whose output size was unknown at
        compile time — :meth:`_tile_rule` resolves it here from the
        first execution plan and the result sticks, so describe() and
        serving meta report the tile that actually runs.
        """
        if self.wino_m < 0:
            self.wino_m = self._tile_rule(out_hw)
        return self.wino_m

    def _bind_winograd(self, x, state):
        """Bind the tile-major Winograd schedule for ``x``'s geometry.

        Every tile's ``(m+2)^2 x C`` input block is contiguous (``D``),
        so extraction is an in-order strided copy, the input transform
        ``V = BT D`` and output transform ``Y = AT M`` are per-tile small
        GEMMs, and the Winograd-domain GEMM ``M = V U`` reads each
        frequency's rows as a strided view and writes ``M``
        frequency-major, one contiguous block per frequency (the output
        transform reads it back per tile). Tiles run in image bands
        sized by the column GEMM's budget; two shared slabs hold
        ``D`` then ``M``, and ``V`` then ``Y``. The epilogue goes through
        the same hooks as the column GEMM. Returns ``None`` when the
        tile rule resolves to "stay on im2col" for this geometry.
        """
        arena = state.arena
        plan = self._plan(x, state)
        n = plan.batch
        oh, ow = plan.out_hw
        m = self._wino_tile((oh, ow))
        if m <= 0:
            return None
        th, tw, f, span = wino_geometry(out_hw=(oh, ow), m=m)
        c, c_out = self.c_in, self.c_out
        h, w = x.shape[1], x.shape[2]
        p = self.padding
        op = self._wino_operand(m, x.dtype)
        u, spans, stage = op.u, op.spans, op.stage
        bt = wino_transforms(m, u.dtype)[1]
        direct = len(spans) == 1 and stage == u.dtype
        # Tile extraction needs m*t + 2 rows/cols; for even outputs this
        # is exactly the conv's own padded extent, so the halo-fused
        # ``:pad`` buffer doubles as the tile source. Odd outputs read
        # one partial tile past it, from a wider zero-filled buffer.
        span_h, span_w = m * th + 2, m * tw + 2
        ph, pw = max(h + 2 * p, span_h), max(w + 2 * p, span_w)
        own = p > 0 and ph == h + 2 * p and pw == w + 2 * p
        pad, interior = self._pad_buffer(
            x, arena, "pad" if own else "wpad", (n, ph, pw, c)
        )
        sn, sh, sw, sc = pad.strides
        tiles = np.lib.stride_tricks.as_strided(
            pad, (n, th, tw, span, span, c), (sn, m * sh, m * sw, sh, sw, sc)
        )
        # Per-tile bytes of the two slabs: D then M, V then Y.
        gsize, ssize = u.dtype.itemsize, stage.itemsize
        first = f * max(c * gsize, c_out * ssize)
        second = max(f * c * gsize, m * m * c_out * ssize)
        bands = self._image_bands(n, th * tw * (first + second))
        pmax = max(i1 - i0 for i0, i1 in bands) * th * tw
        slab_a = arena.scratch("cols", (pmax * first,), np.uint8)
        slab_b = arena.scratch("wv", (pmax * second,), np.uint8)
        partial = None
        if not direct:
            partial = arena.scratch("partial", (pmax, c_out), u.dtype)
        shape = (n, oh, ow, c_out)
        dest = self._dest(arena, shape, op.acc)
        ragged = m * th != oh or m * tw != ow
        acc = self._acc(arena, shape, op.acc)
        wout = None
        if ragged:
            wout = arena.scratch("wout", (pmax // (th * tw), m * th, m * tw, c_out), stage)

        def view(slab, count, dtype, *dims):
            nbytes = count * int(np.prod(dims)) * np.dtype(dtype).itemsize
            return slab[:nbytes].view(dtype).reshape(count, *dims)

        bound = []
        for i0, i1 in bands:
            b = i1 - i0
            pc = b * th * tw
            d = view(slab_a, pc, u.dtype, f, c)
            mm = view(slab_a, f, stage, pc, c_out)
            v = view(slab_b, pc, u.dtype, f, c)
            y = view(slab_b, pc, stage, m * m, c_out)
            out_band = wout[:b] if ragged else acc[i0:i1]
            bound.append(
                (
                    tiles[i0:i1],
                    d.reshape(b, th, tw, span, span, c),
                    d,
                    v,
                    v.transpose(1, 0, 2),
                    mm.transpose(1, 0, 2),
                    mm,
                    y,
                    out_band.reshape(b, th, m, tw, m, c_out),
                    y.reshape(b, th, tw, m, m, c_out).transpose(0, 1, 3, 2, 4, 5),
                    wout[:b, :oh, :ow] if ragged else None,
                    acc[i0:i1],
                    acc[i0:i1] if dest is acc else dest[i0:i1],
                    None if partial is None else partial[:pc],
                )
            )
        at, bias, epilogue = op.at, op.bias, self._epilogue

        def thunk(x_in):
            if x_in.base is not pad:
                interior[...] = x_in
            for src, d6, d, v, v_f, m_t, m_f, y, out6, y6, crop, acc_b, dest_b, part in bound:
                d6[...] = src
                np.matmul(bt, d, out=v)
                if direct:
                    np.matmul(v_f, u, out=m_f)
                else:
                    # Span partials are exact in the GEMM dtype; the
                    # stage accumulates them (the int8 certificate).
                    for j in range(f):
                        for i, (c0, c1) in enumerate(spans):
                            np.matmul(v_f[j, :, c0:c1], u[j, c0:c1], out=part)
                            if i == 0:
                                m_f[j][...] = part
                            else:
                                m_f[j] += part
                np.matmul(at, m_t, out=y)
                out6[...] = y6
                if crop is not None:
                    acc_b[...] = crop
                if bias is not None:
                    np.add(acc_b, bias, out=acc_b)
                epilogue(acc_b, dest_b)
            return dest

        return thunk

    def schedule_kind(self) -> str:
        """Per-layer schedule annotation for describe()/serving meta."""
        if self.wino_m > 0:
            return f"winograd{self.wino_m}"
        if self.wino_m < 0:
            return "winograd-auto"
        return "im2col"

    def describe(self) -> str:
        kind = "spm-conv" if self.encoded is not None else "conv"
        fused = []
        if self.bias is not None:
            fused.append("bias")
        if self.relu:
            fused.append("relu")
        label = f"{kind}" + (f"+{'+'.join(fused)}" if fused else "")
        if self.wino_m > 0:
            # Auto markers (wino_m < 0) stay silent until the first
            # execution plan resolves them to a concrete tile.
            label += f" [winograd{self.wino_m}]"
        return label


@dataclass
class LinearOp(_InferenceOp):
    """Affine head with optional fused ReLU (outputs are small).

    ``weight_t`` is the ``(in, out)`` GEMM operand, transposed and made
    contiguous once at lowering; every bound thunk shares it.
    """

    weight_t: np.ndarray
    bias: Optional[np.ndarray]
    tag: str
    relu: bool = False

    layout_in = "flat"
    layout_out = "flat"

    def bind(self, x, state):
        weight_t = self.weight_t
        out_dtype = np.result_type(x.dtype, weight_t.dtype)
        out = state.arena.take(
            f"{self.tag}:out", (x.shape[0], weight_t.shape[1]), out_dtype
        )
        bias = None if self.bias is None else self.bias.astype(out_dtype, copy=False)
        relu = self.relu

        def thunk(x_in):
            np.matmul(x_in, weight_t, out=out)
            if bias is not None:
                np.add(out, bias, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)
            return out

        return thunk

    def param_nbytes(self) -> int:
        return _arr_nbytes(self.weight_t, self.bias)

    def describe(self) -> str:
        return "linear+relu" if self.relu else "linear"


@dataclass
class BatchNormOp(_InferenceOp):
    """Standalone eval-mode BN (only when no conv precedes it)."""

    scale: np.ndarray  # (C,), the BN's folded affine map
    shift: np.ndarray
    tag: str
    relu: bool = False
    dtype: Optional[object] = None
    scale4: Optional[np.ndarray] = field(default=None, repr=False)
    shift4: Optional[np.ndarray] = field(default=None, repr=False)

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def prepare(self) -> None:
        """Build the broadcastable channels-last affine operands."""
        if self.scale4 is None:
            c = self.scale.shape[0]
            self.scale4 = _cast(self.scale, self.dtype).reshape(1, 1, 1, c)
            self.shift4 = _cast(self.shift, self.dtype).reshape(1, 1, 1, c)

    def param_nbytes(self) -> int:
        return _arr_nbytes(self.scale, self.shift)

    def derived_nbytes(self) -> int:
        return _arr_nbytes(self.scale4, self.shift4)

    def release_derived(self) -> int:
        freed = self.derived_nbytes()
        self.scale4 = None
        self.shift4 = None
        return freed

    def bind(self, x, state):
        self.prepare()
        scale4, shift4, relu = self.scale4, self.shift4, self.relu
        out = state.arena.take(
            f"{self.tag}:out", x.shape, np.result_type(x.dtype, scale4.dtype)
        )

        def thunk(x_in):
            np.multiply(x_in, scale4, out=out)
            np.add(out, shift4, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)
            return out

        return thunk

    def describe(self) -> str:
        return "batchnorm+relu" if self.relu else "batchnorm"


@dataclass
class ReluOp(_InferenceOp):
    """Standalone ReLU into an op-private arena buffer (never aliases)."""

    tag: str

    def bind(self, x, state):
        out = state.arena.take(f"{self.tag}:out", x.shape, x.dtype)

        def thunk(x_in):
            # Integer zero: ReLU inside a quantized region runs on int8
            # activation codes, where a float 0.0 would force a promotion.
            return np.maximum(x_in, 0, out=out)

        return thunk

    def describe(self) -> str:
        return "relu"


def _bind_pool(op, x, state, reduce, padding: int = 0) -> Thunk:
    """Bind a max/avg pool: window view, reduction, halo-aware output.

    The window view binds to the bound input buffer (a padded copy, or
    the producer's stable arena buffer); an input that is a different
    array gets a fresh view.
    """
    src = x
    interior = None
    if padding > 0:
        # Identity-of-max borders so padded cells never win; filled once
        # at allocation, only the interior is copied per call. (int8
        # activation codes get the integer minimum: -inf does not cast.)
        n, h, w, c = x.shape
        p = padding
        lowest = (
            -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
        )
        src = state.arena.take_filled(
            f"{op.tag}:pad", (n, h + 2 * p, w + 2 * p, c), x.dtype, lowest
        )
        interior = src[:, p : p + h, p : p + w, :]
    kernel, stride = op.kernel, op.stride
    windows = pool_windows_nhwc(src, kernel, stride)
    n, oh, ow = windows.shape[:3]
    out = _out_buffer(state.arena, op.tag, op.halo, (n, oh, ow, x.shape[3]), x.dtype)

    def thunk(x_in):
        if interior is not None:
            interior[...] = x_in
            view = windows
        elif x_in is src:
            view = windows
        else:
            view = pool_windows_nhwc(x_in, kernel, stride)
        return reduce(view, axis=(3, 4), out=out)

    return thunk


@dataclass
class MaxPoolOp(_InferenceOp):
    kernel: int
    stride: int
    padding: int
    tag: str
    halo: Optional[Tuple[str, int]] = None

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def bind(self, x, state):
        return _bind_pool(self, x, state, np.max, self.padding)

    def describe(self) -> str:
        return f"maxpool{self.kernel}"


@dataclass
class AvgPoolOp(_InferenceOp):
    kernel: int
    stride: int
    tag: str
    halo: Optional[Tuple[str, int]] = None

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    def bind(self, x, state):
        return _bind_pool(self, x, state, np.mean)

    def describe(self) -> str:
        return f"avgpool{self.kernel}"


@dataclass
class GlobalAvgPoolOp(_InferenceOp):
    tag: str

    layout_in = "nhwc"
    layout_out = "flat"
    spatial_only = True

    def bind(self, x, state):
        n, h, w, c = x.shape
        out = None
        if np.issubdtype(x.dtype, np.floating):  # integer means promote
            out = state.arena.take(f"{self.tag}:out", (n, c), x.dtype)

        def thunk(x_in):
            return np.mean(x_in, axis=(1, 2), out=out)  # NHWC -> (N, C)

        return thunk

    def describe(self) -> str:
        return "globalavgpool"


@dataclass
class FlattenOp(_InferenceOp):
    """NCHW-ordered flatten of a channels-last activation."""

    tag: str

    layout_in = "nhwc"
    layout_out = "flat"
    spatial_only = True

    def bind(self, x, state):
        n, h, w, c = x.shape
        out = state.arena.take(f"{self.tag}:out", (n, c * h * w), x.dtype)
        out_nchw = out.reshape(n, c, h, w)

        def thunk(x_in):
            out_nchw[...] = x_in.transpose(0, 3, 1, 2)
            return out

        return thunk

    def describe(self) -> str:
        return "flatten"


@dataclass
class ResidualOp(_InferenceOp):
    """Body + shortcut with the post-add ReLU applied in place.

    The two branches are nested :class:`~repro.runtime.ir.Graph`
    pipelines (both consuming this op's input edge), so graph passes
    recurse into them like any other ops; execution reads the cached
    linearisation.
    """

    body_graph: Graph
    shortcut_graph: Graph
    relu: bool
    tag: str

    layout_in = "nhwc"
    layout_out = "nhwc"
    spatial_only = True

    @property
    def body(self) -> List[_InferenceOp]:
        """The body branch's executable ops, in order."""
        return self.body_graph.op_list()

    @property
    def shortcut(self) -> List[_InferenceOp]:
        """The shortcut branch's executable ops, in order."""
        return self.shortcut_graph.op_list()

    def bind(self, x, state):
        """The branches bind on the thunk's first call, against their
        real inputs, so binding never runs them twice."""
        body, shortcut, relu = self.body, self.shortcut, self.relu
        # A degenerate empty body must not add into the input itself.
        copy = None if body else state.arena.take(f"{self.tag}:out", x.shape, x.dtype)
        bound = []

        def thunk(x_in):
            if bound:
                out = _replay(bound[0], x_in)
                identity = _replay(bound[1], x_in)
            else:
                body_thunks, out = _bind_chain(body, x_in, state)
                shortcut_thunks, identity = _bind_chain(shortcut, x_in, state)
                bound.extend((body_thunks, shortcut_thunks))
            if copy is not None:
                np.copyto(copy, x_in)
                out = copy
            np.add(out, identity, out=out)
            if relu:
                np.maximum(out, 0.0, out=out)
            return out

        return thunk

    def describe(self) -> str:
        body = " ".join(op.describe() for op in self.body)
        down = " ".join(op.describe() for op in self.shortcut) or "identity"
        return f"residual[{body} | {down}]"


@dataclass
class ModuleOp(_InferenceOp):
    """Fallback: run a module the lowerer does not recognise under
    no_grad in eval mode, so ``compile_model`` stays total. It shows up
    as ``module:<type>`` in :meth:`CompiledModel.describe`."""

    module: nn.Module
    tag: str

    # The lowerer converts spatial activations to NCHW before a fallback
    # module runs; the contract stays "any"/"same" because flat inputs
    # pass through untouched.
    layout_in = "any"
    layout_out = "same"

    def bind(self, x, state):
        module = self.module

        def thunk(x_in):
            was_training = module.training
            module.eval()
            try:
                with nn.no_grad():
                    return module(nn.Tensor(x_in, dtype=None)).data
            finally:
                module.train(was_training)

        return thunk

    def param_nbytes(self) -> int:
        return sum(int(p.data.nbytes) for p in self.module.parameters())

    def describe(self) -> str:
        return f"module:{type(self.module).__name__}"


def walk_ops(ops: Sequence[_InferenceOp]):
    """Yield ``ops`` in order, each residual op followed by the ops of its
    body and then its shortcut (recursively)."""
    for op in ops:
        yield op
        if isinstance(op, ResidualOp):
            yield from walk_ops(op.body)
            yield from walk_ops(op.shortcut)


# ---------------------------------------------------------------------
# The compiled model
# ---------------------------------------------------------------------
class CompiledModel:
    """Flat inference pipeline produced by :func:`compile_model`.

    Callable on ``(N, C, H, W)`` numpy batches; inputs are cast once to
    the compile dtype, converted to channels-last at entry, and outputs
    are returned in the eager model's layout. Execution resources
    (buffer arena) are thread-local, so one compiled model serves
    micro-batches from a thread pool concurrently
    (``predict(..., workers=N)``); the plan cache is shared and
    lock-protected.

    ``graph`` holds the pass-transformed IR the op list was linearised
    from, ``passes`` the :class:`~repro.runtime.passes.PassRecord` trace
    of what each pass did, ``quantization`` the optional report — all
    rendered by :meth:`describe`.
    """

    def __init__(
        self,
        graph: Union[Graph, List[_InferenceOp]],
        dtype,
        source: str = "",
        passes: Optional[List[object]] = None,
    ) -> None:
        if isinstance(graph, Graph):
            self.graph: Optional[Graph] = graph
            self.ops = list(graph.op_list())
        else:
            self.graph = None
            self.ops = list(graph)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.source = source
        self.plans = PlanCache()
        #: Per-pass trace (:class:`~repro.runtime.passes.PassRecord`).
        self.passes = list(passes or [])
        #: :class:`~repro.runtime.quant.QuantizationReport` when the
        #: pipeline was compiled with ``quantize=``, else ``None``.
        self.quantization = None
        self._local = threading.local()
        # Every thread's _ExecState, so cross-thread byte accounting and
        # workspace release (fleet demotion) can reach arenas that the
        # creating threads own. Guarded by _states_lock; the hot path
        # only appends once per thread.
        self._states: List[_ExecState] = []
        self._states_lock = threading.Lock()
        # Observed (input tail, input dtype) -> (output tail, output
        # dtype), recorded by __call__ and served by output_geometry()
        # so empty-batch calls never need a probe forward.
        self._geometry: dict = {}
        # Input tail -> dense MACs per image (dense_macs()).
        self._macs: dict = {}

    # -- resources -----------------------------------------------------
    def _state(self) -> _ExecState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ExecState(arena=Arena(), plans=self.plans)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    @property
    def arena(self) -> Arena:
        """The calling thread's buffer arena (stats/introspection)."""
        return self._state().arena

    # -- byte accounting & residency -----------------------------------
    def iter_ops(self):
        """Every executable op, recursing into residual branches."""
        return walk_ops(self.ops)

    def memory_report(self) -> dict:
        """Byte breakdown of what this pipeline holds resident.

        ``parameters`` (weights/codes — survives demotion and eviction),
        ``derived`` (rebuildable GEMM operands and memoized gathers),
        ``plans`` (the cached plan objects themselves: compiled thunks
        draw their workspace from the arenas, so the implied workspace
        :attr:`ExecutionPlan.nbytes` charges the eager engine's LRU
        would count it twice) and ``arenas`` (activation buffers and
        scratch slabs across every thread that has executed the model).
        """
        parameters = 0
        derived = 0
        for op in self.iter_ops():
            parameters += op.param_nbytes()
            derived += op.derived_nbytes()
        with self._states_lock:
            states = list(self._states)
        return {
            "parameters": parameters,
            "derived": derived,
            "plans": self.plans.object_nbytes,
            "arenas": sum(state.arena.nbytes for state in states),
            "threads": len(states),
        }

    def resident_nbytes(self) -> int:
        """Reclaimable resident bytes: derived + plans + arenas (the
        fleet ledger's charge for this tenant; parameters excluded —
        they are the price of keeping the model loaded at all)."""
        report = self.memory_report()
        return report["derived"] + report["plans"] + report["arenas"]

    def release_workspaces(self) -> int:
        """Demotion: drop plan cache + every thread's arena buffers.

        Parameters and derived GEMM operands stay, so the next call is a
        warm re-plan (allocate + plan, no re-prepare). Returns bytes
        freed. Safe only while no request is executing (the fleet's
        residency manager serialises this against flushes).
        """
        freed = self.plans.object_nbytes
        self.plans.clear()
        with self._states_lock:
            states = list(self._states)
        for state in states:
            state.traces.clear()  # thunks pin the arena buffers
            freed += state.arena.release()
        return freed

    def release_derived(self) -> int:
        """Eviction: additionally drop rebuildable derived op state.

        The lowered IR, pass trace and source parameters all stay — the
        next call re-runs :meth:`prepare` lazily (a warm finalize), never
        a recompile. Returns bytes freed.
        """
        freed = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            state.traces.clear()  # thunks pin the released GEMM operands
        for op in self.iter_ops():
            freed += op.release_derived()
        return freed

    def prepare_ops(self) -> None:
        """Eagerly rebuild derived op state (the finalize pass's work) —
        re-promotion after eviction calls this off the hot path."""
        for op in self.iter_ops():
            prepare = getattr(op, "prepare", None)
            if prepare is not None:
                prepare()

    # -- execution -----------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Run the compiled pipeline over a batch.

        The first call at a given (shape, dtype) binds every op against
        its real input (binding runs the ops once, so that call costs
        one forward) and keeps the thunk list; later calls replay it —
        no plan-cache lookups, no arena dict hits, no per-op branching.

        Thunks hold views of the thread's shared scratch slabs. A bind
        that grows a slab after earlier thunks took views of it keeps no
        trace, and drops the thread's other traces: those views would
        keep the replaced, smaller slab alive. Every geometry then binds
        again on its next call, against slabs that are already large
        enough.
        """
        x = np.asarray(x)
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) inputs, got shape {x.shape}")
        geometry_key = (x.shape[1:], np.dtype(x.dtype))
        if self.dtype is not None and x.dtype != self.dtype:
            x = x.astype(self.dtype)
        state = self._state()
        key = (x.shape, np.dtype(x.dtype))
        thunks = state.traces.get(key)
        if thunks is None:
            growths = state.arena.growths
            thunks, out = _bind_chain(self.ops, x, state)
            if state.arena.growths == growths:
                state.traces[key] = thunks
            else:
                state.traces.clear()
        else:
            out = _replay(thunks, x)
        if geometry_key not in self._geometry:
            self._geometry[geometry_key] = (out.shape[1:], np.dtype(out.dtype))
        # The last op's result may be a view into an arena buffer that the
        # next call will overwrite; hand back an owned copy (outputs are
        # head-sized, so this is cheap).
        return np.array(out, copy=True)

    def schedule_summary(self) -> List[dict]:
        """Per-layer schedule kinds for describe()/serving meta.

        One row per conv-like op: the lowering tag, op class, the
        chosen schedule kind (``winograd4``/``winograd2``/``im2col``/
        ``winograd-auto``) and, for quantized convs, which int8 GEMM
        kernel serves the layer plus :meth:`QuantConvOp.schedule_detail`
        (an int8 Winograd layer's spans and staging dtype, or why an
        integer-kernel layer stays on im2col).
        """
        rows = []
        for op in self.iter_ops():
            kind = getattr(op, "schedule_kind", None)
            if kind is None:
                continue
            row = {"tag": op.tag, "op": type(op).__name__, "kind": kind()}
            int8_kernel = getattr(op, "int8_kernel", None)
            if int8_kernel is not None:
                row["int8_kernel"] = int8_kernel
                row.update(op.schedule_detail())
            rows.append(row)
        return rows

    def output_geometry(self, input_tail, input_dtype):
        """``(output shape tail, dtype)`` for ``(N,) + input_tail`` inputs.

        Answers from geometry a real call already recorded, else derives
        it analytically by walking the op list's shape rules — no probe
        forward and no arena allocation, which is
        what lets ``predict`` answer empty batches for free. Returns
        ``None`` when the pipeline's geometry cannot be derived
        statically (a :class:`ModuleOp` fallback hides its spatial
        behaviour, and ``dtype=None`` pipelines track parameter dtypes
        the walk does not model) — callers fall back to the probe.
        """
        key = (tuple(input_tail), np.dtype(input_dtype))
        entry = self._geometry.get(key)
        if entry is not None:
            return entry
        if self.dtype is None:
            return None
        tail = self._walk_geometry(self.ops, key[0])
        if tail is None:
            return None
        entry = (tail, self.dtype)
        self._geometry[key] = entry
        return entry

    def dense_macs(self, input_tail) -> Optional[int]:
        """Dense conv + linear MACs per image for ``(N,) + input_tail``.

        Counted from the ops' geometry as if every weight were non-zero
        (the work a dense GEMM schedule does), memoized per input tail.
        ``None`` when the walk cannot derive the geometry (see
        :meth:`output_geometry`). ``predict`` sizes its batch lanes by it.
        """
        key = tuple(input_tail)
        if key not in self._macs:
            macs = [0]
            tail = self._walk_geometry(self.ops, key, macs)
            self._macs[key] = None if tail is None else macs[0]
        return self._macs[key]

    @staticmethod
    def _walk_geometry(ops, tail, macs=None, conv_hw=None):
        """Symbolically push a shape tail through ``ops`` (None = punt).

        With ``macs`` (a one-element list) the walk also adds each conv's
        and linear layer's dense multiply-accumulates per image to it.
        With ``conv_hw`` (a dict) it records each conv's input ``(H, W)``
        under the conv's tag, residual body and shortcut alike.
        """
        from ..nn.functional import conv_output_size
        from .quant import DequantizeOp, QuantizeOp

        for op in ops:
            if isinstance(op, ToNHWC):
                if len(tail) != 3:
                    return None
                c, h, w = tail
                tail = (h, w, c)
            elif isinstance(op, ToNCHW):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                tail = (c, h, w)
            elif isinstance(op, ConvOp):  # QuantConvOp included
                if len(tail) != 3:
                    return None
                h, w, _ = tail
                if conv_hw is not None:
                    conv_hw[op.tag] = (h, w)
                oh = conv_output_size(h, op.kernel[0], op.stride, op.padding)
                ow = conv_output_size(w, op.kernel[1], op.stride, op.padding)
                tail = (oh, ow, op.c_out)
                if macs is not None:
                    kh, kw = op.kernel
                    macs[0] += oh * ow * op.c_out * kh * kw * op.c_in
            elif isinstance(op, MaxPoolOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                oh = conv_output_size(h, op.kernel, op.stride, op.padding)
                ow = conv_output_size(w, op.kernel, op.stride, op.padding)
                tail = (oh, ow, c)
            elif isinstance(op, AvgPoolOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                oh = conv_output_size(h, op.kernel, op.stride, 0)
                ow = conv_output_size(w, op.kernel, op.stride, 0)
                tail = (oh, ow, c)
            elif isinstance(op, GlobalAvgPoolOp):
                if len(tail) != 3:
                    return None
                tail = (tail[2],)
            elif isinstance(op, FlattenOp):
                if len(tail) != 3:
                    return None
                h, w, c = tail
                tail = (c * h * w,)
            elif isinstance(op, LinearOp):
                tail = (op.weight_t.shape[1],)
                if macs is not None:
                    macs[0] += op.weight_t.size
            elif isinstance(op, ResidualOp):
                walk = CompiledModel._walk_geometry
                if walk(op.shortcut, tail, macs, conv_hw) is None:
                    return None
                tail = walk(op.body, tail, macs, conv_hw)
                if tail is None:
                    return None
            elif isinstance(op, (BatchNormOp, ReluOp, QuantizeOp, DequantizeOp)):
                pass  # shape-preserving
            else:  # ModuleOp or an op this walk does not know
                return None
        return tail

    def describe(self) -> str:
        """The pass-annotated pipeline: trace, ops, and reports."""
        header = f"CompiledModel({self.source or 'model'}, dtype={self.dtype})"
        lines = [header]
        if self.passes:
            trace = " -> ".join(record.name for record in self.passes)
            lines.append(f"  passes: {trace}")
            for record in self.passes:
                if record.note:
                    lines.append(f"    {record.name}: {record.note}")
        lines.extend(f"  {i}: {op.describe()}" for i, op in enumerate(self.ops))
        if self.quantization is not None:
            lines.append("  quantization: " + self.quantization.describe())
        memory = self.memory_report()
        lines.append(
            "  memory: "
            + " / ".join(
                f"{key} {memory[key] / 2**20:.1f} MiB"
                for key in ("parameters", "derived", "arenas")
            )
            + f", {memory['threads']} thread(s)"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CompiledModel(ops={len(self.ops)}, dtype={self.dtype}, "
            f"source={self.source!r})"
        )


def compile_model(
    model: nn.Module,
    dtype=np.float32,
    *,
    quantize=None,
    calibration: Optional[np.ndarray] = None,
    input_shape: Optional[Sequence[int]] = None,
    winograd: bool = True,
    passes: Optional[Sequence[object]] = None,
) -> CompiledModel:
    """Lower ``model`` to a :class:`CompiledModel` inference pipeline.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module`. Known structures (Sequential
        chains, modules exposing ``lowering_sequence`` /
        ``lowering_branches``) lower to fused channels-last ops; anything
        else runs via a :class:`ModuleOp` fallback, so compilation always
        succeeds.
    dtype:
        Inference dtype, cast once at compile time. ``np.float32``
        (default) halves GEMM memory traffic vs the float64 training
        graph; ``None`` keeps each parameter's own dtype.
    quantize:
        Lower eligible convolutions to the int8 execution path
        (:mod:`repro.runtime.quant`): ``"int8"``/``True`` for the
        defaults, an int bit width, or a full
        :class:`~repro.runtime.quant.QuantizationConfig`. Requires
        ``calibration``.
    calibration:
        Small ``(N, C, H, W)`` batch used to calibrate activation scales
        when ``quantize`` is given.
    input_shape:
        ``(C, H, W)`` of one input image. With it the ``winograd`` pass
        picks each conv's tile at compile time; without it eligible
        convs resolve their tile from the first execution plan
        (``predict``/serving/CLI fill it in).
    winograd:
        Let the ``winograd`` pass mark eligible 3x3/stride-1 convs for
        the F(m x m, 3x3) fast-convolution path (default). ``False``
        keeps every conv on its im2col GEMM — the reference
        schedule benchmarks and equivalence tests compare against.
    passes:
        Override the pass list (names or
        :class:`~repro.runtime.passes.Pass` objects); the default is the
        standard sequence with ``quantize`` included when requested.
        Ordering constraints are validated either way.

    Notes
    -----
    The compiled pipeline snapshots weights, masks, BN statistics and SPM
    encodings *at compile time* — mutating the source model afterwards
    (fine-tuning, ``load_state_dict``) requires compiling again.
    """
    from .passes import CompileContext, PassManager, default_passes
    from .quant import resolve_quantization

    config = resolve_quantization(quantize) if quantize is not None else None
    if config is not None and calibration is None:
        raise ValueError(
            "compile_model(quantize=...) needs a calibration= batch "
            "to derive activation scales from"
        )
    ctx = CompileContext(
        model=model,
        dtype=np.dtype(dtype) if dtype is not None else None,
        quantize=config,
        calibration=calibration,
        input_shape=tuple(input_shape) if input_shape is not None else None,
        winograd=winograd,
    )
    graph = Graph(TensorMeta("nchw"), name=type(model).__name__)
    manager = PassManager(passes if passes is not None else default_passes(ctx))
    manager.run(graph, ctx)
    compiled = CompiledModel(
        graph, dtype=dtype, source=type(model).__name__, passes=manager.records
    )
    compiled.quantization = ctx.quant_report
    return compiled
