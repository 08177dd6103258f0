"""INT8 quantized execution: the paper's 8-bit storage format, run for real.

Sections IV-E of the paper (and :mod:`repro.core.quantize` /
:mod:`repro.arch.fixed_point` in this repo) describe weights stored at
8-bit precision with integer multiply-accumulate. Until this module,
every serving path dequantized those weights back to float before the
GEMM, so quantization only ever bought *storage*, never runtime. This
module closes that gap in the compiled pipeline:
:func:`quantize_pipeline` is the ``quantize`` pass.
``compile_model(model, quantize="int8", calibration=batch)`` lowers
the model to float ops first, then this pass calibrates per-edge
activation scales from a small batch, converts eligible convolutions
to :class:`QuantConvOp` (int8 weight codes, SPM-aware so only the
non-zero sequences are quantized, bias folded in code space) and
keeps the whole conv trunk in int8 activation codes: each conv's
epilogue *requantizes* its output directly to the next layer's codes,
and max-pool/ReLU run on codes unchanged (both commute with a
positive per-tensor scale). Layers whose weight-quantization error
exceeds :attr:`QuantizationConfig.error_threshold` stay float, with
:class:`QuantizeOp`/:class:`DequantizeOp` boundaries inserted
automatically.

**Arithmetic model.** Activations flow between quantized convs as real
``int8`` arrays (the carried bytes are the codes, not float stand-ins),
and dense convs run the ``"blocked"`` integer GEMM
(:attr:`QuantizationConfig.kernel`): K-blocked float32 BLAS. Every
int8 product satisfies ``|a*b| <= 127^2 < 2^14``, so a block of up to
:data:`INT8_BLOCK_K` = 1024 products sums below ``2^24`` and float32
represents each block-partial *exactly*; the partials accumulate in a
float64 buffer (53-bit exact), making the whole GEMM bit-identical to
the int32 datapath of :func:`repro.arch.fixed_point.int8_mac` — the
integer-dtype :func:`int8_gemm_int32` is the test oracle — while running
at sgemm speed. ``"float"`` carries the codes in float arrays through a
plain BLAS GEMM instead (float64 exact for every realisable int8 conv,
float32 to ~2^-24 relative); wider-than-8-bit codes always take it.

This is the honest numpy rendering of the hardware story: int8
storage, int8 operand traffic, integer products, wide accumulation,
scales folded in the epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .arena import Arena
from .compile import (
    ConvOp,
    MaxPoolOp,
    ReluOp,
    ResidualOp,
    _arr_nbytes,
    _derive_lock,
    _ExecState,
    _InferenceOp,
    _nhwc_rows,
    _WinoOperand,
    walk_ops,
)
from .plan import PlanCache
from .winograd import transforms as wino_transforms
from .winograd import weight_transform as wino_weight_transform

__all__ = [
    "QuantizationConfig",
    "QuantizationReport",
    "QuantConvOp",
    "QuantizeOp",
    "DequantizeOp",
    "quantize_weight_codes",
    "quantize_encoded_values",
    "int8_gemm_int32",
    "int8_gemm_int32_blocked",
    "INT8_BLOCK_K",
    "quantize_pipeline",
    "resolve_quantization",
]


@dataclass(frozen=True)
class QuantizationConfig:
    """Policy knobs for the int8 execution path.

    Parameters
    ----------
    bits:
        Weight/activation precision (symmetric signed); 8 is the
        hardware format, anything >= 2 works.
    granularity:
        ``"per_kernel"`` gives every output filter its own weight scale
        (one scale per GEMM output column — the finest granularity that
        still folds into a per-column epilogue multiply);
        ``"per_tensor"`` uses a single scale per layer.
    mode:
        ``"requantize"`` (default) keeps activations as int8 codes
        between quantized convs — each conv's epilogue rounds straight
        into the next layer's code space. ``"dequantize"`` returns every
        conv output to float and re-quantizes at the next conv's input;
        strictly more work, useful for isolating epilogue effects.
    error_threshold:
        Per-layer float fallback: a conv whose relative L2
        weight-quantization error exceeds this stays float (boundaries
        are inserted automatically).
    calibration_images:
        How many images of the calibration batch are actually used
        (scales saturate quickly; keeping this small keeps
        ``compile_model(quantize=...)`` cheap).
    kernel:
        The GEMM datapath of dense quantized convs: ``"blocked"``
        (default — the exact integer kernel on real int8 activation
        buffers) or ``"float"`` (codes carried in float arrays, no int8
        activation traffic; also what bits > 8 always run).
    """

    bits: int = 8
    granularity: str = "per_kernel"
    mode: str = "requantize"
    error_threshold: float = 0.1
    calibration_images: int = 8
    kernel: str = "blocked"

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("need at least 2 bits for signed quantization")
        if self.granularity not in ("per_kernel", "per_tensor"):
            raise ValueError(
                f"granularity must be 'per_kernel' or 'per_tensor', "
                f"got {self.granularity!r}"
            )
        if self.mode not in ("requantize", "dequantize"):
            raise ValueError(
                f"mode must be 'requantize' or 'dequantize', got {self.mode!r}"
            )
        if not 0 <= self.error_threshold:
            raise ValueError("error_threshold must be >= 0")
        if self.calibration_images < 1:
            raise ValueError("calibration_images must be >= 1")
        if self.kernel not in ("blocked", "float"):
            raise ValueError(
                f"kernel must be 'blocked' or 'float', got {self.kernel!r}"
            )

    @property
    def qmax(self) -> int:
        """Largest code magnitude: ``2^(bits-1) - 1`` (127 for int8)."""
        return 2 ** (self.bits - 1) - 1


def resolve_quantization(
    quantize: Union[None, bool, str, int, QuantizationConfig]
) -> Optional[QuantizationConfig]:
    """Normalise the public ``quantize=`` argument to a config.

    Accepts ``None``/``False`` (off), ``True`` or ``"int8"`` (defaults),
    an integer bit width, or a full :class:`QuantizationConfig`.
    """
    if quantize is None or quantize is False:
        return None
    if isinstance(quantize, QuantizationConfig):
        return quantize
    if quantize is True:
        return QuantizationConfig()
    if isinstance(quantize, int):
        return QuantizationConfig(bits=quantize)
    if isinstance(quantize, str):
        name = quantize.lower()
        if name.startswith("int") and name[3:].isdigit():
            return QuantizationConfig(bits=int(name[3:]))
        raise ValueError(f"unknown quantization spec {quantize!r} (try 'int8')")
    raise TypeError(f"cannot interpret quantize={quantize!r}")


# ---------------------------------------------------------------------
# Quantizers
# ---------------------------------------------------------------------
def _scales_from_peaks(peaks: np.ndarray, qmax: int) -> np.ndarray:
    """Symmetric scales from absolute peaks (zero peak -> scale 1.0)."""
    peaks = np.asarray(peaks, dtype=np.float64)
    return np.where(peaks > 0, peaks / qmax, 1.0)


def quantize_weight_codes(
    w_mat: np.ndarray, config: QuantizationConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Quantize a ``(C_out, K)`` weight matrix to integer codes.

    Returns ``(codes, scales, error)`` with ``codes`` int-valued (stored
    as int8 when ``bits <= 8``), ``scales`` of shape ``(C_out,)`` (one
    per output kernel, or a broadcast single scale for per-tensor), and
    ``error`` the *worst per-output-kernel* relative L2 reconstruction
    error — the per-layer float fallback thresholds on this rather than
    the whole-layer norm, because a whole-layer figure lets one huge
    (exactly-represented) outlier mask every small weight that
    underflowed to code zero.
    """
    w_mat = np.asarray(w_mat, dtype=np.float64)
    qmax = config.qmax
    if config.granularity == "per_kernel":
        peaks = np.abs(w_mat).max(axis=1)
    else:
        peaks = np.full(w_mat.shape[0], np.abs(w_mat).max() if w_mat.size else 0.0)
    scales = _scales_from_peaks(peaks, qmax)
    codes = np.clip(np.round(w_mat / scales[:, None]), -qmax, qmax)
    if config.bits <= 8:
        codes = codes.astype(np.int8)
    else:
        codes = codes.astype(np.int32)
    recon = codes.astype(np.float64) * scales[:, None]
    row_norm = np.linalg.norm(w_mat, axis=1)
    row_err = np.linalg.norm(w_mat - recon, axis=1)
    rel = np.divide(row_err, row_norm, out=np.zeros_like(row_err), where=row_norm > 0)
    error = float(rel.max()) if rel.size else 0.0
    return codes, scales, error


def quantize_encoded_values(
    encoded, config: QuantizationConfig
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Quantize an SPM layer's non-zero sequences — never the dense tensor.

    ``encoded.values`` is ``(kernels, n)`` in ``(filter, channel)``
    row-major kernel order, so per-kernel granularity groups the
    ``C_in`` rows of each output filter (all scatter into the same GEMM
    column and therefore must share a scale). Returns
    ``(value_codes, scales, error)`` with ``value_codes`` shaped like
    ``encoded.values`` and ``scales`` of shape ``(C_out,)``.
    """
    c_out, c_in, _, _ = encoded.shape
    values = np.asarray(encoded.values, dtype=np.float64)
    per_filter = values.reshape(c_out, -1)
    codes_f, scales, error = quantize_weight_codes(per_filter, config)
    return codes_f.reshape(values.shape), scales, error


def int8_gemm_int32(a_codes: np.ndarray, b_codes: np.ndarray) -> np.ndarray:
    """Exact integer-dtype reference GEMM: ``a_codes @ b_codes`` in int32.

    ``np.matmul`` on integer dtypes bypasses BLAS and loops in C — far
    too slow to serve with. It is the oracle the blocked kernel and the
    float-carried accumulation are tested bit-identical against.
    """
    return np.matmul(
        np.asarray(a_codes, dtype=np.int32), np.asarray(b_codes, dtype=np.int32)
    )


# ---------------------------------------------------------------------
# The blocked int8 GEMM
# ---------------------------------------------------------------------
#: Largest K block whose int8-product partial sums stay float32-exact:
#: |a*b| <= 127^2 = 16129 < 2^14, and 1024 * 16129 = 16_516_096 < 2^24,
#: so every block-partial is an exactly-represented float32 integer.
INT8_BLOCK_K = 1024

#: float32's exact-integer range: every integer of magnitude <= 2^24 - 1
#: is represented exactly, so sums bounded by it never round.
_EXACT = float(2**24 - 1)


def _exact_spans(mag: np.ndarray, scale: float, head: float) -> List[Tuple[int, int]]:
    """Split the rows of a ``(K, M)`` magnitude matrix into spans whose
    column sums, times ``scale`` plus ``head``, stay within
    :data:`_EXACT` (each span as long as that bound allows; a single row
    always forms a span)."""
    k = mag.shape[0]
    if k == 0 or scale * float(mag.sum(axis=0, dtype=np.float64).max()) + head <= _EXACT:
        return [(0, k)] if k else []
    # cum[i] = column sums of the first i rows, exact in float64 for
    # any realisable K (integer magnitudes, sums far below 2^53). Row
    # by row: numpy's cumsum along axis 0 walks columns, ~10x slower.
    cum = np.zeros((k + 1, mag.shape[1]), dtype=np.float64)
    for i in range(k):
        np.add(cum[i], mag[i], out=cum[i + 1])
    spans: List[Tuple[int, int]] = []
    start = 0
    while start < k:
        lo, hi, best = start + 1, k, start + 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if scale * float((cum[mid] - cum[start]).max()) + head <= _EXACT:
                best, lo = mid, mid + 1
            else:
                hi = mid - 1
        spans.append((start, best))
        start = best
    return spans


#: Column-buffer size above which the compiled int8 path switches from
#: one monolithic im2col + GEMM to image bands, fusing the requantize
#: epilogue into each band while its accumulator slice is cache-warm.
_INT8_BAND_BYTES = 16 << 20


def int8_gemm_int32_blocked(
    a_codes: np.ndarray,
    b_codes: Optional[np.ndarray],
    out: Optional[np.ndarray] = None,
    *,
    b_blocks: Optional[List[np.ndarray]] = None,
    partial: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Bit-exact int8 GEMM through K-blocked float32 BLAS.

    ``a_codes (N, K) @ b_codes (K, M)`` with int8-valued operands (any
    dtype holding exact int8 values — the compiled pipeline hands in
    float32 columns cast straight off the int8 activation buffers).
    Each K block of at most :data:`INT8_BLOCK_K` columns is contracted
    by sgemm — exact because every int8 product satisfies
    ``|a*b| <= 127^2 < 2^14``, so a block-partial stays below ``2^24``
    and float32 represents it exactly — and the block partials
    accumulate in a float64 output (53-bit exact for every realisable
    int8 conv). A single-block problem with a float32 ``out`` skips the
    staging entirely: one sgemm straight into the output.

    The keyword buffers let the compiled pipeline pre-bind workspace:
    ``b_blocks`` (the per-block float32 weight operands, replacing
    ``b_codes``) and ``partial`` (``(N, M)`` float32). Omitted buffers
    are allocated per call; the default ``out`` is float64 holding the
    exact int32 accumulator values (float so the requantizing epilogue
    folds scales in place without another cast).
    """
    a_codes = np.asarray(a_codes)
    n, k = a_codes.shape
    m = b_codes.shape[1] if b_blocks is None else b_blocks[0].shape[1]
    if out is None:
        out = np.empty((n, m), dtype=np.float64)
    if k == 0:
        out[...] = 0.0
        return out
    single = k <= INT8_BLOCK_K
    for i, k0 in enumerate(range(0, k, INT8_BLOCK_K)):
        k1 = min(k0 + INT8_BLOCK_K, k)
        if b_blocks is not None:
            b_blk = b_blocks[i]
        else:
            b_blk = np.ascontiguousarray(b_codes[k0:k1], dtype=np.float32)
        a_blk = a_codes[:, k0:k1]
        if a_blk.dtype != np.float32:
            a_blk = a_blk.astype(np.float32)
        if single and out.dtype == np.float32:
            np.matmul(a_blk, b_blk, out=out)
            return out
        if partial is None:
            partial = np.empty((n, m), dtype=np.float32)
        np.matmul(a_blk, b_blk, out=partial)
        if k0 == 0:
            out[...] = partial
        else:
            out += partial
    return out


# ---------------------------------------------------------------------
# Compiled-pipeline ops
# ---------------------------------------------------------------------
@dataclass
class QuantizeOp(_InferenceOp):
    """Float activations -> int8 codes at a quantized-region entry.

    With ``int8=True`` (every kernel except ``"float"``) the emitted
    array is a real ``int8`` buffer — downstream convs then move
    one-byte activation codes through their pad/column buffers instead
    of four-byte float stand-ins.
    """

    scale: float
    qmax: int
    tag: str
    int8: bool = False

    domain_out = "codes"

    def bind(self, x, state):
        """Scale, round and clip the activation into code space."""
        out = state.arena.take(f"{self.tag}:out", x.shape, x.dtype)
        codes = None
        if self.int8:
            codes = state.arena.take(f"{self.tag}:q8", x.shape, np.int8)
        inv, qmax = 1.0 / self.scale, self.qmax

        def thunk(x_in):
            np.multiply(x_in, inv, out=out)
            np.clip(out, -qmax, qmax, out=out)
            if codes is None:
                return np.rint(out, out=out)
            # Fused final pass: round in float, cast on store (clip keeps
            # the values in int8 range, so the unsafe cast is exact).
            return np.rint(out, out=codes, casting="unsafe")

        return thunk

    def describe(self) -> str:
        """Human-readable op label for ``CompiledModel.describe``."""
        dest = "->int8" if self.int8 else ""
        return f"quantize(x{1.0 / self.scale:.3g}){dest}"


@dataclass
class DequantizeOp(_InferenceOp):
    """Int8 codes -> float activations at a quantized-region exit."""

    scale: float
    tag: str
    dtype: Optional[object] = None  # float carry dtype; None -> infer

    domain_out = "float"

    def bind(self, x, state):
        """Multiply codes by their scale, back into float activations."""
        if self.dtype is not None:
            out_dtype = np.dtype(self.dtype)
        elif x.dtype.kind == "f":
            out_dtype = x.dtype
        else:  # int8-carried codes with no recorded carry dtype
            out_dtype = np.dtype(np.float32)
        out = state.arena.take(f"{self.tag}:out", x.shape, out_dtype)
        scale = self.scale

        def thunk(x_in):
            return np.multiply(x_in, scale, out=out)

        return thunk

    def describe(self) -> str:
        """Human-readable op label for ``CompiledModel.describe``."""
        return f"dequantize(x{self.scale:.3g})"


@dataclass
class QuantConvOp(ConvOp):
    """Channels-last convolution executed on int8 codes.

    Subclasses :class:`~repro.runtime.compile.ConvOp` and runs its
    schedules (column GEMM, Winograd, bands, halo hand-off) unchanged;
    it only swaps the arithmetic at the two ends. ``weight_t`` holds
    integer weight codes (float-carried, bias folded in as an appended
    code-space row against the column buffer's ones column), inputs are
    activation codes at ``in_scale``, and :meth:`_epilogue` folds
    ``w_scale * in_scale`` back per output column. With ``out_scale``
    set the epilogue *requantizes* — rounds straight into the consumer's
    code space, the clip's lower bound doubling as the fused ReLU — so
    a chain of quantized convs never touches float activations; with
    ``out_scale=None`` it dequantizes to float (region exit). With
    ``int8_kernel="blocked"`` the GEMM operand (:meth:`_gemm_blocks`)
    becomes the exact span-blocked integer operand, and ``weight_t``
    stays ``None``: the span blocks are the only float copy of the codes
    — or, for a conv the int8 tile rule puts on the exact Winograd
    F(2x2,3x3) schedule, the integer operand ``U'``
    (:meth:`_wino_operand`), which replaces them.

    The int8 artifact (``codes_int8``, per-filter ``w_scale``, and for
    SPM layers only the non-zero sequence codes) is what the op *owns*;
    the span blocks or ``U'`` are derived working state, rebuilt from it.
    """

    w_scale: Optional[np.ndarray] = None  # (1, C_out) float
    in_scale: float = 1.0
    out_scale: Optional[float] = None  # None -> dequantize epilogue
    qmax: int = 127
    codes_int8: Optional[np.ndarray] = None  # storage-format weight codes
    bias_q: Optional[np.ndarray] = None  # (1, C_out) bias in code space
    int8_kernel: Optional[str] = None  # "blocked", or None for float-carried
    emit_int8: bool = False  # requantize straight into real int8 buffers
    _mult_cache: Optional[np.ndarray] = field(default=None, repr=False)
    _w_blocks: Optional[List[np.ndarray]] = field(default=None, repr=False)
    _w_spans: Optional[List[Tuple[int, int]]] = field(default=None, repr=False)
    _bias_folded: Optional[bool] = field(default=None, repr=False)
    _wino_spans: Optional[Tuple[Tuple[int, int], ...]] = field(default=None, repr=False)
    _wino_stage: Optional[np.dtype] = field(default=None, repr=False)
    wino_note: str = ""  # why the int8 tile rule kept this conv on im2col

    #: Columns above this size run in image bands, so each band's
    #: requantize epilogue runs while its accumulator slice is cache-warm.
    band_bytes = _INT8_BAND_BYTES

    @property
    def domain_out(self) -> str:
        """Edge domain this conv produces: codes while requantizing."""
        return "codes" if self.out_scale is not None else "float"

    def param_nbytes(self) -> int:
        """The int8 artifact *plus* the float-carried GEMM operand.

        A float-kernel ``weight_t`` is built by quantization, not by
        :meth:`prepare` — it cannot be rebuilt from ``self.weight`` (None
        here) — so it counts as an owned parameter, never as reclaimable
        derived state."""
        total = _arr_nbytes(
            self.weight, self.bias, self.weight_t,
            self.codes_int8, self.w_scale, self.bias_q,
        )
        if self.encoded is not None:
            total += self.encoded.nbytes
        return total

    def derived_nbytes(self) -> int:
        total = _arr_nbytes(self._mult_cache, self._wino_u)
        if self._w_blocks is not None:
            total += sum(blk.nbytes for blk in self._w_blocks)
        if self.encoded is not None:
            total += self.encoded.cached_nbytes
        return total

    def release_derived(self) -> int:
        """Drop only the rebuildable state (multiplier cache, the blocked
        kernel's span operands or Winograd operand ``U'`` with their
        certificates, and the encoded layer's memoized matrices); the
        int8 artifact stays — see
        :meth:`param_nbytes`."""
        freed = self.derived_nbytes()
        self._mult_cache = None
        self._w_blocks = None
        self._w_spans = None
        self._bias_folded = None
        self._wino_u = None
        self._wino_spans = None
        self._wino_stage = None
        if self.encoded is not None:
            self.encoded.invalidate_caches()
        return freed

    def _multiplier(self, dtype) -> np.ndarray:
        """Per-column scale folding the int32-style accumulator back."""
        if self._mult_cache is None or self._mult_cache.dtype != dtype:
            mult = self.w_scale * self.in_scale
            if self.out_scale is not None:
                mult = mult / self.out_scale
            self._mult_cache = mult.astype(dtype)
        return self._mult_cache

    # -- epilogue hooks -----------------------------------------------
    def _out_dtype(self, acc_dtype) -> np.dtype:
        """Real int8 while requantizing into an int8 pipeline, else the
        float carry dtype (an int8 kernel's float64 accumulator never
        leaks into the float tail)."""
        if self.emit_int8 and self.out_scale is not None:
            return np.dtype(np.int8)
        return _carry_dtype(self.dtype)

    def _epilogue(self, acc: np.ndarray, dest: np.ndarray) -> None:
        """Code-space bias (unless the GEMM operand carries it), scale
        fold, then requantize — or dequantize, with the ReLU.

        Clip-then-round equals round-then-clip because the clip bounds
        are integers; the final ufunc rounds in float and casts each
        element on store, exact for an int8 ``dest`` because the values
        are integers within ``[-qmax, qmax]``.
        """
        if self.bias_q is not None and not self._bias_folded:
            np.add(acc, self.bias_q, out=acc)
        np.multiply(acc, self._multiplier(acc.dtype), out=acc)
        if self.out_scale is not None:
            np.clip(acc, 0.0 if self.relu else -self.qmax, self.qmax, out=acc)
            np.rint(acc, out=dest, casting="unsafe")
        elif self.relu:
            np.maximum(acc, 0.0, out=dest)
        elif dest is not acc:
            np.copyto(dest, acc, casting="same_kind")

    # -- blocked integer GEMM operand ---------------------------------
    def _gemm_blocks(self):
        """Span-blocked int8 operand for the ``"blocked"`` kernel.

        Sizes the K spans by the *value-aware* exactness certificate
        (:meth:`_column_certificate`) and builds one float32 block per
        span. The integer bias codes fold into the last span's operand
        as an extra row against the column buffer's ones column, so bias
        costs no separate pass over the accumulator.
        """
        if not self.int8_kernel:
            return super()._gemm_blocks()
        if self._w_blocks is None:
            with _derive_lock:
                if self._w_blocks is None:
                    w = self._code_rows()
                    spans, folding = self._column_certificate(w)
                    blocks = []
                    for i, (k0, k1) in enumerate(spans):
                        blk = np.ascontiguousarray(w[k0:k1], dtype=np.float32)
                        if folding and i == len(spans) - 1:
                            blk = np.ascontiguousarray(
                                np.vstack([blk, self.bias_q.astype(np.float32)])
                            )
                        blocks.append(blk)
                    self._w_blocks = blocks  # last: the unlocked path keys on it
        return self._w_spans, self._w_blocks, int(self._bias_folded)

    def _code_rows(self) -> np.ndarray:
        """``(KH*KW*C_in, C_out)`` int8 weight codes in NHWC row order,
        from the owned artifact (SPM value codes decode transiently)."""
        if self.encoded is None:
            return self.codes_int8.T
        return np.rint(self._weight_rows()).astype(np.int8)

    def _column_certificate(self, w: Optional[np.ndarray] = None):
        """The column GEMM's K spans and whether the bias codes fold in.

        Activations are clipped to ``[-qmax, qmax]``, so every partial
        sum inside a span is bounded by ``qmax * max_j sum_i |w_ij|``
        over the span's actual weight codes — the span may grow until
        that bound (plus the folded bias code, which joins the same
        accumulation) reaches float32's exact-integer range. In practice
        this collapses most layers to a single span, which accumulates
        in float32 with no staging at all. Memoized; the Winograd
        schedule reads it too, to hand the epilogue the accumulator
        dtype (float32 for one span, float64 staging otherwise) and bias
        the column GEMM would have.
        """
        if self._w_spans is None:
            if w is None:
                w = self._code_rows()
            qmax = float(self.qmax)
            head = 0.0
            folding = self.bias_q is not None
            if folding:
                head = float(np.max(np.abs(self.bias_q)))
                if qmax * 127.0 + head > _EXACT:  # bias codes too large to
                    folding = False  # join the exact accumulation
                    head = 0.0
            self._bias_folded = folding
            self._w_spans = _exact_spans(np.abs(w), qmax, head)
        return self._w_spans, self._bias_folded

    # -- exact integer Winograd F(2x2, 3x3) ----------------------------
    def _tile_rule(self, out_hw) -> int:
        """The int8 tile rule (:func:`repro.runtime.winograd.int8_tile`);
        a layer it keeps on im2col records why in ``wino_note``."""
        from .winograd import int8_tile

        m, why = int8_tile(
            kernel=self.kernel, stride=self.stride, out_hw=out_hw,
            c_in=self.c_in,
        )
        self.wino_note = why
        return m

    def _wino_operand(self, m: int, x_dtype):
        """The integer F(2x2,3x3) operand and its exactness certificate.

        ``U' = (2G (x) 2G) w = 4U`` is built from the weight codes
        exactly (``U`` runs in float64 and its quarter-integer entries,
        ``|U| <= 2.25 * 127``, survive the float32 cast; scaling by 4 is
        exact; ``|U'| <= 9 * 127``), and replaces the span blocks. The
        input transform of clipped codes is bounded by
        ``4 * qmax`` (508 for int8), so ``C_in`` splits into spans
        with ``4 * qmax * max_(f, o) sum_c |U'|`` within float32's exact
        range: each span's partial of ``M = V U'`` is an exact float32
        integer. One span with its output transform ``AT M`` (entries
        0/+-1, summing at most nine frequencies) also in range stages in
        float32; otherwise ``M`` and the output transform run in float64.
        ``AT / 4`` divides by four exactly, so ``Y`` is the integer
        accumulator of the column GEMM, handed over in the dtype and with
        the bias that GEMM would have produced.
        """
        if not self.int8_kernel:
            return super()._wino_operand(m, x_dtype)
        if m != 2:
            raise ValueError(f"int8 Winograd runs F(2x2,3x3) only, not F({m}x{m})")
        if self._wino_u is None:
            with _derive_lock:
                if self._wino_u is None:
                    w = self._code_rows()
                    self._column_certificate(w)
                    # U has quarter-integer entries (|U| <= 2.25 * 127),
                    # exact in float32, so 4U is exact too.
                    u = 4.0 * wino_weight_transform(
                        w.reshape(9, self.c_in, self.c_out), 2, np.float32
                    )
                    mag = np.abs(u).transpose(1, 0, 2).reshape(self.c_in, -1)
                    bound = 4.0 * float(self.qmax)
                    spans = _exact_spans(mag, bound, 0.0)
                    totals = bound * mag.sum(axis=0, dtype=np.float64)
                    totals = totals.reshape(u.shape[0], self.c_out)
                    at = wino_transforms(2, np.float64)[2]
                    out_bound = float((np.abs(at) @ totals).max()) if totals.size else 0.0
                    single = len(spans) == 1 and out_bound <= _EXACT
                    self._wino_spans = tuple(spans)
                    self._wino_stage = np.dtype(np.float32 if single else np.float64)
                    self._wino_u = u
        col_spans, folding = self._column_certificate()
        acc = np.dtype(np.float32 if len(col_spans) == 1 else np.float64)
        stage = self._wino_stage
        return _WinoOperand(
            u=self._wino_u,
            spans=self._wino_spans,
            stage=stage,
            at=np.ascontiguousarray(wino_transforms(2, stage)[2] * 0.25),
            acc=acc,
            bias=self.bias_q.astype(acc) if folding else None,
        )

    def describe(self) -> str:
        """Human-readable op label, e.g. ``qconv[blocked]+bias+relu->int8``."""
        kind = "spm-qconv" if self.encoded is not None else "qconv"
        if self.int8_kernel:
            kind += f"[{self.int8_kernel}]"
        dest = "float" if self.out_scale is None else f"int{_bits_of(self.qmax)}"
        fused = []
        if self.bias_rows or self.bias_q is not None:
            fused.append("bias")
        if self.relu:
            fused.append("relu")
        label = f"{kind}" + (f"+{'+'.join(fused)}" if fused else "") + f"->{dest}"
        detail = self.schedule_detail()
        if "spans" in detail:
            label += f" [winograd2: {detail['spans']} span(s), {detail['staging']} staging]"
        elif "im2col_reason" in detail:
            label += f" [im2col: {detail['im2col_reason']}]"
        return label

    def schedule_kind(self) -> str:
        """Per-layer schedule annotation, suffixed with the GEMM datapath:
        ``+int8:blocked`` for the integer kernel, ``+int8:float`` for
        float-carried codes."""
        base = super().schedule_kind()
        return f"{base}+int8:{self.int8_kernel or 'float'}"

    def schedule_detail(self) -> dict:
        """Why the schedule is what it is: an int8 Winograd layer's
        C_in span count and staging dtype (once its operand exists), or
        the reason an integer-kernel layer stays on im2col."""
        if self.wino_m > 0 and self._wino_spans is not None:
            return {"spans": len(self._wino_spans), "staging": self._wino_stage.name}
        if self.wino_m == 0 and self.int8_kernel and self.wino_note:
            return {"im2col_reason": self.wino_note}
        return {}


def _carry_dtype(dtype) -> np.dtype:
    """Float dtype quantized convs carry codes and dequantized outputs in."""
    return np.dtype(dtype) if dtype is not None else np.dtype(np.float64)


def _bits_of(qmax: int) -> int:
    """Bit width whose symmetric signed range ends at ``qmax``."""
    return int(qmax + 1).bit_length()


# ---------------------------------------------------------------------
# The compile-time quantization pass
# ---------------------------------------------------------------------
@dataclass
class QuantizationReport:
    """What the quantization pass did to one compiled pipeline: one row
    per conv the pipeline runs, residual-branch convs included."""

    bits: int
    granularity: str
    mode: str
    error_threshold: float
    int8_kernel: str = "float"  # resolved GEMM kernel serving dense convs
    layers: List[dict] = field(default_factory=list)

    @property
    def quantized_layers(self) -> int:
        """How many convs execute on int8 codes."""
        return sum(1 for row in self.layers if row["quantized"])

    @property
    def fallback_layers(self) -> int:
        """How many convs stayed float (error threshold, or inside a
        residual branch the pass does not enter)."""
        return sum(1 for row in self.layers if not row["quantized"])

    def describe(self) -> str:
        """One line per conv: quantized or why not."""
        lines = [
            f"int{self.bits} {self.granularity} ({self.mode}, "
            f"kernel={self.int8_kernel}), "
            f"{self.quantized_layers} quantized / {self.fallback_layers} float"
        ]
        for row in self.layers:
            status = "int8" if row["quantized"] else f"float ({row['reason']})"
            if row["error"] is not None:  # None: never assessed
                status += f", w_err={row['error']:.4f}"
            lines.append(f"  {row['tag']}: {status}")
        return "\n".join(lines)


#: Ops that commute with a positive per-tensor activation scale, so int8
#: codes flow through them unchanged: max-pool (max of codes is the code
#: of the max) and ReLU (clipping codes at zero).
_SCALE_TRANSPARENT = (MaxPoolOp, ReluOp)


def _calibrate_edges(
    ops: List[_InferenceOp], x: np.ndarray, dtype
) -> List[float]:
    """Run one float forward, recording each inter-op edge's |x| peak.

    ``edge[i]`` is the absolute peak of the activation flowing *into*
    ``ops[i]`` (so a conv at position ``i`` reads its input range at
    ``edge[i]`` and its output range at ``edge[i + 1]``).
    """
    state = _ExecState(arena=Arena(), plans=PlanCache())
    if dtype is not None and x.dtype != np.dtype(dtype):
        x = x.astype(dtype)
    edges: List[float] = []
    cur = x
    for op in ops:
        edges.append(float(np.abs(cur).max()) if cur.size else 0.0)
        if isinstance(op, ConvOp) and op.wino_m:
            # Calibrate on the column GEMM: the Winograd operand would be
            # built only to be dropped with the float conv it belongs to.
            op = op.clone_with(wino_m=0)
        cur = op.run(cur, state)
    edges.append(float(np.abs(cur).max()) if cur.size else 0.0)
    return edges


@dataclass
class _LayerQuant:
    """One conv's eligibility verdict plus its (reused) weight codes."""

    ok: bool
    reason: str
    error: float
    codes: Optional[np.ndarray] = None  # weight or SPM-value codes
    scales: Optional[np.ndarray] = None  # (C_out,)


def _assess(op: _InferenceOp, config: QuantizationConfig) -> _LayerQuant:
    """Quantize a conv's weights once: eligibility verdict + the codes.

    The codes/scales computed for the error check are the same ones the
    lowering needs, so they ride along instead of being recomputed.
    """
    if not isinstance(op, ConvOp) or isinstance(op, QuantConvOp):
        return _LayerQuant(False, "not a conv", 0.0)
    op.prepare()  # codes quantize from the folded, cast weights
    if op.encoded is not None:
        codes, scales, error = quantize_encoded_values(op.encoded, config)
    else:
        codes, scales, error = quantize_weight_codes(op._weight_rows().T, config)
    if error > config.error_threshold:
        return _LayerQuant(
            False, f"weight error {error:.4f} > {config.error_threshold}", error
        )
    return _LayerQuant(True, "", error, codes=codes, scales=scales)


def _quantize_conv(
    op: ConvOp,
    config: QuantizationConfig,
    quant: _LayerQuant,
    in_scale: float,
    out_scale: Optional[float],
    dtype,
    kernel: Optional[str] = None,
) -> QuantConvOp:
    """Build the :class:`QuantConvOp` replacing a float :class:`ConvOp`.

    ``quant`` carries the weight codes/scales already computed by
    :func:`_assess`, so the weights are quantized exactly once.
    ``kernel`` is the resolved int8 GEMM kernel name (None for the
    float-carried datapath); with a true-integer kernel the bias never
    rides the GEMM operand (it is not an int8 code) — it is applied in
    code space after the integer accumulation instead. The float conv's
    winograd mark becomes an int8 auto marker, resolved by the int8
    tile rule (:func:`repro.runtime.winograd.int8_tile`): only
    F(2x2,3x3) keeps integer intermediates, and its exactness
    certificate (:meth:`QuantConvOp._wino_operand`) makes the result
    the column GEMM's integer accumulator. F(4x4)'s fractional
    transforms never run on codes, and a conv the rule keeps on the
    column GEMM records why in ``wino_note``.
    """
    carry = _carry_dtype(dtype)
    scales = quant.scales
    bias = op.epilogue.bias
    # The real bias divided by each column's fold-back scale.
    row = None if bias is None else (bias / (scales * in_scale)).astype(carry)[None, :]
    encoded = None
    codes_store = quant.codes
    if op.encoded is not None:
        from ..core.spm import EncodedLayer

        # Re-wrap the CODES as an EncodedLayer: the SPM artifact is the
        # value codes, decoded transiently when an operand is built, so
        # the dense float weight tensor is never materialised.
        encoded = EncodedLayer(
            codes=op.encoded.codes,
            values=quant.codes.astype(carry),
            codebook=op.encoded.codebook,
            shape=op.encoded.shape,
        )
        codes_store = None
    weight_t = None
    bias_rows = 0
    bias_q = None
    if kernel is not None:
        # The blocked kernel builds its span blocks from the codes on
        # first use. The bias is rounded to integer accumulator codes
        # (the classic int32-bias of integer inference) so it can fold
        # into the exact integer accumulation.
        bias_q = None if row is None else np.rint(row)
    else:
        # Float-carried codes are the column-GEMM operand, the bias
        # riding in it as a code-space row against the column buffer's
        # ones column, exactly like the float path.
        if encoded is None:
            rows = quant.codes.T
        else:
            from ..core import spm

            rows = _nhwc_rows(spm.decode_layer(encoded))
        if row is not None:
            rows = np.vstack([rows, row])
            bias_rows = 1
        weight_t = np.ascontiguousarray(rows, dtype=carry)
    # The winograd pass's mark becomes an int8 auto marker: the int8
    # tile rule resolves it from the first execution plan.
    wino_m, note = 0, ""
    if kernel is not None:
        from .winograd import int8_tile

        m, note = int8_tile(
            kernel=op.kernel, stride=op.stride, out_hw=None, c_in=op.c_in
        )
        if m and op.wino_m:
            wino_m = -1
        elif m:
            note = "float schedule is the column GEMM (winograd=False)"
    return QuantConvOp(
        wino_m=wino_m,
        wino_note=note,
        weight_t=weight_t,
        bias_rows=bias_rows,
        encoded=encoded,
        epilogue=op.epilogue,
        relu=op.relu,
        stride=op.stride,
        padding=op.padding,
        kernel=op.kernel,
        c_in=op.c_in,
        c_out=op.c_out,
        tag=op.tag,
        dtype=op.dtype,
        _prepared=True,  # the int8 operands above ARE the derived state
        w_scale=np.asarray(scales, dtype=np.float64)[None, :],
        in_scale=in_scale,
        out_scale=out_scale,
        qmax=config.qmax,
        codes_int8=codes_store,
        bias_q=bias_q,
        int8_kernel=kernel,
        emit_int8=kernel is not None,
    )


def quantize_pipeline(
    ops: List[_InferenceOp],
    dtype,
    calibration: np.ndarray,
    config: QuantizationConfig,
) -> Tuple[List[_InferenceOp], QuantizationReport]:
    """Rewrite a lowered float op list into its int8 execution form.

    Runs the calibration batch through the float ops once to record
    per-edge activation peaks, then walks the top-level op list tracking
    the activation domain (float vs codes): eligible convs become
    :class:`QuantConvOp` (requantizing straight to the next conv's code
    space in ``"requantize"`` mode), scale-transparent ops (max-pool,
    ReLU) pass codes through unchanged, and everything else — linears,
    average pools, residual blocks, module fallbacks, error-threshold
    fallbacks — gets :class:`QuantizeOp`/:class:`DequantizeOp`
    boundaries inserted around it. Returns the new op list and a
    :class:`QuantizationReport` with a row for every conv, the convs
    inside residual branches listed as float.
    """
    calibration = np.asarray(calibration)
    if calibration.ndim != 4 or calibration.shape[0] == 0:
        raise ValueError(
            "quantize= needs a non-empty (N, C, H, W) calibration batch "
            "to derive activation scales from"
        )
    calibration = calibration[: config.calibration_images]
    edges = _calibrate_edges(ops, calibration, dtype)
    qmax = config.qmax
    # One GEMM datapath for the whole pipeline: int8 codes only fit the
    # blocked kernel at <= 8 bits (wider codes take the float-carried
    # GEMM, which is exact for them in float64).
    kernel = config.kernel if config.bits <= 8 else "float"
    kernel_name = None if kernel == "float" else kernel
    carry_dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)

    assessed = {}
    report = QuantizationReport(
        bits=config.bits,
        granularity=config.granularity,
        mode=config.mode,
        error_threshold=config.error_threshold,
        int8_kernel=kernel,
    )
    for i, op in enumerate(ops):
        if isinstance(op, ConvOp):
            quant = _assess(op, config)
            assessed[i] = quant
            report.layers.append(
                {
                    "tag": op.tag,
                    "quantized": quant.ok,
                    "reason": quant.reason,
                    "error": quant.error,
                }
            )
        elif isinstance(op, ResidualOp):
            # The walk below keeps a residual op float as a whole, so
            # its branch convs are float layers too, named as such.
            report.layers.extend(
                {
                    "tag": conv.tag,
                    "quantized": False,
                    "reason": "inside a residual branch",
                    "error": None,
                }
                for conv in walk_ops([op])
                if isinstance(conv, ConvOp)
            )

    def scale_at(i: int) -> float:
        peak = edges[i]
        return peak / qmax if peak > 0 else 1.0

    def next_is_quant_conv(i: int) -> bool:
        j = i + 1
        while j < len(ops) and isinstance(ops[j], _SCALE_TRANSPARENT):
            j += 1
        return j < len(ops) and j in assessed and assessed[j].ok

    new_ops: List[_InferenceOp] = []
    domain_scale: Optional[float] = None  # None -> float domain
    boundary = 0
    for i, op in enumerate(ops):
        if i in assessed and assessed[i].ok:
            if domain_scale is None:
                in_scale = scale_at(i)
                new_ops.append(
                    QuantizeOp(
                        scale=in_scale,
                        qmax=qmax,
                        tag=f"q{boundary}",
                        int8=kernel_name is not None,
                    )
                )
                boundary += 1
            else:
                in_scale = domain_scale
            requant = config.mode == "requantize" and next_is_quant_conv(i)
            out_scale = scale_at(i + 1) if requant else None
            new_ops.append(
                _quantize_conv(
                    op, config, assessed[i], in_scale, out_scale, dtype,
                    kernel=kernel_name,
                )
            )
            domain_scale = out_scale
            continue
        if isinstance(op, _SCALE_TRANSPARENT) and domain_scale is not None:
            new_ops.append(op)  # codes flow through unchanged
            continue
        if domain_scale is not None:
            # Leaving the quantized region (requantize-mode tails only
            # reach here if a transparent op trails the last conv).
            new_ops.append(
                DequantizeOp(
                    scale=domain_scale, tag=f"q{boundary}", dtype=carry_dtype
                )
            )
            boundary += 1
            domain_scale = None
        new_ops.append(op)
    if domain_scale is not None:
        new_ops.append(
            DequantizeOp(scale=domain_scale, tag=f"q{boundary}", dtype=carry_dtype)
        )
    return new_ops, report
