"""Sparsity Pattern Mask (SPM) — the paper's index format (Sec. II-A).

A layer pruned with PCNN stores, per kernel, (a) the ``n`` non-zero weight
values in kernel-position order and (b) one SPM *code*: an integer index
into the layer's pattern codebook ``P_l``. The codebook is small (4-32
patterns after distillation), so the code costs ``ceil(log2(|P_l|))`` bits
per *kernel* — versus CSC's ~4 bits per *weight* (EIE [12]), which is where
PCNN's index-overhead advantage (last columns of Tables I-III) comes from.

:class:`SPMCodebook` is the software model of the "SPM mapping table" that
the hardware's Pattern Config block provides to the decoder (Fig. 3a).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .patterns import (
    best_pattern_indices,
    pattern_positions,
    patterns_to_bit_matrix,
    popcount,
)

__all__ = [
    "SPMCodebook",
    "PatternGatherPlan",
    "EncodedLayer",
    "encode_layer",
    "decode_layer",
]


class SPMCodebook:
    """Mapping between SPM codes and patterns for one layer.

    Parameters
    ----------
    patterns:
        The distilled pattern set ``P_l`` (bitmasks). All patterns must
        share the same popcount — PCNN keeps kernel sparsity identical
        within a layer so non-zero sequences have equal length (Sec. II-A).
    kernel_size:
        Spatial kernel size (3 for every pruned layer in the paper).
    """

    def __init__(self, patterns: Sequence[int], kernel_size: int = 3) -> None:
        patterns = np.array(sorted(int(p) for p in patterns), dtype=np.int64)
        if len(patterns) == 0:
            raise ValueError("codebook needs at least one pattern")
        if len(np.unique(patterns)) != len(patterns):
            raise ValueError("duplicate patterns in codebook")
        counts = popcount(patterns)
        if len(np.unique(counts)) != 1:
            raise ValueError(
                "PCNN requires identical sparsity within a layer; "
                f"got popcounts {sorted(set(counts.tolist()))}"
            )
        self.kernel_size = kernel_size
        self.patterns = patterns
        self.n_nonzero = int(counts[0])
        self._code_of: Dict[int, int] = {int(p): i for i, p in enumerate(patterns)}

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, pattern: int) -> bool:
        return int(pattern) in self._code_of

    @property
    def index_bits(self) -> int:
        """Bits per SPM code: ``ceil(log2(|P_l|))``, minimum 1.

        Delegates to :func:`repro.core.compression.spm_index_bits` — the
        single definition of the formula, so the codebook and the
        compression accounting can never drift apart.
        """
        from .compression import spm_index_bits

        return spm_index_bits(len(self.patterns))

    def code(self, pattern: int) -> int:
        """SPM code of a pattern (KeyError if not in the codebook)."""
        return self._code_of[int(pattern)]

    def pattern(self, code: int) -> int:
        """Pattern for an SPM code — the hardware decoder's lookup."""
        return int(self.patterns[code])

    def decode_mask(self, code: int) -> np.ndarray:
        """9-bit weight mask for a code, as the Pattern Decoder emits."""
        bits = patterns_to_bit_matrix(self.patterns[code : code + 1], self.kernel_size)
        return bits[0]


# Serialises the memoized-cache builds below: several inference
# threads may hit a layer's first forward at once, and each would
# otherwise build (and keep referencing) its own copy.
_memo_lock = threading.Lock()


@dataclass
class PatternGatherPlan:
    """Precomputed im2col gather geometry for one encoded layer.

    ``positions_by_code[g]`` holds pattern ``g``'s ``n`` kernel positions
    (decoded once per code, never per forward call) — the index state the
    eager SPM conv reads on every execution. ``col_idx()``
    expands it to the per-kernel view for gather-style consumers:
    ``col_idx[k, j]`` is the im2col column holding the activation that
    multiplies ``values[k, j]``, i.e. ``channel(k) * k^2 +
    positions_by_code[code_k, j]`` (kernel ``k`` is ``(filter, channel) =
    divmod(k, C_in)``). It is derived on demand — a pure function of the
    cached fields, so there is no second cache to keep in sync.
    """

    positions_by_code: np.ndarray  # (|P|, n) int64 kernel positions per code
    codes: np.ndarray  # (kernels,) SPM code per kernel
    c_in: int
    n: int
    k2: int

    def col_idx(self) -> np.ndarray:
        """(kernels, n) int64 im2col gather column per stored value."""
        channels = np.arange(len(self.codes), dtype=np.int64) % self.c_in
        return channels[:, None] * self.k2 + self.positions_by_code[self.codes]


@dataclass
class EncodedLayer:
    """A layer's weights in PCNN storage format.

    Attributes
    ----------
    codes:
        ``(kernels,)`` SPM code per kernel.
    values:
        ``(kernels, n)`` non-zero values in kernel-position order — the
        equal-length "non-zero sequences" of Fig. 1.
    codebook:
        The layer's :class:`SPMCodebook`.
    shape:
        Original weight shape ``(C_out, C_in, k, k)``.
    """

    codes: np.ndarray
    values: np.ndarray
    codebook: SPMCodebook
    shape: Tuple[int, int, int, int]
    _gather_plan: Optional[PatternGatherPlan] = field(
        default=None, repr=False, compare=False
    )
    _grouped_weights: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_kernels(self) -> int:
        return len(self.codes)

    def gather_plan(self) -> PatternGatherPlan:
        """Cached im2col gather indices for the pattern-sparse conv.

        Pattern positions are decoded once per *code* and broadcast to
        kernels through the codes array; the result is memoized on the
        layer so repeated forward passes (the runtime engine's hot path)
        never repeat the index math. The layer treats codes, values and
        codebook as immutable after encoding; if you mutate them anyway,
        call :meth:`invalidate_caches`.
        """
        if self._gather_plan is None:
            with _memo_lock:
                if self._gather_plan is None:
                    c_out, c_in, kh, kw = self.shape
                    k2 = kh * kw
                    n = self.codebook.n_nonzero
                    positions_by_code = np.array(
                        [
                            pattern_positions(self.codebook.pattern(code), kh)
                            for code in range(len(self.codebook))
                        ],
                        dtype=np.int64,
                    ).reshape(len(self.codebook), n)
                    self._gather_plan = PatternGatherPlan(
                        positions_by_code=positions_by_code,
                        codes=self.codes,
                        c_in=c_in,
                        n=n,
                        k2=k2,
                    )
        return self._gather_plan

    def grouped_weight_matrix(self) -> np.ndarray:
        """Cached ``(|P| * C_in * n, C_out)`` grouped-contraction weights.

        The paper's central regularity claim, in matrix form: because all
        kernels sharing an SPM code read the same ``n`` positions, the
        layer's convolution is ``A @ B`` where ``A`` gathers the
        ``|P| * n`` pattern positions per input channel from the im2col
        matrix and ``B`` scatters each kernel's non-zero sequence into
        its ``(code, channel)`` block — zeros everywhere a kernel belongs
        to a different group. One BLAS GEMM replaces per-pattern Python
        loops; built once per layer and memoized.
        """
        if self._grouped_weights is None:
            with _memo_lock:
                if self._grouped_weights is None:
                    c_out, c_in, kh, kw = self.shape
                    n = self.codebook.n_nonzero
                    num_patterns = len(self.codebook)
                    kernels = np.arange(self.num_kernels)
                    grouped = np.zeros(
                        (num_patterns, c_in, n, c_out), dtype=self.values.dtype
                    )
                    channel, column = kernels % c_in, kernels // c_in
                    grouped[self.codes, channel, :, column] = self.values
                    self._grouped_weights = grouped.reshape(-1, c_out)
        return self._grouped_weights

    def invalidate_caches(self) -> int:
        """Drop cached gather/weight state after mutating the layer.

        Returns the cache bytes released (see :meth:`cached_nbytes`) so
        a fleet residency ledger can account the reclaim.
        """
        freed = self.cached_nbytes
        self._gather_plan = None
        self._grouped_weights = None
        return freed

    @property
    def nbytes(self) -> int:
        """Bytes of the owned storage format: codes + non-zero values."""
        return int(self.codes.nbytes + self.values.nbytes)

    @property
    def cached_nbytes(self) -> int:
        """Bytes of the memoized *derived* state (gather plan positions,
        grouped GEMM operand) — the reclaimable part; the storage format
        itself (:attr:`nbytes`) stays."""
        total = 0
        if self._gather_plan is not None:
            total += int(self._gather_plan.positions_by_code.nbytes)
        if self._grouped_weights is not None:
            total += int(self._grouped_weights.nbytes)
        return total

    @property
    def weight_bits_per_kernel(self) -> int:
        """Non-zero payload bits per kernel at 32-bit storage."""
        return self.values.shape[1] * 32

    def storage_bits(self, weight_bits: int = 32) -> int:
        """Total storage: values + one SPM code per kernel."""
        return self.values.size * weight_bits + self.num_kernels * self.codebook.index_bits


def encode_layer(weight: np.ndarray, codebook: SPMCodebook) -> EncodedLayer:
    """Encode a (already pattern-pruned or dense) conv weight with SPM.

    Each kernel is matched to its nearest codebook pattern (max retained
    energy — the projection of Eq. (1)); values outside the pattern are
    dropped. For weights that were hard-pruned onto codebook patterns this
    is exact (lossless).
    """
    c_out, c_in, kh, kw = weight.shape
    if kh != kw or kh != codebook.kernel_size:
        raise ValueError(f"kernel size mismatch: weight {kh}x{kw} vs codebook {codebook.kernel_size}")
    kernels = weight.reshape(-1, kh * kw)
    indices = best_pattern_indices(kernels, codebook.patterns, codebook.kernel_size)
    bits = patterns_to_bit_matrix(codebook.patterns, codebook.kernel_size).astype(bool)
    n = codebook.n_nonzero
    # Boolean-mask selection walks rows in order and each row's True
    # positions in kernel-position order — exactly the non-zero sequence
    # layout, with no per-kernel Python loop.
    values = kernels[bits[indices]].reshape(len(kernels), n).astype(weight.dtype, copy=False)
    return EncodedLayer(
        codes=indices.astype(np.int64),
        values=values,
        codebook=codebook,
        shape=(c_out, c_in, kh, kw),
    )


def decode_layer(encoded: EncodedLayer) -> np.ndarray:
    """Reconstruct the dense (pruned) weight tensor from SPM storage.

    This is the software model of the hardware "kernel restore" stage
    (Fig. 5, data pre-process): scatter each kernel's non-zero sequence
    back to the positions given by its decoded weight mask.
    """
    c_out, c_in, kh, kw = encoded.shape
    bits = patterns_to_bit_matrix(encoded.codebook.patterns, kh).astype(bool)
    kernels = np.zeros((encoded.num_kernels, kh * kw), dtype=encoded.values.dtype)
    kernels[bits[encoded.codes]] = encoded.values.ravel()
    return kernels.reshape(c_out, c_in, kh, kw)
