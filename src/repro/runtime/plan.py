"""Execution plans and the plan cache for the conv runtime engine.

Planning a convolution — output geometry, tiling splits, gather-index
layout — depends only on *shapes* (input shape, weight shape, stride,
padding), never on the values flowing through. The engine therefore
separates the two: a :class:`PlanCache` memoizes one
:class:`ExecutionPlan` per distinct geometry (output size validated and
computed once), so repeated forward passes — batched inference,
compression sweeps, benchmark loops — pay the planning cost exactly
once.

Pattern *gather* indices (the ``col_idx`` arrays derived from SPM codes)
additionally depend on a layer's codes/codebook; those are cached on the
:class:`repro.core.spm.EncodedLayer` itself (see ``gather_plan()``), so
the plan cache here can stay purely geometric and never worries about
weight mutation or object identity reuse.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from ..nn.functional import conv_output_size

__all__ = ["ExecutionPlan", "PlanCache", "PlanCacheStats"]

PlanKey = Tuple[Any, ...]


@dataclass
class ExecutionPlan:
    """Memoized per-geometry convolution plan.

    Holds the validated im2col geometry of one conv shape. Plans
    are shared by every request with the same key, so any state added
    here must be derivable from the key's shapes alone — never from a
    particular layer's codebook or values (layer-dependent caches belong
    on the ``EncodedLayer``).
    """

    key: PlanKey
    batch: int
    in_channels: int
    out_channels: int
    kernel: Tuple[int, int]
    stride: int
    padding: int
    out_hw: Tuple[int, int]

    @property
    def windows(self) -> int:
        """Output rows of the im2col GEMM: ``N * OH * OW``."""
        oh, ow = self.out_hw
        return self.batch * oh * ow

    @property
    def im2col_elements(self) -> int:
        """Size of the full im2col matrix this geometry implies."""
        kh, kw = self.kernel
        return self.windows * self.in_channels * kh * kw

    @property
    def nbytes(self) -> int:
        """Workspace bytes this plan pins while cached.

        The plan object itself is a few hundred bytes; what a cached
        plan really *costs* is the im2col + output workspace the engine
        keeps warm in its arena for that geometry. Charging the implied
        float32 working set makes the cache's LRU byte-aware: a VGG
        conv2 plan (~37 MB of columns) weighs ~3000x a 4x4 toy plan
        instead of the same single slot.
        """
        return 4 * (self.im2col_elements + self.windows * self.out_channels)

    @classmethod
    def build(
        cls,
        key: PlanKey,
        x_shape: Tuple[int, int, int, int],
        weight_shape: Tuple[int, int, int, int],
        stride: int,
        padding: int,
    ) -> "ExecutionPlan":
        """Validate a conv geometry and build its plan (raises on a
        collapsed output size)."""
        n, c_in, h, w = x_shape
        c_out, _, kh, kw = weight_shape
        oh = conv_output_size(h, kh, stride, padding)
        ow = conv_output_size(w, kw, stride, padding)
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"convolution geometry collapses: input {h}x{w}, kernel "
                f"{kh}x{kw}, stride {stride}, padding {padding} -> {oh}x{ow}"
            )
        return cls(
            key=key,
            batch=n,
            in_channels=c_in,
            out_channels=c_out,
            kernel=(kh, kw),
            stride=stride,
            padding=padding,
            out_hw=(oh, ow),
        )


@dataclass
class PlanCacheStats:
    """Hit/miss accounting for a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes: int = 0  # implied workspace bytes of the currently cached plans

    @property
    def lookups(self) -> int:
        """Total cache probes (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes answered from cache (1.0 when warm)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` keyed by geometry.

    Keys are pure value tuples (shapes + stride/padding, plus a layout
    tag for the compiled pipeline's channels-last plans),
    so a cached plan can never go stale through weight mutation — only
    through an explicit :meth:`invalidate` / :meth:`clear`, which exist
    for callers that want deterministic re-planning (tests, benchmarks).

    Eviction is **byte-aware**: each plan is charged its implied
    workspace (:attr:`ExecutionPlan.nbytes`), and the LRU evicts while
    either the entry count exceeds ``maxsize`` *or* the summed charge
    exceeds ``max_bytes``. Entry-count-only eviction let sixteen
    VGG-sized geometries cost the same as sixteen 4x4 toys; under a
    fleet memory budget the byte charge is what matters. The most
    recently used plan is never evicted, so a single plan larger than
    ``max_bytes`` still serves (the budget degrades to one resident
    geometry rather than thrashing).
    """

    def __init__(self, maxsize: int = 256, max_bytes: Optional[int] = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._plans: "OrderedDict[PlanKey, ExecutionPlan]" = OrderedDict()
        self.stats = PlanCacheStats()
        # Plan caches are shared across the thread pool that
        # predict(workers=N) runs micro-batches on; the lock keeps the
        # LRU bookkeeping consistent (planning itself is pure, so a rare
        # duplicate build would only waste a few microseconds — the lock
        # mainly protects the OrderedDict reordering).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._plans

    @property
    def nbytes(self) -> int:
        """Summed implied-workspace charge of the cached plans."""
        return self.stats.bytes

    @property
    def object_nbytes(self) -> int:
        """Bytes of the cached plan objects themselves — what the cache
        holds when the workspace lives elsewhere (compiled arenas)."""
        with self._lock:
            plans = list(self._plans.values())
        return sum(sys.getsizeof(p) + sys.getsizeof(vars(p)) for p in plans)

    def _over_budget(self) -> bool:
        if len(self._plans) > self.maxsize:
            return True
        return self.max_bytes is not None and self.stats.bytes > self.max_bytes

    def get_or_build(
        self, key: PlanKey, builder: Callable[[], ExecutionPlan]
    ) -> ExecutionPlan:
        """Return the cached plan for ``key``, building (and caching)
        it via ``builder`` on a miss; thread-safe, LRU-evicting by
        entry count *and* byte charge."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stats.hits += 1
                self._plans.move_to_end(key)
                return plan
            self.stats.misses += 1
            plan = builder()
            self._plans[key] = plan
            self.stats.bytes += plan.nbytes
            while len(self._plans) > 1 and self._over_budget():
                _, evicted = self._plans.popitem(last=False)
                self.stats.bytes -= evicted.nbytes
                self.stats.evictions += 1
            return plan

    def invalidate(self, key: PlanKey) -> bool:
        """Drop one plan; returns whether it was present."""
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is not None:
                self.stats.bytes -= plan.nbytes
            return plan is not None

    def clear(self) -> int:
        """Drop every plan and reset the statistics; returns the byte
        charge released (fleet demotions feed this to the ledger)."""
        with self._lock:
            freed = self.stats.bytes
            self._plans.clear()
            self.stats = PlanCacheStats()
            return freed
