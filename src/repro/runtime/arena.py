"""Preallocated workspace arenas for the compiled inference pipeline.

An :class:`Arena` owns the buffers one thread's compiled forwards draw
from, so a warm serving loop does zero large allocations. It hands out
two kinds of storage:

- **Per-tag buffers** (:meth:`Arena.take`, :meth:`Arena.take_filled`),
  keyed by ``(tag, shape, dtype)``: an op's live activation (``:out``)
  and the zero-bordered input it shares with its producer (``:pad``).
  Their contents outlive the op that wrote them, so every op owns its
  own.
- **Role slabs** (:meth:`Arena.scratch`): one flat slab per buffer
  *role* — im2col columns, GEMM accumulators, Winograd transform
  buffers — shared by every op of the thread and grown to the largest
  request. An op's scratch is dead once its thunk returns, and one
  thread runs its thunks one after another, so ops that share a slab
  never overlap in time.

:meth:`take_filled` fills a per-tag buffer with a constant exactly once
at allocation. That is the padding trick: a conv's zero-padded input
buffer is zeroed once, then every call only overwrites the interior
region — the border stays zero forever without a per-call ``np.pad``.
Slabs carry no such guarantee: whatever a role needs preset, the op
writes on every call.

Arenas are deliberately **not** thread-safe: concurrent micro-batches
(``predict(..., workers=N)``) each run on their own thread-local arena
(see :class:`repro.runtime.compile.CompiledModel`), which also keeps
buffer reuse free of cross-request aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["Arena", "ArenaStats"]

ArenaKey = Tuple[str, Tuple[int, ...], np.dtype]


@dataclass
class ArenaStats:
    """Allocation accounting for one :class:`Arena`."""

    allocations: int = 0
    reuses: int = 0
    bytes_allocated: int = 0

    @property
    def requests(self) -> int:
        """Total buffer requests served (allocations + reuses)."""
        return self.allocations + self.reuses

    @property
    def reuse_rate(self) -> float:
        """Fraction of requests served from an existing buffer;
        approaches 1.0 once a serving loop is warm."""
        return self.reuses / self.requests if self.requests else 0.0


class Arena:
    """Reusable per-tag buffers plus one shared slab per scratch role.

    Per-tag buffers (one per compiled op and purpose) never alias each
    other — the guarantee the compiled executor's in-place epilogues and
    halo hand-offs rely on. Role slabs alias on purpose: every op's
    ``scratch("cols", ...)`` is a view of the same slab (see the module
    docstring for why that is safe). ``growths`` counts how often a slab
    was replaced by a larger one after it had been handed out; views
    bound before such a growth still pin the smaller slab, so whoever
    keeps bound views (``CompiledModel``'s traces) drops them.
    """

    def __init__(self) -> None:
        self._buffers: Dict[ArenaKey, np.ndarray] = {}
        self._slabs: Dict[str, np.ndarray] = {}
        self.growths = 0
        self.stats = ArenaStats()

    def __len__(self) -> int:
        return len(self._buffers) + len(self._slabs)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return self.tagged_nbytes + sum(self.slab_sizes().values())

    @property
    def tagged_nbytes(self) -> int:
        """Bytes of the per-tag buffers (activations and pad targets)."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def slab_sizes(self) -> Dict[str, int]:
        """Current byte size of each role's slab."""
        return {role: slab.nbytes for role, slab in self._slabs.items()}

    def _count(self, nbytes: int) -> None:
        self.stats.allocations += 1
        self.stats.bytes_allocated += nbytes

    def _get(self, tag: str, shape: Tuple[int, ...], dtype, factory) -> np.ndarray:
        """Cache lookup + allocation/stats bookkeeping shared by take*."""
        key = (tag, tuple(shape), np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = factory(key[1], key[2])
            self._buffers[key] = buffer
            self._count(buffer.nbytes)
        else:
            self.stats.reuses += 1
        return buffer

    @staticmethod
    def _new_slab(nbytes: int) -> np.ndarray:
        return np.empty(nbytes, dtype=np.uint8)

    def scratch(self, role: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape``/``dtype`` view of the shared slab for ``role``.

        The slab grows (is replaced) when a request outgrows it.
        Contents are undefined: whatever the previous user of the role
        left behind — callers must overwrite what they read, on every
        call.
        """
        dtype = np.dtype(dtype)
        shape = tuple(shape)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        slab = self._slabs.get(role)
        if slab is None or slab.nbytes < nbytes:
            if slab is not None:
                self.growths += 1
            slab = self._slabs[role] = self._new_slab(nbytes)
            self._count(nbytes)
        else:
            self.stats.reuses += 1
        return slab[:nbytes].view(dtype).reshape(shape)

    def take(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """Return the reusable buffer for ``(tag, shape, dtype)``.

        Contents are undefined on first allocation and whatever the last
        user left behind afterwards — callers must overwrite fully.
        """
        return self._get(tag, shape, dtype, np.empty)

    def take_filled(
        self, tag: str, shape: Tuple[int, ...], dtype, fill: float
    ) -> np.ndarray:
        """Like :meth:`take`, but filled with ``fill`` once at allocation.

        Callers that only ever write an interior sub-region (padded conv
        inputs, -inf-padded pool inputs) get constant borders for free on
        every reuse.
        """
        return self._get(tag, shape, dtype, lambda s, d: np.full(s, fill, dtype=d))

    def padded(self, tag: str, x: np.ndarray, padding: int) -> np.ndarray:
        """Zero-padded copy of ``x`` in a reused buffer (NCHW, symmetric).

        The border is zeroed once at allocation; each call copies only the
        interior, replacing a per-call ``np.pad`` with a single memcpy.
        """
        if padding <= 0:
            return x
        n, c, h, w = x.shape
        buffer = self.take_filled(
            tag, (n, c, h + 2 * padding, w + 2 * padding), x.dtype, 0.0
        )
        buffer[:, :, padding : padding + h, padding : padding + w] = x
        return buffer

    def release(self, tag: Optional[str] = None) -> int:
        """Drop all buffers and slabs, or only the buffers under ``tag``.

        Returns the bytes released, so residency demotion can reconcile
        its ledger against what actually came off the heap.
        """
        if tag is None:
            freed = self.nbytes
            self._buffers.clear()
            self._slabs.clear()
            return freed
        freed = 0
        for key in [k for k in self._buffers if k[0] == tag]:
            freed += self._buffers[key].nbytes
            del self._buffers[key]
        return freed
