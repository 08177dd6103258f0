"""Dynamic request batching: coalesce single images into micro-batches.

Single-image requests are the unit of traffic a model server receives;
micro-batches are the unit the compiled pipeline is fast at (one GEMM
amortises im2col, plan lookup and Python dispatch over every image in
the chunk — the batching discipline accelerator papers assume at
deployment). :class:`Batcher` bridges the two: requests enqueue, a
flush driver coalesces them under a ``max_batch`` / ``max_latency_ms``
policy, and one runner call serves the whole flush.

A batcher can be driven two ways:

- **Standalone** (``start()`` with no scheduler attached): a private
  worker thread coalesces and flushes, exactly the pre-fleet behaviour.
- **Scheduled** (registered with a
  :class:`~repro.serving.scheduler.FlushScheduler`): the batcher only
  *queues*; the central scheduler decides when its flush fires relative
  to every other tenant's, weighted by :attr:`weight`. The queue/due
  bookkeeping (:meth:`next_due`, :meth:`flush_once`) is the contract
  between the two.

Two details matter for the compiled pipeline underneath:

- **Bucketed flush sizes.** Arena buffers and execution plans are keyed
  by batch geometry, so every distinct flush size a serving loop
  produces would keep its own full buffer set alive. The batcher
  therefore pads each flush up to the next power-of-two bucket (capped
  at ``max_batch``) and slices the result — a handful of geometries
  total, all of which :meth:`warmup` can prebuild before traffic
  arrives.
- **Latency is bounded by the first request.** The flush deadline
  starts when the *first* request of a batch arrives; a lone request
  never waits longer than ``max_latency_ms`` for company.

Production robustness lives here too:

- **Admission control** (``max_queue``): an unbounded queue turns
  overload into unbounded latency — every request is eventually served,
  long after its caller gave up. A bounded queue turns it into fast
  rejection instead: past the high-water mark :meth:`submit` raises
  :class:`QueueFull` carrying a ``retry_after`` hint derived from the
  current drain rate, which HTTP maps to ``429 + Retry-After``.
- **Rate quotas** (``rate``): a per-tenant token bucket at admission.
  A tenant pushing past its contracted requests/second gets
  :class:`QuotaExceeded` (HTTP 429, kind ``quota_exceeded``) before its
  traffic can queue at all — overload from one tenant never reaches
  the shared scheduler as backlog.
- **SLO deadlines** (``slo_ms``): each request carries an admission
  timestamp; the coalescing deadline tightens so a flush fires before
  the *oldest* request's deadline (minus the recent flush cost), and
  requests that already blew their SLO while queued are failed with
  :class:`SLOExpired` (HTTP 503) at flush assembly instead of wasting a
  batch slot on an answer nobody is waiting for.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from .stats import ServerStats

__all__ = [
    "Batcher",
    "BatcherClosed",
    "QueueFull",
    "QuotaExceeded",
    "SLOExpired",
    "bucket_sizes",
]


class BatcherClosed(RuntimeError):
    """Submit on a stopped (or stopping) batcher — nothing will flush it."""


class QueueFull(RuntimeError):
    """Admission control shed the request: queue past its high-water mark.

    ``retry_after`` is the estimated seconds until the queue drains back
    below the mark at the current service rate — the value behind the
    HTTP ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class QuotaExceeded(RuntimeError):
    """The tenant's rate quota shed the request at admission.

    Distinct from :class:`QueueFull` so operators (and the HTTP error
    body, kind ``quota_exceeded``) can tell "the server is busy" apart
    from "this tenant is over its contract". ``retry_after`` is when
    the token bucket earns the next token back.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class SLOExpired(RuntimeError):
    """The request's latency SLO expired while it waited in the queue."""


def bucket_sizes(max_batch: int) -> List[int]:
    """Power-of-two flush buckets up to and including ``max_batch``."""
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    sizes = []
    b = 1
    while b < max_batch:
        sizes.append(b)
        b *= 2
    sizes.append(max_batch)
    return sizes


@dataclass
class _Request:
    """One queued image plus its completion future.

    ``deadline`` is the absolute SLO deadline on the ``perf_counter``
    clock (``inf`` when the batcher has no SLO), fixed at admission.
    """

    x: np.ndarray
    future: "Future[np.ndarray]" = field(default_factory=Future)
    submitted: float = field(default_factory=time.perf_counter)
    deadline: float = math.inf


class Batcher:
    """Queue single-image requests and serve them in coalesced batches.

    Parameters
    ----------
    runner:
        Callable taking a stacked ``(B, ...)`` batch and returning the
        ``(B, ...)`` outputs — typically
        ``lambda x: runtime.predict(compiled, x, workers=N)``.
    max_batch:
        Largest coalesced batch; also the largest bucket geometry.
    max_latency_ms:
        How long the flush driver waits for more requests after the
        first one of a batch arrives.
    stats:
        Optional shared :class:`ServerStats`; one is created otherwise.
    bucket:
        Pad flushes to power-of-two buckets (see module docstring).
        Disable only when the runner is geometry-insensitive.
    max_queue:
        Admission-control high-water mark: :meth:`submit` raises
        :class:`QueueFull` (HTTP 429) once this many requests are
        already waiting. ``None`` (default) keeps the queue unbounded.
    slo_ms:
        Per-request latency SLO. Flushes fire early so the oldest queued
        request still makes its deadline, and requests that blew the SLO
        while queued are failed with :class:`SLOExpired` (HTTP 503) at
        flush assembly. ``None`` disables deadline handling.
    weight:
        Fair-share weight under a :class:`FlushScheduler`: tenants
        receive throughput proportional to their weights when
        saturated. Ignored in standalone mode.
    rate:
        Per-tenant rate quota in requests/second (token bucket with a
        one-second burst allowance); over-quota submits raise
        :class:`QuotaExceeded`. ``None`` disables the quota.
    """

    def __init__(
        self,
        runner: Callable[[np.ndarray], np.ndarray],
        *,
        max_batch: int = 32,
        max_latency_ms: float = 2.0,
        stats: Optional[ServerStats] = None,
        bucket: bool = True,
        max_queue: Optional[int] = None,
        slo_ms: Optional[float] = None,
        weight: float = 1.0,
        rate: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        if slo_ms is not None and slo_ms <= 0:
            raise ValueError("slo_ms must be > 0 (or None to disable)")
        if weight <= 0:
            raise ValueError("weight must be > 0")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be > 0 requests/second (or None)")
        self.runner = runner
        self.max_batch = max_batch
        self.max_latency = max_latency_ms / 1e3
        self.stats = stats if stats is not None else ServerStats()
        self.bucket = bucket
        self.max_queue = max_queue
        self.slo = None if slo_ms is None else slo_ms / 1e3
        self.weight = float(weight)
        self.rate = None if rate is None else float(rate)
        self._items: Deque[_Request] = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._worker: Optional[threading.Thread] = None
        self._started = False  # scheduled mode's "running" latch
        self._stopping = False
        #: Set by FlushScheduler.register(); a registered batcher's
        #: start() arms the scheduler instead of spawning a thread.
        self._scheduler = None
        # Token bucket for the rate quota: one second of burst, floored
        # at one token so sub-1/s quotas can ever admit a request.
        self._burst = max(1.0, self.rate) if self.rate is not None else 0.0
        self._tokens = self._burst
        self._token_stamp = time.perf_counter()
        #: EMA of recent flush wall time, used to fire SLO flushes early
        #: enough that the flush itself still fits inside the deadline.
        self._flush_cost = 0.0

    # -- lifecycle -----------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether submits will be flushed (thread alive, or armed on a
        running scheduler)."""
        if self._scheduler is not None:
            return self._started and not self._stopping
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "Batcher":
        """Arm the batcher (idempotent); returns self.

        Standalone: starts the private coalescing thread. Scheduled:
        marks the batcher live so the scheduler may dispatch its
        flushes.
        """
        scheduler = self._scheduler
        with self._lock:
            if self.running:
                return self
            self._stopping = False
            if scheduler is not None:
                self._started = True
            else:
                self._worker = threading.Thread(
                    target=self._loop, name="repro-batcher", daemon=True
                )
                self._worker.start()
        if scheduler is not None:
            scheduler.wake()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop flushing; by default serve everything already queued.

        Works in every mode: standalone (joins the private thread),
        scheduled (quiesces the in-flight dispatch; ``next_due()``
        returns ``None`` while stopping so no new one starts), and
        *detached* — a batcher whose scheduler registration was taken
        over by a hot-reload replacement still drains its queue inline.
        """
        scheduler = self._scheduler
        with self._lock:
            if (
                scheduler is None
                and self._worker is None
                and not self._started
                and not self._items
            ):
                return  # never armed, nothing queued
            self._stopping = True
            self._started = False
            worker = self._worker
            self._cond.notify_all()
        if worker is not None:
            worker.join()
            with self._lock:
                self._worker = None
        if scheduler is not None:
            scheduler.quiesce(self)
        if drain:
            self._drain_pending()
        else:
            self._fail_pending(BatcherClosed("batcher stopped"))

    def __enter__(self) -> "Batcher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client API ----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush (approximate)."""
        return len(self._items)

    def retry_after_estimate(self) -> float:
        """Seconds until the queue drains below the high-water mark.

        Derived from the recent completion-rate window: ``depth / rate``
        is how long the backlog takes to serve at the current pace. With
        no observed rate yet (cold server) the coalescing latency bound
        is the only honest guess.
        """
        depth = len(self._items)
        rate = self.stats.requests_per_second
        if rate > 0:
            estimate = depth / rate
        else:
            estimate = max(self.max_latency * 2, 0.05)
        return min(30.0, max(0.05, estimate))

    def _take_token(self) -> None:
        """Charge the rate-quota token bucket (lock held); raises
        :class:`QuotaExceeded` when the tenant is over its contract."""
        now = time.perf_counter()
        self._tokens = min(
            self._burst, self._tokens + (now - self._token_stamp) * self.rate
        )
        self._token_stamp = now
        if self._tokens < 1.0:
            self.stats.record_shed("quota")
            raise QuotaExceeded(
                f"tenant over its {self.rate:g} req/s rate quota",
                retry_after=(1.0 - self._tokens) / self.rate,
            )
        self._tokens -= 1.0

    def submit(self, x: np.ndarray) -> "Future[np.ndarray]":
        """Enqueue one image; resolves to its single output row.

        Raises :class:`BatcherClosed` on a stopped/stopping batcher
        (nothing would ever flush the request), :class:`QuotaExceeded`
        when the tenant's rate quota sheds it, and :class:`QueueFull`
        when admission control sheds it (queue past ``max_queue``).
        """
        # The check and the append happen under the same lock stop()
        # takes, so a request can never slip onto the queue after stop()
        # has drained it (which would leave its future unresolved
        # forever).
        with self._lock:
            if self._stopping or not self.running:
                raise BatcherClosed("batcher is not running (call start())")
            if self.rate is not None:
                self._take_token()
            if self.max_queue is not None and len(self._items) >= self.max_queue:
                self.stats.record_shed("queue_full")
                raise QueueFull(
                    f"queue at high-water mark ({self.max_queue} waiting)",
                    retry_after=self.retry_after_estimate(),
                )
            request = _Request(x=np.asarray(x))
            if self.slo is not None:
                request.deadline = request.submitted + self.slo
            self._items.append(request)
            self._cond.notify_all()
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.wake()
        return request.future

    def __call__(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous convenience: submit and wait for the result."""
        return self.submit(x).result(timeout=timeout)

    # -- scheduler contract --------------------------------------------
    def next_due(self) -> Optional[float]:
        """When the queued work should flush, on the perf_counter clock.

        ``None`` means "nothing to schedule" (empty, or stopping). A
        full batch is due immediately (0.0); otherwise the due time is
        the first request's coalescing deadline, tightened by the SLO
        margin exactly like the standalone collect loop.
        """
        with self._lock:
            if not self._items or self._stopping or not self._started:
                return None
            if len(self._items) >= self.max_batch:
                return 0.0
            first = self._items[0]
            due = first.submitted + self.max_latency
            if self.slo is not None:
                due = min(due, first.deadline - self._flush_cost)
            return due

    def oldest_deadline(self) -> float:
        """Absolute SLO deadline of the oldest queued request (``inf``
        without an SLO or queued work) — the scheduler's EDF key."""
        with self._lock:
            if self.slo is None or not self._items:
                return math.inf
            return self._items[0].deadline

    def slo_urgent(self, now: Optional[float] = None) -> bool:
        """Whether the oldest request is at risk of blowing its SLO —
        the scheduler serves urgent tenants before fair-share order."""
        deadline = self.oldest_deadline()
        if deadline is math.inf:
            return False
        if now is None:
            now = time.perf_counter()
        return deadline - now <= max(2.0 * self._flush_cost, 1e-3)

    def flush_once(self) -> int:
        """Collect whatever is queued (never waiting) and flush it.

        The scheduler's dispatch primitive. Returns the number of
        requests the flush actually dispatched (its fairness charge);
        0 when the queue was empty or every request was cancelled/shed.
        """
        with self._lock:
            batch: List[_Request] = []
            while self._items and len(batch) < self.max_batch:
                batch.append(self._items.popleft())
        if not batch:
            return 0
        return self._flush(batch)

    # -- worker --------------------------------------------------------
    def _bucket_size(self, size: int) -> int:
        if not self.bucket or size >= self.max_batch:
            return size
        # Single source of truth with warmup: the smallest bucket from
        # bucket_sizes() that fits, so every flush geometry is one the
        # server prebuilt.
        return min(b for b in bucket_sizes(self.max_batch) if b >= size)

    def _collect(self, first: _Request) -> List[_Request]:
        """Coalesce: wait up to the deadline for up to max_batch peers.

        The deadline is anchored to when the first request was
        *submitted*, not dequeued — a request that already waited out
        its latency budget behind a slow flush is served immediately
        (plus whatever is already queued, which rides along for free).
        """
        batch = [first]
        deadline = first.submitted + self.max_latency
        if self.slo is not None:
            # Fire early enough that the flush itself (recent-cost EMA)
            # still lands inside the oldest request's SLO. ``first`` is
            # the oldest — the queue is FIFO.
            deadline = min(deadline, first.deadline - self._flush_cost)
        with self._cond:
            while len(batch) < self.max_batch:
                if self._items:
                    # Already queued work rides along for free, past the
                    # deadline included.
                    batch.append(self._items.popleft())
                    continue
                if self._stopping:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        return batch

    def _shed_expired(self, batch: List[_Request]) -> List[_Request]:
        """Fail SLO-blown requests with 503 before they cost a batch slot.

        A request whose deadline passed while it queued has a caller
        that (per the SLO contract) already gave up — serving it wastes
        a slot a live request could use. Runs at flush assembly, so the
        shed happens *before* the stack/pad/GEMM work.
        """
        if self.slo is None:
            return batch
        now = time.perf_counter()
        live = []
        for request in batch:
            if request.deadline < now:
                self.stats.record_shed("slo")
                request.future.set_exception(
                    SLOExpired(
                        f"request exceeded its {self.slo * 1e3:.0f} ms SLO "
                        f"after {(now - request.submitted) * 1e3:.0f} ms queued"
                    )
                )
            else:
                live.append(request)
        return live

    def _flush(self, batch: List[_Request]) -> int:
        """Serve one coalesced batch; returns the requests dispatched."""
        # Transition every future to RUNNING first: a future cancelled
        # while queued is dropped here, and the rest can no longer be
        # cancelled — so the set_result/set_exception calls below can
        # never raise InvalidStateError and kill the flush driver.
        batch = [r for r in batch if r.future.set_running_or_notify_cancel()]
        batch = self._shed_expired(batch)
        if not batch:
            return 0
        size = len(batch)
        try:
            x = np.stack([r.x for r in batch])
            target = self._bucket_size(size)
            if target > size:
                pad = np.zeros((target - size,) + x.shape[1:], dtype=x.dtype)
                x = np.concatenate([x, pad])
            start = time.perf_counter()
            for request in batch:
                self.stats.record_queue_wait(start - request.submitted)
            out = self.runner(x)
            seconds = time.perf_counter() - start
            if out.shape[0] != x.shape[0]:
                raise RuntimeError(
                    f"runner returned {out.shape[0]} rows for a "
                    f"{x.shape[0]}-image batch"
                )
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            self.stats.record_error(size)
            for request in batch:
                request.future.set_exception(error)
            return size
        self.stats.record_batch(size, seconds)
        self._flush_cost = (
            seconds if self._flush_cost == 0.0
            else 0.8 * self._flush_cost + 0.2 * seconds
        )
        done = time.perf_counter()
        for index, request in enumerate(batch):
            request.future.set_result(out[index])
            self.stats.record_request(done - request.submitted)
        return size

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._items and not self._stopping:
                    self._cond.wait()
                if self._stopping:
                    # Leftovers are drained inline by stop().
                    return
                first = self._items.popleft()
            self._flush(self._collect(first))

    def _drain_pending(self) -> None:
        """Serve whatever is still queued after the flush driver exited."""
        with self._lock:
            pending = list(self._items)
            self._items.clear()
        for lo in range(0, len(pending), self.max_batch):
            self._flush(pending[lo : lo + self.max_batch])

    def _fail_pending(self, error: BaseException) -> None:
        with self._lock:
            pending = list(self._items)
            self._items.clear()
        for item in pending:
            if item.future.set_running_or_notify_cancel():
                self.stats.record_error()
                item.future.set_exception(error)
