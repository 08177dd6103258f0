"""Serving-side observability: latency percentiles, batch histograms.

:class:`ServerStats` is the accounting object every served model carries.
The batcher feeds it one record per coalesced flush (batch size + model
seconds) and one record per request (end-to-end latency, queue wait
included); snapshots expose the numbers a capacity planner actually
reads — p50/p95/p99 latency, request throughput, and the coalesced
batch-size histogram that shows whether dynamic batching is doing
anything at all (mean batch 1.0 means it is not).

All methods are thread-safe: the batcher worker, HTTP handler threads
and stats scrapers all touch the same object.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Optional

import numpy as np

__all__ = ["ServerStats", "LATENCY_BUCKETS"]

#: Latency reservoir size. Percentiles are computed over the most recent
#: window rather than all-time, so a warm-up spike ages out of p99.
DEFAULT_WINDOW = 8192

#: Cumulative-histogram bucket upper bounds in seconds, Prometheus
#: convention (each bucket counts requests at or below its bound; the
#: implicit ``+Inf`` bucket equals the total request count). Spans the
#: sub-millisecond in-process path up to requests that sat out a full
#: overload queue.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0
)


class ServerStats:
    """Rolling serving statistics for one batched endpoint."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=window)
        self._queue_waits: Deque[float] = deque(maxlen=window)
        self._completions: Deque[float] = deque(maxlen=window)
        self._batch_hist: Dict[int, int] = {}
        self.requests = 0
        self.batches = 0
        self.errors = 0
        self.model_seconds = 0.0
        #: Requests rejected before doing any work, keyed by reason
        #: (``queue_full`` — admission control shed them with a 429;
        #: ``slo`` — their deadline expired while queued, shed with 503).
        self.shed: Dict[str, int] = {}
        #: Cumulative (never-windowed) latency histogram counts, one per
        #: LATENCY_BUCKETS bound, Prometheus semantics via
        #: :meth:`latency_histogram`.
        self._bucket_counts = [0] * len(LATENCY_BUCKETS)
        self._latency_sum = 0.0
        self._caches: Dict[str, Callable[[], dict]] = {}
        self._streams_fn: Optional[Callable[[], dict]] = None

    # -- cache observability -------------------------------------------
    def attach_cache(self, name: str, snapshot: Callable[[], dict]) -> None:
        """Expose a cache's hit/miss counters on this model's snapshot.

        ``snapshot`` is a zero-arg callable returning a JSON-ready dict
        (e.g. a :class:`~repro.runtime.PlanCacheStats` view). The
        server attaches the compiled model's plan cache at load time, so
        ``GET /stats`` makes plan-reuse regressions observable without
        code changes.
        """
        with self._lock:
            self._caches[name] = snapshot

    def attach_streams(self, snapshot: Callable[[], dict]) -> None:
        """Expose the streaming front end's view on this snapshot.

        ``snapshot`` is a zero-arg callable returning the stream
        server's JSON-ready per-model counters (connections, open
        streams, frames/s, delta-cache hit rate). Shown as the
        ``streams`` block of ``GET /stats`` once the model has served
        at least one frame over the binary protocol.
        """
        with self._lock:
            self._streams_fn = snapshot

    # -- recording -----------------------------------------------------
    def record_batch(self, size: int, seconds: float) -> None:
        """One coalesced flush: ``size`` requests served in ``seconds``."""
        with self._lock:
            self.batches += 1
            self.model_seconds += seconds
            self._batch_hist[size] = self._batch_hist.get(size, 0) + 1

    def record_request(self, latency_seconds: float) -> None:
        """One completed request's end-to-end latency (queueing included)."""
        with self._lock:
            self.requests += 1
            self._latencies.append(latency_seconds)
            self._completions.append(time.perf_counter())
            self._latency_sum += latency_seconds
            for index, bound in enumerate(LATENCY_BUCKETS):
                if latency_seconds <= bound:
                    self._bucket_counts[index] += 1
                    break

    def record_queue_wait(self, seconds: float) -> None:
        """Time one request sat queued before its flush started.

        Splitting this out of the end-to-end latency makes the snapshot
        auditable: end-to-end p50 ≈ queue-wait p50 + flush time.
        """
        with self._lock:
            self._queue_waits.append(max(0.0, seconds))

    def record_error(self, count: int = 1) -> None:
        """Count ``count`` failed requests (runner raised or rejected)."""
        with self._lock:
            self.errors += count

    def record_shed(self, reason: str, count: int = 1) -> None:
        """Count ``count`` requests shed by admission control.

        ``reason`` is ``"queue_full"`` (rejected at submit with a 429
        because the queue passed its high-water mark) or ``"slo"``
        (deadline already blown when the flush assembled; failed with a
        503 instead of wasting a batch slot). Shed requests are *not*
        errors — the runner never saw them.
        """
        with self._lock:
            self.shed[reason] = self.shed.get(reason, 0) + count

    # -- derived numbers -----------------------------------------------
    @property
    def mean_batch(self) -> float:
        """Mean coalesced batch size — > 1 iff batching actually happens."""
        with self._lock:
            total = sum(size * n for size, n in self._batch_hist.items())
            count = sum(self._batch_hist.values())
        return total / count if count else 0.0

    @property
    def batch_histogram(self) -> Dict[int, int]:
        """Coalesced batch size -> number of flushes (sorted copy)."""
        with self._lock:
            return dict(sorted(self._batch_hist.items()))

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the recent latency window, in milliseconds."""
        with self._lock:
            window = list(self._latencies)
        if not window:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        p50, p95, p99 = np.percentile(window, [50.0, 95.0, 99.0])
        return {
            "p50_ms": float(p50) * 1e3,
            "p95_ms": float(p95) * 1e3,
            "p99_ms": float(p99) * 1e3,
        }

    def queue_wait_percentiles(self) -> Dict[str, float]:
        """p50/p95 time-in-queue over the recent window, in milliseconds."""
        with self._lock:
            window = list(self._queue_waits)
        if not window:
            return {"queue_p50_ms": 0.0, "queue_p95_ms": 0.0}
        p50, p95 = np.percentile(window, [50.0, 95.0])
        return {"queue_p50_ms": float(p50) * 1e3, "queue_p95_ms": float(p95) * 1e3}

    @property
    def shed_total(self) -> int:
        """Total requests shed by admission control, all reasons."""
        with self._lock:
            return sum(self.shed.values())

    def latency_histogram(self) -> Dict[str, object]:
        """Cumulative latency histogram in Prometheus semantics.

        Returns ``{"buckets": [(le_seconds, cumulative_count), ...],
        "sum": seconds, "count": n}`` where the bucket list ends with the
        implicit ``+Inf`` bucket (``le = inf``) equal to ``count``.
        Unlike the percentile window this never ages out — it is the
        counter a Prometheus scraper ingests.
        """
        with self._lock:
            counts = list(self._bucket_counts)
            total = self.requests
            lat_sum = self._latency_sum
        buckets = []
        running = 0
        for bound, count in zip(LATENCY_BUCKETS, counts):
            running += count
            buckets.append((bound, running))
        buckets.append((float("inf"), total))
        return {"buckets": buckets, "sum": lat_sum, "count": total}

    @property
    def requests_per_second(self) -> float:
        """Throughput over the recent completion window.

        Measured across the window's completion timestamps — not since
        server start — so compile/warmup time and idle stretches after a
        burst do not dilute the figure capacity planning reads.
        """
        with self._lock:
            if len(self._completions) < 2:
                return 0.0
            span = self._completions[-1] - self._completions[0]
            count = len(self._completions)
        return (count - 1) / span if span > 0 else 0.0

    # -- reporting -----------------------------------------------------
    def snapshot(self, queue_depth: Optional[int] = None) -> dict:
        """JSON-ready view of the current counters (the /stats payload)."""
        report = {
            "requests": self.requests,
            "batches": self.batches,
            "errors": self.errors,
            "shed": dict(self.shed),
            "mean_batch": round(self.mean_batch, 3),
            "batch_histogram": {str(k): v for k, v in self.batch_histogram.items()},
            "requests_per_second": round(self.requests_per_second, 2),
            "model_seconds": round(self.model_seconds, 4),
            **{k: round(v, 3) for k, v in self.latency_percentiles().items()},
            **{k: round(v, 3) for k, v in self.queue_wait_percentiles().items()},
        }
        if queue_depth is not None:
            report["queue_depth"] = queue_depth
        with self._lock:
            caches = dict(self._caches)
            streams_fn = self._streams_fn
        if caches:
            report["caches"] = {name: fn() for name, fn in caches.items()}
        if streams_fn is not None:
            report["streams"] = streams_fn()
        return report

    def render(self, title: str = "serving") -> str:
        """Human-readable summary (printed on server shutdown)."""
        snap = self.snapshot()
        hist = " ".join(f"{k}x{v}" for k, v in snap["batch_histogram"].items())
        return (
            f"[{title}] {snap['requests']} requests in {snap['batches']} batches "
            f"(mean batch {snap['mean_batch']}, errors {snap['errors']})\n"
            f"[{title}] latency p50 {snap['p50_ms']:.2f} ms / "
            f"p95 {snap['p95_ms']:.2f} ms / p99 {snap['p99_ms']:.2f} ms, "
            f"{snap['requests_per_second']:.1f} req/s\n"
            f"[{title}] batch histogram: {hist or '-'}"
        )

    def __repr__(self) -> str:
        return (
            f"ServerStats(requests={self.requests}, batches={self.batches}, "
            f"mean_batch={self.mean_batch:.2f})"
        )
