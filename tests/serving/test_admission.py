"""Admission control and failure-path tests for the batcher.

Covers the overload contract (bounded queue -> ``QueueFull`` with a
``Retry-After`` hint, SLO-blown requests shed before batch assembly),
the typed ``BatcherClosed`` rejection on a stopped batcher, client-side
``timeout=`` expiring while a request is queued vs in-flight.
"""

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np
import pytest

from repro.serving import Batcher, BatcherClosed, QueueFull, SLOExpired


def double_runner(x):
    return x * 2.0


class SlowRunner:
    """Runner that blocks until released, so queues fill deterministically."""

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()
        self.batches = []

    def __call__(self, x):
        self.started.set()
        assert self.release.wait(timeout=30), "runner never released"
        self.batches.append(x.shape[0])
        return x * 2.0


class TestQueueFull:
    def test_submit_past_high_water_mark_raises_429_material(self):
        slow = SlowRunner()
        batcher = Batcher(slow, max_batch=1, max_latency_ms=0.0, max_queue=2)
        with batcher:
            first = batcher.submit(np.zeros(2))
            assert slow.started.wait(timeout=10)  # flush in progress
            queued = [batcher.submit(np.zeros(2)) for _ in range(2)]
            with pytest.raises(QueueFull) as excinfo:
                batcher.submit(np.zeros(2))
            assert excinfo.value.retry_after > 0
            assert batcher.stats.shed == {"queue_full": 1}
            slow.release.set()
        # Admitted requests were never dropped: all of them completed.
        for future in [first, *queued]:
            np.testing.assert_array_equal(future.result(timeout=10), np.zeros(2))
        assert batcher.stats.requests == 3

    def test_retry_after_estimate_is_clamped(self):
        batcher = Batcher(double_runner, max_latency_ms=2.0)
        # Cold server: no observed rate, falls back to the latency bound.
        assert 0.05 <= batcher.retry_after_estimate() <= 30.0

    def test_max_queue_validation(self):
        with pytest.raises(ValueError, match="max_queue"):
            Batcher(double_runner, max_queue=0)


class TestSLODeadlines:
    def test_expired_requests_shed_before_batch_assembly(self):
        """SLO-blown requests get 503 material and never reach the runner."""
        slow = SlowRunner()
        batcher = Batcher(slow, max_batch=1, max_latency_ms=0.0, slo_ms=50.0)
        with batcher:
            first = batcher.submit(np.zeros(2))
            assert slow.started.wait(timeout=10)
            stale = batcher.submit(np.zeros(2))
            time.sleep(0.12)  # let the queued request blow its 50 ms SLO
            slow.release.set()
            np.testing.assert_array_equal(first.result(timeout=10), np.zeros(2))
            with pytest.raises(SLOExpired):
                stale.result(timeout=10)
        assert batcher.stats.shed == {"slo": 1}
        # The runner only ever saw the live request's flush.
        assert slow.batches == [1]
        # Shed is not an error: the runner never failed anything.
        assert batcher.stats.errors == 0

    def test_within_slo_requests_serve_normally(self):
        batcher = Batcher(double_runner, max_batch=4, max_latency_ms=1.0,
                          slo_ms=5000.0)
        with batcher:
            out = batcher(np.arange(3.0), timeout=10)
        np.testing.assert_array_equal(out, np.arange(3.0) * 2.0)
        assert batcher.stats.shed == {}

    def test_slo_validation(self):
        with pytest.raises(ValueError, match="slo_ms"):
            Batcher(double_runner, slo_ms=0.0)


class TestBatcherClosed:
    def test_submit_before_start_raises_typed(self):
        batcher = Batcher(double_runner)
        with pytest.raises(BatcherClosed):
            batcher.submit(np.zeros(2))

    def test_submit_after_stop_raises_typed(self):
        batcher = Batcher(double_runner)
        batcher.start()
        batcher.stop()
        with pytest.raises(BatcherClosed):
            batcher.submit(np.zeros(2))

    def test_batcher_closed_is_runtime_error(self):
        # Typed for clients, but still a RuntimeError for old callers.
        assert issubclass(BatcherClosed, RuntimeError)


class TestClientTimeouts:
    def test_timeout_while_queued_then_still_served(self):
        """A client timeout on a *queued* request does not drop it."""
        slow = SlowRunner()
        batcher = Batcher(slow, max_batch=1, max_latency_ms=0.0)
        with batcher:
            batcher.submit(np.zeros(2))
            assert slow.started.wait(timeout=10)
            queued = batcher.submit(np.ones(2))
            with pytest.raises(FutureTimeout):
                queued.result(timeout=0.05)  # still waiting for a flush slot
            slow.release.set()
            # The request was admitted, so it still completes after the
            # client gave up — the timeout is client-side only.
            np.testing.assert_array_equal(queued.result(timeout=10), np.ones(2) * 2.0)

    def test_timeout_while_in_flight_then_still_served(self):
        slow = SlowRunner()
        batcher = Batcher(slow, max_batch=2, max_latency_ms=0.0)
        with batcher:
            future = batcher.submit(np.ones(2))
            assert slow.started.wait(timeout=10)  # flush running right now
            with pytest.raises(FutureTimeout):
                future.result(timeout=0.05)
            slow.release.set()
            np.testing.assert_array_equal(future.result(timeout=10), np.ones(2) * 2.0)
