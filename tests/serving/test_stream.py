"""End-to-end tests for the streaming transport.

The differential contract: every frame answered over the binary
protocol must match ``runtime.predict`` on the same input within 1e-5 —
including responses that complete out of order and responses served
from the per-stream delta cache.
Errors must arrive as *typed* ERROR frames carrying the same kinds (and
Retry-After semantics) as the HTTP surface, and the stream counters
must show up in ``/stats`` and ``/metrics``.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet
from repro.serving import (
    ModelServer,
    StreamClient,
    StreamServer,
    WireError,
    serve_http,
)

SHAPE = (3, 16, 16)


def pruned_patternnet(seed=0):
    model = patternnet(rng=np.random.default_rng(seed))
    PCNNPruner(model, PCNNConfig.uniform(2, 3, num_patterns=4)).apply()
    return model


def make_server(**kwargs):
    server = ModelServer(max_batch=8, max_latency_ms=2.0, **kwargs)
    served = server.add_model("patternnet", pruned_patternnet(), SHAPE)
    server.warmup()
    server.start()
    return server, served


class TestDifferential:
    def test_concurrent_clients_interleaved_streams_match_predict(self):
        """N clients x M streams each, all in flight at once; every
        response (matched by request id, arrival order ignored) must
        equal predict() on the submitted frame."""
        server, served = make_server()
        stream_server = StreamServer(server, port=0).start()
        rng = np.random.default_rng(1)
        n_clients, frames_each = 4, 24
        try:
            want_all, got_all = [], []
            lock = threading.Lock()
            failures = []

            def run_client(client_index):
                frames = rng.standard_normal((frames_each, *SHAPE))
                try:
                    with StreamClient(
                        "127.0.0.1", stream_server.port, timeout=60
                    ) as client:
                        futures = [
                            # Interleave 3 logical streams per client.
                            client.submit(frame, stream_id=i % 3)
                            for i, frame in enumerate(frames)
                        ]
                        outputs = [f.result(timeout=60) for f in futures]
                    with lock:
                        want_all.append(frames)
                        got_all.append(np.stack(outputs))
                except Exception as error:  # noqa: BLE001 - collected below
                    failures.append((client_index, error))

            threads = [
                threading.Thread(target=run_client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert failures == []
            want = runtime.predict(served.compiled, np.concatenate(want_all))
            got = np.concatenate(got_all)
            np.testing.assert_allclose(got, want, atol=1e-5, rtol=1e-5)
        finally:
            stream_server.stop()
            server.stop()

    def test_out_of_order_completion_not_head_of_line_blocked(self):
        """A big batch in flight must not serialize responses: futures
        resolve per-request as flushes land, and request ids keep each
        answer attached to its own frame."""
        server, served = make_server()
        stream_server = StreamServer(server, port=0).start()
        rng = np.random.default_rng(2)
        try:
            frames = rng.standard_normal((32, *SHAPE))
            arrival_order = []
            with StreamClient("127.0.0.1", stream_server.port) as client:
                futures = []
                for i, frame in enumerate(frames):
                    future = client.submit(frame, stream_id=i % 4, meta=True)
                    future.add_done_callback(
                        lambda f: arrival_order.append(f.result().request_id)
                    )
                    futures.append(future)
                results = [f.result(timeout=60) for f in futures]
            want = runtime.predict(served.compiled, frames)
            for i, result in enumerate(results):
                np.testing.assert_allclose(
                    result.output, want[i], atol=1e-5, rtol=1e-5
                )
                assert result.stream_id == i % 4
            # Every response arrived, each exactly once.
            assert sorted(arrival_order) == sorted(r.request_id for r in results)
        finally:
            stream_server.stop()
            server.stop()


class TestDeltaCache:
    def test_near_duplicate_frame_returns_exact_cached_logits(self):
        server, served = make_server()
        stream_server = StreamServer(server, port=0, delta_threshold=1e-3).start()
        rng = np.random.default_rng(3)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                key = rng.standard_normal(SHAPE)
                first = client.predict(key, stream_id=7)
                jittered = key + rng.uniform(-1e-4, 1e-4, size=SHAPE)
                hit = client.submit(jittered, stream_id=7, meta=True).result(60)
                assert hit.cache_hit is True
                # Exact bytes of the reference answer — not a re-predict.
                np.testing.assert_array_equal(hit.output, first)

                # A frame past the threshold resets the reference...
                far = key + 10.0
                miss = client.submit(far, stream_id=7, meta=True).result(60)
                assert miss.cache_hit is False
                # ...and near-duplicates of the *new* reference hit.
                again = client.submit(
                    far + 1e-4, stream_id=7, meta=True
                ).result(60)
                assert again.cache_hit is True
                np.testing.assert_array_equal(again.output, miss.output)
            snap = stream_server.snapshot()["patternnet"]
            assert snap["cache_hits"] == 2
            assert snap["cache_misses"] == 2
        finally:
            stream_server.stop()
            server.stop()

    def test_hit_on_pending_keyframe_waits_for_it(self):
        """A near-duplicate arriving while its keyframe is still being
        batched must chain onto the keyframe's future, not recompute."""
        server, served = make_server()
        stream_server = StreamServer(server, port=0, delta_threshold=1e-3).start()
        rng = np.random.default_rng(4)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                key = rng.standard_normal(SHAPE)
                # Submit keyframe + duplicate back-to-back, no waiting:
                # the duplicate races the keyframe's flush.
                f_key = client.submit(key, meta=True)
                f_dup = client.submit(key, meta=True)
                key_result, dup_result = f_key.result(60), f_dup.result(60)
            assert dup_result.cache_hit is True
            np.testing.assert_array_equal(dup_result.output, key_result.output)
        finally:
            stream_server.stop()
            server.stop()

    def test_streams_are_isolated(self):
        """The same pixels on a different stream id is a miss: the cache
        key is (connection, stream), never cross-stream."""
        server, _ = make_server()
        stream_server = StreamServer(server, port=0, delta_threshold=1e-3).start()
        rng = np.random.default_rng(5)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                frame = rng.standard_normal(SHAPE)
                a = client.submit(frame, stream_id=1, meta=True).result(60)
                b = client.submit(frame, stream_id=2, meta=True).result(60)
            assert a.cache_hit is False
            assert b.cache_hit is False
        finally:
            stream_server.stop()
            server.stop()

    def test_negative_threshold_disables_cache(self):
        server, _ = make_server()
        stream_server = StreamServer(server, port=0, delta_threshold=-1.0).start()
        rng = np.random.default_rng(6)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                frame = rng.standard_normal(SHAPE)
                client.predict(frame)
                repeat = client.submit(frame, meta=True).result(60)
            assert repeat.cache_hit is False
        finally:
            stream_server.stop()
            server.stop()


class TestTypedErrors:
    def test_unknown_model_in_hello_is_not_found(self):
        server, _ = make_server()
        stream_server = StreamServer(server, port=0).start()
        try:
            with pytest.raises(WireError) as excinfo:
                StreamClient("127.0.0.1", stream_server.port, model="nope")
            assert excinfo.value.kind == "not_found"
        finally:
            stream_server.stop()
            server.stop()

    def test_wrong_shape_is_bad_request_and_connection_survives(self):
        server, served = make_server()
        stream_server = StreamServer(server, port=0).start()
        rng = np.random.default_rng(7)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                bad = client.submit(rng.standard_normal((2, 2)))
                with pytest.raises(WireError) as excinfo:
                    bad.result(timeout=60)
                assert excinfo.value.kind == "bad_request"
                # The connection keeps serving after a rejected frame.
                frame = rng.standard_normal(SHAPE)
                out = client.predict(frame)
            want = runtime.predict(served.compiled, frame[None])[0]
            np.testing.assert_allclose(out, want, atol=1e-5, rtol=1e-5)
            snap = stream_server.snapshot()["patternnet"]
            assert snap["errors"] >= 1
        finally:
            stream_server.stop()
            server.stop()

    def test_queue_full_carries_retry_after_like_http(self):
        """Overload over the stream transport sheds with the same typed
        kind + Retry-After hint the HTTP 429 path derives."""
        server = ModelServer(max_batch=4, max_latency_ms=50.0, max_queue=1)
        server.add_model("patternnet", pruned_patternnet(), SHAPE)
        server.warmup()
        server.start()
        stream_server = StreamServer(server, port=0).start()
        rng = np.random.default_rng(8)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                futures = [
                    client.submit(rng.standard_normal(SHAPE)) for _ in range(16)
                ]
                outcomes = []
                for future in futures:
                    try:
                        future.result(timeout=60)
                        outcomes.append("ok")
                    except WireError as error:
                        assert error.kind == "queue_full"
                        assert error.retry_after is not None
                        assert error.retry_after >= 1
                        outcomes.append("shed")
            # The 50 ms flush window guarantees the 1-deep queue fills:
            # some frames complete, some shed, none vanish.
            assert outcomes.count("ok") >= 1
            assert outcomes.count("shed") >= 1
            assert len(outcomes) == 16
        finally:
            stream_server.stop()
            server.stop()

    def test_garbage_bytes_get_typed_error_frame(self):
        """A client speaking garbage gets a bad_frame/protocol ERROR
        frame back instead of a silent hangup."""
        import socket

        from repro.serving.wire import FrameReader

        server, _ = make_server()
        stream_server = StreamServer(server, port=0).start()
        try:
            with socket.create_connection(
                ("127.0.0.1", stream_server.port), timeout=30
            ) as sock:
                import struct

                sock.sendall(struct.pack(">I", 24) + b"\x00" * 24)
                reader = FrameReader()
                events = []
                sock.settimeout(30)
                while not events:
                    events = reader.feed(sock.recv(65536))
                (frame,) = events
                assert frame.error().kind == "protocol"
        finally:
            stream_server.stop()
            server.stop()


class TestObservability:
    def test_stats_and_metrics_report_stream_activity(self):
        server, _ = make_server()
        httpd = serve_http(server, port=0)
        stream_server = StreamServer(server, port=0, delta_threshold=1e-3).start()
        rng = np.random.default_rng(9)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                frame = rng.standard_normal(SHAPE)
                client.predict(frame, stream_id=1)
                client.predict(frame, stream_id=1)  # exact repeat: hit

                with urllib.request.urlopen(httpd.url + "/stats", timeout=30) as r:
                    stats = json.load(r)
                streams = stats["patternnet"]["streams"]
                assert streams["connections"] == 1
                assert streams["open_streams"] == 1
                assert streams["frames"] == 2
                assert streams["cache_hits"] == 1
                assert streams["cache_hit_rate"] == 0.5
                assert streams["frames_per_second"] >= 0.0

                with urllib.request.urlopen(httpd.url + "/metrics", timeout=30) as r:
                    metrics = r.read().decode()
            for family in (
                "repro_stream_connections 1",
                'repro_stream_open_streams{model="patternnet"} 1',
                'repro_stream_frames_total{model="patternnet"} 2',
                'repro_stream_cache_hits_total{model="patternnet"} 1',
                'repro_stream_cache_misses_total{model="patternnet"} 1',
                'repro_stream_errors_total{model="patternnet"} 0',
            ):
                assert family in metrics, f"missing {family!r} in /metrics"
        finally:
            stream_server.stop()
            httpd.server_close()
            server.stop()

    def test_connection_close_clears_streams(self):
        server, _ = make_server()
        stream_server = StreamServer(server, port=0).start()
        rng = np.random.default_rng(10)
        try:
            with StreamClient("127.0.0.1", stream_server.port) as client:
                client.predict(rng.standard_normal(SHAPE))
                assert stream_server.connection_count() == 1

            def gone():
                return (
                    stream_server.connection_count() == 0
                    and stream_server.open_streams("patternnet") == 0
                )

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not gone():
                time.sleep(0.02)
            assert gone()
        finally:
            stream_server.stop()
            server.stop()
