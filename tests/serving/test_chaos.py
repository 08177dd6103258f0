"""Chaos tests: overload shedding against the full serving stack.

Marked ``overload`` (see ``pytest.ini``) so CI can run them as a dedicated
job; they are deterministic enough to ride along in tier-1 too. The
input images derive from ``REPRO_CHAOS_SEED`` (default 0), so a failing
run reproduces with the same seed.

Drive the server past the bounded queue's high-water mark: every
request resolves as 200 or as 429 with a ``Retry-After`` header — never
a drop — and admitted requests keep a bounded p99.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet
from repro.serving import ModelServer, serve_http

pytestmark = pytest.mark.overload

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def pruned_patternnet(seed=CHAOS_SEED):
    model = patternnet(rng=np.random.default_rng(seed))
    PCNNPruner(model, PCNNConfig.uniform(2, 3, num_patterns=4)).apply()
    return model


def post_predict(url, image, timeout=60):
    body = json.dumps({"input": image.tolist()}).encode()
    request = urllib.request.Request(
        url + "/predict", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response), dict(response.headers)


def scrape_metric(metrics_text, name, **labels):
    """Read one sample value out of Prometheus exposition text."""
    want = {str(k): str(v) for k, v in labels.items()}
    for line in metrics_text.splitlines():
        if not line.startswith(name + "{"):
            continue
        rendered = line[len(name) + 1 : line.index("}")]
        got = dict(
            part.split("=", 1) for part in rendered.split(",") if "=" in part
        )
        got = {k: v.strip('"') for k, v in got.items()}
        if all(got.get(k) == v for k, v in want.items()):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample {name}{labels} in:\n{metrics_text}")


class TestOverloadShedding:
    def test_queue_high_water_mark_sheds_with_retry_after(self):
        server = ModelServer(
            max_batch=4, max_latency_ms=20.0, max_queue=8, slo_ms=30000.0,
        )
        server.add_model("patternnet", pruned_patternnet(), (3, 16, 16))
        server.warmup()
        httpd = serve_http(server, port=0)
        try:
            rng = np.random.default_rng(CHAOS_SEED)
            images = rng.standard_normal((64, 3, 16, 16))
            lock = threading.Lock()
            served_latencies = []
            shed = []
            failures = []
            started = threading.Barrier(len(images) + 1)

            def client(index):
                started.wait(timeout=30)
                begin = time.perf_counter()
                try:
                    status, _, _ = post_predict(httpd.url, images[index])
                    assert status == 200
                    with lock:
                        served_latencies.append(time.perf_counter() - begin)
                except urllib.error.HTTPError as error:
                    if error.code == 429:
                        retry_after = error.headers.get("Retry-After")
                        body = json.load(error)
                        with lock:
                            shed.append((retry_after, body))
                    else:
                        with lock:
                            failures.append((index, error.code))
                except Exception as error:  # noqa: BLE001 - collected below
                    with lock:
                        failures.append((index, error))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(images))
            ]
            for thread in threads:
                thread.start()
            started.wait(timeout=30)
            for thread in threads:
                thread.join(timeout=120)

            # Every request resolved as 200 or a structured 429 — the
            # overload path never drops or errors an admitted request.
            assert failures == []
            assert len(served_latencies) + len(shed) == len(images)
            assert served_latencies, "shedding must not reject everything"
            for retry_after, body in shed:
                assert retry_after is not None
                assert int(retry_after) >= 1
                assert body["error"]["kind"] == "queue_full"

            # Bounded latency for admitted requests: with the queue
            # capped at 8 and 4-image flushes, no admitted request waits
            # behind an unbounded backlog.
            if shed:  # overload actually happened: check the p99 bound
                p99 = float(np.percentile(served_latencies, 99))
                assert p99 < 30.0

            # Shed bookkeeping agrees across /stats and /metrics.
            with urllib.request.urlopen(httpd.url + "/stats", timeout=30) as r:
                stats = json.load(r)
            assert stats["patternnet"]["shed"].get("queue_full", 0) == len(shed)
            with urllib.request.urlopen(httpd.url + "/metrics", timeout=30) as r:
                metrics = r.read().decode()
            assert scrape_metric(
                metrics, "repro_shed_total", model="patternnet",
                reason="queue_full",
            ) == len(shed)
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.stop()
