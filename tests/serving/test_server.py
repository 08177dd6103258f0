"""Tests for the ModelServer registry — including the end-to-end
acceptance path: a PCNN bundle served under concurrent traffic with
coalescing and pattern-backend execution verified through the full stack.
"""

import numpy as np
import pytest

from repro import nn, runtime
from repro.core import PCNNConfig, PCNNPruner, bundle_from_pruner
from repro.models import patternnet
from repro.runtime.compile import ConvOp
from repro.serving import ModelServer, bucket_sizes


def pruned_bundle_path(tmp_path, n=2, num_patterns=4, seed=0):
    """Prune the registry patternnet and write its deployment bundle."""
    model = patternnet(rng=np.random.default_rng(seed))
    pruner = PCNNPruner(model, PCNNConfig.uniform(n, 3, num_patterns=num_patterns))
    pruner.apply()
    bundle = bundle_from_pruner(pruner)
    path = str(tmp_path / "bundle.npz")
    bundle.save(path)
    return path


def assert_decoded_spm(compiled):
    """Every conv lowers from its SPM encoding and runs a static decoded
    schedule: im2col for the 3-channel stem, F(4x4) Winograd after it.
    After a forward each holds only the operand that schedule multiplies
    by — no grouped pattern operand, no memoized decode."""
    compiled(np.zeros((2, 3, 16, 16)))
    convs = [op for op in compiled.ops if isinstance(op, ConvOp)]
    assert convs and all(op.encoded is not None for op in convs)
    assert [op.schedule_kind() for op in convs] == ["im2col", "winograd4", "winograd4"]
    for op in convs:
        operand = op._wino_u if op.wino_m else op.weight_t
        assert op.derived_nbytes() == operand.nbytes


class TestModelServerLoading:
    def test_load_registry_dense(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        served = server.load_registry("patternnet")
        assert served.input_shape == (3, 16, 16)
        assert served.compiled is not None
        assert served.meta["setting"] == "dense"

    def test_load_registry_pruned_attaches_encodings(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        served = server.load_registry("patternnet", n=2, patterns=4)
        convs = [m for m in served.model.modules() if isinstance(m, nn.Conv2d)]
        assert convs and all(conv.encoded is not None for conv in convs)

    def test_load_bundle_restores_spm_serving(self, tmp_path):
        """The restore_into fix end to end: a bundle-loaded model serves
        its pruned convs from SPM encodings, not the dense fallback."""
        path = pruned_bundle_path(tmp_path)
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        served = server.load_bundle(path, "patternnet")
        convs = [m for m in served.model.modules() if isinstance(m, nn.Conv2d)]
        assert convs and all(conv.encoded is not None for conv in convs)
        # The compiled pipeline lowered them from their encodings.
        assert_decoded_spm(served.compiled)
        assert served.meta["layers"] == 3

    def test_duplicate_name_rejected(self):
        server = ModelServer(max_batch=2, max_latency_ms=1.0)
        server.load_registry("patternnet")
        with pytest.raises(KeyError, match="already registered"):
            server.load_registry("patternnet")

    def test_get_resolves_sole_model_and_unknown(self):
        server = ModelServer(max_batch=2, max_latency_ms=1.0)
        with pytest.raises(KeyError, match="model name required"):
            server.get(None)
        served = server.load_registry("patternnet")
        assert server.get(None) is served
        with pytest.raises(KeyError, match="unknown model"):
            server.get("nope")

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ModelServer(max_batch=0)


class TestModelServerServing:
    def test_predict_matches_runtime_predict(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        served = server.load_registry("patternnet", seed=3)
        x = np.random.default_rng(4).normal(size=(1, 3, 16, 16))
        reference = runtime.predict(served.model, x)
        with server:
            out = server.predict(x[0], timeout=30)
        np.testing.assert_allclose(out, reference[0], rtol=1e-4, atol=1e-5)

    def test_eager_serving_without_compile(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0, compile=False)
        served = server.load_registry("patternnet", seed=5)
        assert served.compiled is None
        x = np.random.default_rng(6).normal(size=(1, 3, 16, 16))
        reference = runtime.predict(served.model, x)
        with server:
            out = server.predict(x[0], timeout=30)
        np.testing.assert_allclose(out, reference[0], rtol=1e-9, atol=1e-12)

    def test_shape_validation(self):
        server = ModelServer(max_batch=2, max_latency_ms=1.0)
        server.load_registry("patternnet")
        with server:
            with pytest.raises(ValueError, match="expects one"):
                server.predict(np.zeros((3, 8, 8)))

    def test_warmup_prebuilds_every_bucket_geometry(self):
        server = ModelServer(max_batch=8, max_latency_ms=1.0)
        served = server.load_registry("patternnet", seed=7)
        server.warmup()
        planned = dict(served.compiled.plans.stats.__dict__)
        # Serving any bucket-sized batch afterwards never plans again.
        for size in bucket_sizes(8):
            served.batcher.runner(np.zeros((size, 3, 16, 16)))
        assert served.compiled.plans.stats.misses == planned["misses"]

    def test_stats_exposed_per_model(self):
        server = ModelServer(max_batch=2, max_latency_ms=1.0)
        server.load_registry("patternnet", name="a", seed=8)
        with server:
            server.predict(np.zeros((3, 16, 16)), "a", timeout=30)
        snapshot = server.stats()
        assert snapshot["a"]["requests"] == 1
        assert "queue_depth" in snapshot["a"]
        assert "a" in server.render_stats()


class TestEndToEndAcceptance:
    def test_concurrent_bundle_serving_coalesces_on_pattern_backend(self, tmp_path):
        """ISSUE 3 acceptance: >= 64 concurrent single-image requests at
        a PCNN-pruned model loaded from a bundle must (a) match
        ``predict()`` on the same inputs, (b) actually coalesce
        (mean batch > 1), and (c) serve the pruned convs from their SPM
        encodings (the restore_into fix, verified through the stack)."""
        path = pruned_bundle_path(tmp_path, n=2, num_patterns=4, seed=11)
        server = ModelServer(max_batch=16, max_latency_ms=25.0, workers=2)
        served = server.load_bundle(path, "patternnet", name="pcnn")

        # (c) pattern serving through the full stack: eager fast path and
        # compiled pipeline both read the SPM encodings restore attached.
        convs = [m for m in served.model.modules() if isinstance(m, nn.Conv2d)]
        assert all(conv.encoded is not None for conv in convs)
        assert_decoded_spm(served.compiled)

        server.warmup()
        rng = np.random.default_rng(12)
        images = rng.normal(size=(64, 3, 16, 16))
        reference = runtime.predict(served.model, images)

        with server:
            futures = [server.submit(images[i], "pcnn") for i in range(64)]
            outputs = np.stack([f.result(timeout=60) for f in futures])

        # (a) responses match predict() on the same inputs.
        np.testing.assert_allclose(outputs, reference, rtol=1e-4, atol=1e-5)
        assert float(np.abs(outputs - reference).max()) < 1e-5

        # (b) the batch-size histogram shows coalescing actually happened.
        stats = served.stats
        assert stats.requests == 64
        assert stats.mean_batch > 1.0, stats.batch_histogram
        assert sum(stats.batch_histogram.values()) < 64
        percentiles = stats.latency_percentiles()
        assert percentiles["p50_ms"] <= percentiles["p99_ms"]


class TestServedBatchInvariance:
    def test_rows_match_reference_at_every_batch_size(self):
        """The served PatternNet (n=2, |P|=4), built and compiled by
        load_registry: row i of a batch of any size the batcher can form
        (1..16) is within the stream benchmark's 1e-5 of the same image
        in a reference predict() over all 16 images at once."""
        server = ModelServer(max_batch=16, max_latency_ms=1.0)
        served = server.load_registry("patternnet", n=2, patterns=4)
        x = np.random.default_rng(31).normal(size=(16, 3, 16, 16)).astype(np.float32)
        reference = runtime.predict(served.compiled, x, micro_batch=256)
        for batch in range(1, 17):
            out = runtime.predict(served.compiled, x[:batch])
            assert float(np.abs(out - reference[:batch]).max()) <= 1e-5, batch


class TestQuantizedServing:
    def test_quantized_bundle_serves_int8_end_to_end(self, tmp_path):
        """ISSUE 4 acceptance path: an 8-bit deployment bundle loads into
        a ModelServer(quantize=...), compiles to QuantConvOps (no dense
        float weights between bundle storage and the GEMM operand), and
        serves concurrent traffic that matches float predict() within
        the quantization error budget with full top-1 agreement."""
        from repro.models import create_model
        from repro.core.deploy import DeploymentBundle
        from repro.runtime.quant import QuantConvOp

        model = patternnet(rng=np.random.default_rng(21))
        pruner = PCNNPruner(model, PCNNConfig.uniform(2, 3, num_patterns=4))
        pruner.apply()
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        assert bundle.quantized
        path = str(tmp_path / "int8.npz")
        bundle.save(path)

        server = ModelServer(max_batch=16, max_latency_ms=25.0, quantize="int8")
        served = server.load_bundle(path, "patternnet", name="q")
        assert served.meta["quantized"] == "int8"
        assert served.meta["quantized_layers"] == 3
        assert served.meta["bundle_weight_bits"] == [8]
        qconvs = [op for op in served.compiled.ops if isinstance(op, QuantConvOp)]
        assert len(qconvs) == 3
        # SPM-aware storage: the op's artifact is the encoded (kernels, n)
        # code values, not a dense tensor.
        assert all(op.encoded is not None for op in qconvs)

        server.warmup()
        rng = np.random.default_rng(22)
        images = rng.normal(size=(48, 3, 16, 16))
        reference_model = create_model("patternnet", rng=np.random.default_rng(0))
        DeploymentBundle.load(path).restore_into(reference_model)
        reference = runtime.predict(reference_model, images)

        with server:
            futures = [server.submit(images[i], "q") for i in range(48)]
            outputs = np.stack([f.result(timeout=60) for f in futures])

        rel = np.linalg.norm(outputs - reference) / np.linalg.norm(reference)
        assert rel < 0.05, rel
        agree = (outputs.argmax(axis=1) == reference.argmax(axis=1)).mean()
        assert agree >= 0.99
        assert served.stats.requests == 48

    def test_quantize_requires_compile(self):
        with pytest.raises(ValueError, match="compile"):
            ModelServer(compile=False, quantize="int8")

    def test_registry_quantized_meta_and_stats_roundtrip(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0, quantize="int8")
        served = server.load_registry("patternnet", n=2, patterns=4)
        assert served.meta["quantized"] == "int8"
        assert served.describe()["quantized"] == "int8"
        x = np.random.default_rng(23).normal(size=(3, 16, 16))
        with server:
            out = server.predict(x)
        assert out.shape == (10,)


class TestCacheObservability:
    """PlanCache stats ride the /stats payload."""

    def test_plan_cache_stats_in_snapshot(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0)
        served = server.load_registry("patternnet")
        with server:
            server.predict(np.zeros((3, 16, 16)))
            first = served.stats.snapshot()["caches"]["plans"]
            server.predict(np.zeros((3, 16, 16)))
        snap = served.stats.snapshot()
        caches = snap["caches"]
        assert first["misses"] > 0  # first request planned
        # The second request replays the thunks bound on the first: no
        # new plans.
        assert caches["plans"]["misses"] == first["misses"]
        assert 0.0 <= caches["plans"]["hit_rate"] <= 1.0
        assert server.stats()["patternnet"]["caches"]["plans"] == caches["plans"]

    def test_eager_server_has_no_cache_section(self):
        server = ModelServer(max_batch=4, max_latency_ms=1.0, compile=False)
        served = server.load_registry("patternnet")
        assert "caches" not in served.stats.snapshot()
