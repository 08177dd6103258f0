"""Tests for the batched runtime.predict() inference API."""

import importlib
import threading

import numpy as np
import pytest

from repro import nn, runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet


@pytest.fixture(scope="module")
def model():
    return patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(1).normal(size=(6, 3, 12, 12))


class TestPredict:
    def test_matches_direct_forward(self, model, batch):
        direct = model.eval()(nn.Tensor(batch)).data
        out = runtime.predict(model, batch)
        np.testing.assert_allclose(out, direct, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("micro_batch", [1, 2, 4, 6, 100])
    def test_micro_batching_is_equivalent(self, model, batch, micro_batch):
        full = runtime.predict(model, batch)
        split = runtime.predict(model, batch, micro_batch=micro_batch)
        np.testing.assert_allclose(split, full, rtol=1e-9, atol=1e-12)

    def test_training_mode_restored(self, model, batch):
        model.train()
        runtime.predict(model, batch[:2])
        assert model.training
        model.eval()
        runtime.predict(model, batch[:2])
        assert not model.training

    def test_stats_populated(self, model, batch):
        stats = runtime.PredictStats()
        runtime.predict(model, batch, micro_batch=2, stats=stats)
        assert stats.batch == 6
        assert stats.chunks == 3
        assert len(stats.chunk_seconds) == 3
        assert stats.seconds > 0
        assert stats.images_per_second > 0

    def test_pruned_model(self, batch):
        pruned = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(2))
        PCNNPruner(pruned, PCNNConfig.uniform(2, 2)).apply()
        direct = pruned.eval()(nn.Tensor(batch)).data
        out = runtime.predict(pruned, batch, micro_batch=3)
        np.testing.assert_allclose(out, direct, rtol=1e-9, atol=1e-12)

    def test_pruned_model_with_attached_encodings(self, batch):
        """attach_encodings() routes pruned convs through the eager SPM
        path on the fast path, with the same outputs."""
        pruned = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(3))
        pruner = PCNNPruner(pruned, PCNNConfig.uniform(2, 2))
        pruner.apply()
        reference = runtime.predict(pruned, batch)  # dense weights, no encoding
        encoded = pruner.attach_encodings()
        assert set(encoded) == {name for name, _ in pruner.layers}
        auto = runtime.predict(pruned, batch)
        np.testing.assert_allclose(auto, reference, rtol=1e-9, atol=1e-12)

    def test_attach_encoding_validates_and_clears(self):
        conv = nn.Conv2d(3, 4, kernel_size=3, rng=np.random.default_rng(4))
        with pytest.raises(ValueError, match="encoding shape"):
            from repro.core import SPMCodebook, encode_layer, enumerate_patterns

            wrong = encode_layer(
                np.zeros((4, 2, 3, 3)), SPMCodebook(enumerate_patterns(2)[:2])
            )
            conv.attach_encoding(wrong)
        pruned = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(5))
        pruner = PCNNPruner(pruned, PCNNConfig.uniform(2, 1))
        pruner.apply()
        pruner.attach_encodings()
        name, module = pruner.layers[0]
        assert module.encoded is not None
        # Re-masking invalidates the attached encoding.
        module.set_weight_mask(module.weight_mask)
        assert module.encoded is None

    def test_load_state_dict_drops_encoding(self, batch):
        pruned = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(7))
        pruner = PCNNPruner(pruned, PCNNConfig.uniform(2, 1))
        pruner.apply()
        pruner.attach_encodings()
        name, module = pruner.layers[0]
        assert module.encoded is not None
        pruned.load_state_dict(pruned.state_dict())
        assert module.encoded is None

    def test_grad_mode_forward_drops_encoding(self, batch):
        """Training forwards clear the deployment encoding, so a later
        no-grad eval never computes from stale SPM values."""
        pruned = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(6))
        pruner = PCNNPruner(pruned, PCNNConfig.uniform(2, 1))
        pruner.apply()
        pruner.attach_encodings()
        name, module = pruner.layers[0]
        pruned.train()(nn.Tensor(batch))  # gradient-mode forward
        assert module.encoded is None
        # Simulated fine-tune step: predict must see the new weights.
        module.weight.data[...] *= 2.0
        direct = pruned.eval()(nn.Tensor(batch)).data
        out = runtime.predict(pruned, batch)
        np.testing.assert_allclose(out, direct, rtol=1e-9, atol=1e-12)

    def test_plan_cache_reused_across_chunks(self, model, batch):
        runtime.default_cache.clear()
        runtime.predict(model, batch, micro_batch=2)
        stats = runtime.default_cache.stats
        # 3 equal chunks x 2 conv layers: first chunk plans, rest hit.
        assert stats.misses == 2
        assert stats.hits == 4

    def test_bad_inputs_rejected(self, model):
        with pytest.raises(ValueError, match="micro_batch"):
            runtime.predict(model, np.zeros((2, 3, 12, 12)), micro_batch=0)
        with pytest.raises(ValueError, match="N, C, H, W"):
            runtime.predict(model, np.zeros((3, 12, 12)))


class TestEmptyBatch:
    """A batcher flush / drained queue legitimately produces N=0."""

    def test_eager_empty_batch_shape_and_dtype(self, model):
        out = runtime.predict(model, np.zeros((0, 3, 12, 12)))
        assert out.shape == (0, 4)
        assert out.dtype == np.float64

    def test_compiled_empty_batch_shape_and_dtype(self, model):
        compiled = runtime.compile_model(model)
        out = runtime.predict(compiled, np.zeros((0, 3, 12, 12)))
        assert out.shape == (0, 4)
        assert out.dtype == np.float32

    def test_empty_batch_concatenates_with_real_outputs(self, model, batch):
        """The (0, ...) result is shape-compatible with real outputs."""
        empty = runtime.predict(model, batch[:0])
        full = runtime.predict(model, batch)
        merged = np.concatenate([empty, full])
        np.testing.assert_array_equal(merged, full)

    def test_empty_batch_stats(self, model):
        stats = runtime.PredictStats()
        out = runtime.predict(model, np.zeros((0, 3, 12, 12)), stats=stats)
        assert out.shape[0] == 0
        assert stats.batch == 0
        assert stats.chunks == 0
        assert stats.chunk_seconds == []

    def test_empty_batch_restores_training_mode(self, model):
        model.train()
        runtime.predict(model, np.zeros((0, 3, 12, 12)))
        assert model.training
        model.eval()

    def test_empty_batch_probe_is_memoized(self):
        """Repeated empty calls answer from the cached geometry instead
        of re-running the one-image probe forward."""
        m = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(42))
        runtime.predict(m, np.zeros((0, 3, 12, 12)))  # probe forward runs once
        runtime.default_cache.clear()
        out = runtime.predict(m, np.zeros((0, 3, 12, 12)))
        assert out.shape == (0, 2)
        # An eager forward would have gone through the engine (and the
        # default plan cache); zero lookups means no forward ran.
        assert runtime.default_cache.stats.lookups == 0

    def test_empty_batch_compile_flag_keeps_compiled_dtype(self):
        m = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(43))
        out = runtime.predict(m, np.zeros((0, 3, 12, 12)), compile=True)
        assert out.shape == (0, 2)
        assert out.dtype == np.float32

    def test_empty_batch_compiled_answers_from_metadata(self, monkeypatch):
        """A CompiledModel that has seen the geometry derives the empty
        result from recorded metadata — no probe forward at all."""
        import importlib

        predict_mod = importlib.import_module("repro.runtime.predict")
        m = patternnet(channels=(8,), num_classes=2, rng=np.random.default_rng(44))
        compiled = runtime.compile_model(m)
        compiled(np.zeros((1, 3, 12, 12)))  # record output geometry
        monkeypatch.setattr(
            predict_mod,
            "_probe_output",
            lambda *a, **k: pytest.fail("probe forward ran for an empty batch"),
        )
        out = runtime.predict(compiled, np.zeros((0, 3, 12, 12)))
        assert out.shape == (0, 2)
        assert out.dtype == np.float32


class TestRaggedChunks:
    def test_compiled_ragged_tail_is_equivalent(self, model, batch):
        compiled = runtime.compile_model(model)
        full = runtime.predict(compiled, batch)
        ragged = runtime.predict(compiled, batch, micro_batch=4)  # 4 + 2
        np.testing.assert_allclose(ragged, full, rtol=1e-6, atol=1e-7)

    def test_compiled_ragged_tail_reuses_chunk_geometry(self, model, batch):
        """The padded tail runs through the same plans/arena buffers as
        the full chunks — no second geometry set for the tail size."""
        compiled = runtime.compile_model(model)
        runtime.predict(compiled, batch, micro_batch=4)
        batch_sizes = {
            key[1][0]
            for key in compiled.plans._plans
            if isinstance(key[1], tuple)
        }
        assert batch_sizes == {4}

    def test_eager_ragged_tail_stays_exact(self, model, batch):
        full = runtime.predict(model, batch)
        ragged = runtime.predict(model, batch, micro_batch=4)
        np.testing.assert_allclose(ragged, full, rtol=1e-12, atol=0)

    def test_ragged_tail_with_workers(self, model, batch):
        compiled = runtime.compile_model(model)
        full = runtime.predict(compiled, batch)
        out = runtime.predict(compiled, batch, micro_batch=4, workers=2)
        np.testing.assert_allclose(out, full, rtol=1e-6, atol=1e-7)


class TestExecutorSeam:
    """predict(executor=) uses the caller's pool instead of the shared one."""

    def test_external_executor_is_used_and_not_shut_down(self, model, batch):
        from concurrent.futures import ThreadPoolExecutor

        reference = runtime.predict(model, batch)
        ran_on = set()

        class RecordingPool(ThreadPoolExecutor):
            def map(self, fn, *iterables):
                ran_on.add("external")
                return super().map(fn, *iterables)

        with RecordingPool(max_workers=2) as pool:
            out = runtime.predict(
                model, batch, micro_batch=2, workers=2, executor=pool
            )
            np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)
            assert ran_on == {"external"}
            # The pool stays usable for the caller afterwards.
            assert list(pool.map(lambda v: v + 1, [1])) == [2]

    def test_sequential_path_ignores_executor(self, model, batch):
        # workers<=1 never touches the executor at all.
        sentinel = object()
        out = runtime.predict(model, batch, executor=sentinel)
        np.testing.assert_allclose(
            out, runtime.predict(model, batch), rtol=1e-12, atol=1e-12
        )


# The module, not the function runtime.predict re-exports.
predict_mod = importlib.import_module("repro.runtime.predict")

needs_blas = pytest.mark.skipif(
    not runtime.blas.controllable(), reason="OpenBLAS thread count not controllable"
)


@pytest.fixture
def two_lanes(monkeypatch):
    """Make every compiled batch qualify for two automatic lanes."""
    monkeypatch.setattr(predict_mod, "LANE_MIN_MACS", 1)
    monkeypatch.setattr(predict_mod, "effective_cpu_count", lambda: 2)


@pytest.fixture
def blas_at_two():
    """BLAS at two threads for the test (so a pin to one is visible)."""
    before = runtime.blas.get_threads()
    runtime.blas.set_threads(2)
    yield
    runtime.blas.set_threads(before)


class TestLanes:
    """Automatic batch lanes on compiled models (workers=None)."""

    def test_dense_macs_counts_conv_and_linear(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 5, rng=np.random.default_rng(1)),
        )
        compiled = runtime.compile_model(model)
        assert compiled.dense_macs((3, 8, 8)) == 8 * 8 * 4 * 9 * 3 + 4 * 8 * 8 * 5

    def test_small_batches_stay_one_lane(self, model, batch, monkeypatch):
        monkeypatch.setattr(predict_mod, "effective_cpu_count", lambda: 2)
        stats = runtime.PredictStats()
        runtime.predict(runtime.compile_model(model), batch, stats=stats)
        assert (stats.chunks, stats.workers) == (1, 1)

    @needs_blas
    def test_lane_count_follows_cores_and_macs(self, model, monkeypatch):
        compiled = runtime.compile_model(model)
        per_image = compiled.dense_macs((3, 12, 12))
        monkeypatch.setattr(predict_mod, "LANE_MIN_MACS", 2 * per_image)
        monkeypatch.setattr(predict_mod, "effective_cpu_count", lambda: 3)
        x = np.random.default_rng(2).normal(size=(8, 3, 12, 12))
        for rows, lanes in ((1, 1), (3, 1), (4, 2), (8, 3)):
            stats = runtime.PredictStats()
            runtime.predict(compiled, x[:rows], stats=stats)
            assert (stats.chunks, stats.workers) == (lanes, lanes), rows
        # Pinning the chunking (or the pool) turns the automatic split off.
        stats = runtime.PredictStats()
        runtime.predict(compiled, x, micro_batch=8, stats=stats)
        assert stats.chunks == 1

    @needs_blas
    def test_f32_lanes_match_one_lane(self, two_lanes):
        model = patternnet(rng=np.random.default_rng(3))
        compiled = runtime.compile_model(model)
        x = np.random.default_rng(4).normal(size=(7, 3, 16, 16))
        single = runtime.predict(compiled, x, workers=1)
        for _ in range(2):  # the first call runs lane 0 alone first
            stats = runtime.PredictStats()
            out = runtime.predict(compiled, x, stats=stats)
            assert stats.chunks == 2
            np.testing.assert_allclose(out, single, rtol=0, atol=1e-5)

    @needs_blas
    def test_int8_lanes_are_bit_identical(self, two_lanes):
        model = patternnet(rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(8, 3, 16, 16))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        single = runtime.predict(compiled, x, workers=1)
        stats = runtime.PredictStats()
        out = runtime.predict(compiled, x, stats=stats)
        assert stats.chunks == 2
        np.testing.assert_array_equal(out, single)

    def test_one_core_runs_one_lane_and_never_sets_blas(self, tmp_path):
        import os
        import subprocess
        import sys

        from repro.runtime.predict import CPUS_ENV

        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity control on this platform")
        script = tmp_path / "one_core.py"
        script.write_text(
            "import os\n"
            "import numpy as np\n"
            "from repro import runtime\n"
            "from repro.models import patternnet\n"
            "from repro.runtime import blas\n"
            "predict_mod = __import__('repro.runtime.predict').runtime.predict\n"
            "os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})\n"
            "calls = []\n"
            "blas.set_threads = lambda n: calls.append(n)\n"
            "predict_mod.LANE_MIN_MACS = 1\n"
            "compiled = runtime.compile_model(patternnet())\n"
            "stats = runtime.PredictStats()\n"
            "x = np.zeros((8, 3, 16, 16))\n"
            "runtime.predict(compiled, x, stats=stats)\n"
            "print(stats.chunks, len(calls))\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        env.pop(CPUS_ENV, None)  # count the affinity mask
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "0"]


@needs_blas
class TestBlasPin:
    """Multi-thread predict sections hold OpenBLAS at one thread."""

    def test_pinned_during_call_and_restored_after(
        self, two_lanes, blas_at_two, monkeypatch
    ):
        compiled = runtime.compile_model(patternnet(rng=np.random.default_rng(7)))
        x = np.random.default_rng(8).normal(size=(4, 3, 16, 16))
        seen = []
        call = type(compiled).__call__
        caller = threading.get_ident()

        def observing(self, chunk, **kwargs):
            on_caller = threading.get_ident() == caller
            seen.append((runtime.blas.get_threads(), on_caller))
            return call(self, chunk, **kwargs)

        monkeypatch.setattr(type(compiled), "__call__", observing)
        runtime.predict(compiled, x)  # first call: lanes in turn, unpinned
        assert seen == [(2, True), (2, True)]
        runtime.predict(compiled, x)  # automatic lanes
        runtime.predict(compiled, x, workers=2)  # explicit workers
        assert sorted(seen[2:]) == [(1, False)] * 3 + [(1, True)]
        assert runtime.blas.get_threads() == 2

    def test_restored_after_a_lane_raises(self, two_lanes, blas_at_two, monkeypatch):
        compiled = runtime.compile_model(patternnet(rng=np.random.default_rng(9)))
        x = np.random.default_rng(10).normal(size=(4, 3, 16, 16))
        runtime.predict(compiled, x)  # warm: both lanes fan out below
        caller = threading.get_ident()
        call = type(compiled).__call__

        def failing(self, chunk, **kwargs):
            if threading.get_ident() != caller:
                raise RuntimeError("lane failed")
            return call(self, chunk, **kwargs)

        monkeypatch.setattr(type(compiled), "__call__", failing)
        with pytest.raises(RuntimeError, match="lane failed"):
            runtime.predict(compiled, x)
        assert runtime.blas.get_threads() == 2

    def test_concurrent_calls_stay_pinned_until_the_last_ends(
        self, blas_at_two, monkeypatch
    ):
        from concurrent.futures import ThreadPoolExecutor

        compiled = runtime.compile_model(patternnet(rng=np.random.default_rng(11)))
        first = np.ones((4, 3, 16, 16))
        second = np.zeros((4, 3, 16, 16))
        second_done = threading.Event()
        seen = []
        call = type(compiled).__call__

        def gated(self, chunk, **kwargs):
            if chunk[0, 0, 0, 0] == 1.0:  # the first call's lanes
                assert second_done.wait(timeout=60)
                seen.append(runtime.blas.get_threads())
            return call(self, chunk, **kwargs)

        monkeypatch.setattr(type(compiled), "__call__", gated)
        with ThreadPoolExecutor(2) as pool_a, ThreadPoolExecutor(2) as pool_b:
            slow = threading.Thread(
                target=runtime.predict, args=(compiled, first),
                kwargs={"workers": 2, "executor": pool_a},
            )
            slow.start()
            runtime.predict(compiled, second, workers=2, executor=pool_b)
            second_done.set()
            slow.join(timeout=60)
        assert not slow.is_alive()
        assert seen == [1, 1]
        assert runtime.blas.get_threads() == 2

    def test_refcount_survives_thread_churn(self, blas_at_two):
        import sys

        inside = []

        def churn():
            for _ in range(50):
                with runtime.blas.pinned():
                    inside.append(runtime.blas.get_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 400
        assert runtime.blas.get_threads() == 2


class TestEffectiveCpuCount:
    """The CPU count that sizes predict's automatic lanes."""

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CPUS", "3")
        assert runtime.effective_cpu_count() == 3

    def test_invalid_override_falls_back_to_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CPUS", "zero")
        assert runtime.effective_cpu_count() >= 1
        monkeypatch.setenv("REPRO_TUNE_CPUS", "-2")
        assert runtime.effective_cpu_count() >= 1
