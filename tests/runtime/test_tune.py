"""Tests for the cost-model/autotune pass and the tuning cache."""

import json

import numpy as np
import pytest

from repro import nn, runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet
from repro.runtime import tune as tune_mod
from repro.runtime.compile import ConvOp
from repro.runtime.tune import TuningCache


def pruned_model(n=1, patterns=4, seed=0):
    model = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(seed))
    pruner = PCNNPruner(model, PCNNConfig.uniform(n, 2, num_patterns=patterns))
    pruner.apply()
    pruner.attach_encodings()
    return model


SHAPE = (3, 16, 16)


class _Halver(nn.Module):
    """A module the lowerer does not know: it runs as a ModuleOp."""

    def forward(self, x):
        return x * 0.5


def reference_for(model, x):
    return runtime.predict(model, x)


class TestCostTuning:
    def test_cost_mode_measures_nothing_and_stays_correct(self, tmp_path):
        model = pruned_model()
        x = np.random.default_rng(1).normal(size=(4, *SHAPE))
        reference = reference_for(model, x)
        cache = TuningCache(path=str(tmp_path / "tune.json"))
        compiled = runtime.compile_model(
            model, tune="cost", input_shape=SHAPE, tuning_cache=cache
        )
        np.testing.assert_allclose(compiled(x), reference, rtol=1e-4, atol=1e-5)
        assert compiled.tuning.mode == "cost"
        assert all(row["source"] == "cost" for row in compiled.tuning.layers)
        # Zero measurement: the cost model never probes the cache either.
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_cost_model_overrides_gather_heuristic(self):
        """n=1/|P|=4 passes the static width rule (4 <= 9), but the
        analytic roofline charges the gathered A matrix's traffic and
        picks the dense decode — the documented disagreement."""
        model = pruned_model(n=1, patterns=4)
        static = runtime.compile_model(model)
        static_convs = [op for op in static.ops if isinstance(op, ConvOp)]
        assert all(op.use_gather for op in static_convs)
        tuned = runtime.compile_model(model, tune="cost", input_shape=SHAPE)
        tuned_convs = [op for op in tuned.ops if isinstance(op, ConvOp)]
        assert not any(op.use_gather for op in tuned_convs)
        assert tuned.tuning.changed_layers == len(tuned_convs)

    def test_tune_requires_input_shape(self):
        with pytest.raises(ValueError, match="input_shape"):
            runtime.compile_model(pruned_model(), tune="cost")

    def test_invalid_tune_mode_rejected(self):
        with pytest.raises(ValueError, match="'cost' or 'measure'"):
            runtime.compile_model(pruned_model(), tune="fastest", input_shape=SHAPE)

    def test_module_op_is_left_alone(self):
        """An unrecognised module lowers to a ModuleOp, which the tuner
        never schedules; it still tunes every conv through a probe
        forward (the ModuleOp hides the geometry from the static walk)."""
        opaque = _Halver()
        model = nn.Sequential(opaque, pruned_model())
        compiled = runtime.compile_model(model, tune="cost", input_shape=SHAPE)
        modules = [op for op in compiled.ops if type(op).__name__ == "ModuleOp"]
        assert [op.module for op in modules] == [opaque]
        convs = [op for op in compiled.ops if isinstance(op, ConvOp)]
        assert compiled.tuning.tuned_layers == len(convs) >= 1


class TestMeasuredTuning:
    def test_measure_persists_and_second_compile_hits(self, tmp_path):
        model = pruned_model()
        x = np.random.default_rng(2).normal(size=(4, *SHAPE))
        reference = reference_for(model, x)
        path = str(tmp_path / "tune.json")
        cache = TuningCache(path=path)
        first = runtime.compile_model(
            model, tune="measure", input_shape=SHAPE, tuning_cache=cache
        )
        np.testing.assert_allclose(first(x), reference, rtol=1e-4, atol=1e-5)
        assert first.tuning.cache_hits == 0 and first.tuning.cache_misses > 0
        stores_after_first = cache.stats.stores
        assert stores_after_first > 0

        # The persisted file is valid JSON holding the measured schedules.
        with open(path) as fh:
            payload = json.load(fh)
        from repro.runtime.tune import _CACHE_VERSION

        assert payload["version"] == _CACHE_VERSION and payload["entries"]

        # Second compile of the same model: every schedule comes from the
        # cache, nothing is re-measured or re-stored.
        second = runtime.compile_model(
            model, tune="measure", input_shape=SHAPE, tuning_cache=cache
        )
        assert second.tuning.cache_misses == 0
        assert second.tuning.cache_hits == first.tuning.cache_misses
        assert cache.stats.stores == stores_after_first
        assert all(row["source"] == "cache" for row in second.tuning.layers)
        np.testing.assert_allclose(second(x), reference, rtol=1e-4, atol=1e-5)

    def test_fresh_cache_object_reads_persisted_file(self, tmp_path):
        model = pruned_model()
        path = str(tmp_path / "tune.json")
        runtime.compile_model(
            model, tune="measure", input_shape=SHAPE, tuning_cache=TuningCache(path)
        )
        reread = TuningCache(path)
        compiled = runtime.compile_model(
            model, tune="measure", input_shape=SHAPE, tuning_cache=reread
        )
        assert compiled.tuning.cache_misses == 0

    def test_corrupt_cache_file_behaves_empty(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text("{not json")
        cache = TuningCache(str(path))
        assert cache.get("anything") is None
        cache.put("k", {"mode": "dense"})
        assert TuningCache(str(path)).get("k") == {"mode": "dense"}

    def test_predict_tune_end_to_end(self, tmp_path):
        model = pruned_model()
        x = np.random.default_rng(3).normal(size=(6, *SHAPE))
        reference = reference_for(model, x)
        out = runtime.predict(
            model,
            x,
            tune="measure",
            tuning_cache=TuningCache(str(tmp_path / "tune.json")),
        )
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    def test_tuned_schedule_carries_onto_quantized_pipeline(self, tmp_path):
        from repro.runtime.quant import QuantConvOp

        model = pruned_model()
        x = np.random.default_rng(4).normal(size=(8, *SHAPE))
        compiled = runtime.compile_model(
            model,
            tune="cost",
            input_shape=SHAPE,
            quantize="int8",
            calibration=x,
        )
        qconvs = [op for op in compiled.ops if isinstance(op, QuantConvOp)]
        assert qconvs and all(op.schedule is not None for op in qconvs)
        assert all(op.use_gather == (op.schedule.mode == "gather") for op in qconvs)


class TestMeasureTimesBoundThunks:
    """The tuner times the program a compiled forward runs: each probe
    binds once, and every timed call replays the bound thunk."""

    @staticmethod
    def _spy(monkeypatch):
        binds, calls = [], []
        original = ConvOp.bind

        def bind(self, x, state):
            thunk = original(self, x, state)
            binds.append((self.tag, x.shape))

            def counted(x_in):
                calls.append(self.tag)
                return thunk(x_in)

            return counted

        monkeypatch.setattr(ConvOp, "bind", bind)
        return binds, calls

    def test_one_bind_per_candidate_then_replays(self, tmp_path, monkeypatch):
        binds, calls = self._spy(monkeypatch)
        probes = []
        measure = tune_mod._measure_layer_ips

        def counting_measure(op, *args, **kwargs):
            probes.append(op.tag)
            return measure(op, *args, **kwargs)

        monkeypatch.setattr(tune_mod, "_measure_layer_ips", counting_measure)
        # The chunk tuner's whole-pipeline probes are covered below.
        monkeypatch.setattr(tune_mod, "_tune_chunk", lambda *a, **kw: None)
        runtime.compile_model(
            pruned_model(n=2, patterns=4),
            tune="measure",
            input_shape=SHAPE,
            tuning_cache=TuningCache(path=str(tmp_path / "tune.json")),
        )
        assert probes and len(binds) == len(probes)
        assert len(calls) == len(probes) * (1 + tune_mod._MEASURE_REPEATS)

    def test_chunk_probe_binds_each_chunk_shape_once(self, monkeypatch):
        compiled = runtime.compile_model(pruned_model())
        convs = [op for op in compiled.ops if isinstance(op, ConvOp)]
        binds, calls = self._spy(monkeypatch)
        tune_mod._measure_chunk_ips(compiled.ops, SHAPE, np.float32, batch=5, chunk=2)
        # Chunks of 2, 2 and 1 image: two geometries, each bound once
        # (the bind runs its first chunk), then two timed passes replay.
        assert len(binds) == 2 * len(convs)
        assert len(calls) == (2 + 2 * 3) * len(convs)


class TestSlabOverride:
    def test_slab_bytes_override_is_numerically_identical(self):
        model = pruned_model(n=2, patterns=4)
        x = np.random.default_rng(5).normal(size=(2, *SHAPE))
        compiled = runtime.compile_model(model)
        baseline = compiled(x)
        conv = next(op for op in compiled.ops if isinstance(op, ConvOp))
        # A tiny budget forces multi-slab tiling at any batch (the
        # budget is batch-adaptive: rows derive from it per call).
        variant = conv.clone_with(slab_bytes=4096)
        from repro.runtime.arena import Arena
        from repro.runtime.compile import _ExecState
        from repro.runtime.plan import PlanCache

        state = _ExecState(arena=Arena(), plans=PlanCache())
        probe = np.random.default_rng(6).normal(size=(2, 16, 16, 3)).astype(np.float32)
        default_out = conv.run(probe, state).copy()
        state2 = _ExecState(arena=Arena(), plans=PlanCache())
        slab_out = variant.run(probe, state2)
        np.testing.assert_allclose(slab_out, default_out, rtol=1e-5, atol=1e-6)
        assert baseline.shape[0] == 2  # compiled model unaffected


class TestSelectionConsolidation:
    """The gather-eligibility rule lives in tune.py, imported elsewhere."""

    def test_constants_have_one_home(self):
        from repro.runtime import compile as compile_mod
        from repro.runtime import engine

        assert compile_mod.GATHER_WIDTH_LIMIT is tune_mod.GATHER_WIDTH_LIMIT
        assert engine.GROUPED_EXPANSION_LIMIT is tune_mod.GROUPED_EXPANSION_LIMIT
        assert engine.TILE_THRESHOLD_ELEMENTS is tune_mod.TILE_THRESHOLD_ELEMENTS

    def test_prefer_gather_drives_lowering(self):
        narrow = pruned_model(n=1, patterns=4)  # 4 <= 9 -> gather
        wide = pruned_model(n=2, patterns=8)  # 16 > 9 -> decode
        narrow_ops = [
            op for op in runtime.compile_model(narrow).ops if isinstance(op, ConvOp)
        ]
        wide_ops = [
            op for op in runtime.compile_model(wide).ops if isinstance(op, ConvOp)
        ]
        assert all(op.use_gather for op in narrow_ops)
        assert not any(op.use_gather for op in wide_ops)
        for op in narrow_ops:
            assert tune_mod.prefer_gather(op.encoded, 9)
        for op in wide_ops:
            assert not tune_mod.prefer_gather(op.encoded, 9)


class TestArchPerLayerCost:
    def test_layer_costs_sum_to_network_cost(self):
        from repro.arch import inference_cost, inference_cost_by_layer
        from repro.models import profile_model, vgg16_cifar

        model = vgg16_cifar(rng=np.random.default_rng(0))
        profile = profile_model(model, (3, 32, 32), model_name="vgg")
        config = PCNNConfig.uniform(2, 13)
        whole = inference_cost(profile, config)
        layers = inference_cost_by_layer(profile, config)
        assert len(layers) == 13
        total_ms = sum(c.latency_ms for c in layers.values())
        np.testing.assert_allclose(total_ms, whole.latency_ms, rtol=1e-9)

    def test_conv_layer_cost_roofline(self):
        from repro.arch import conv_layer_cost

        small = conv_layer_cost(out_hw=(4, 4), c_in=8, c_out=8, kernel_size=3)
        assert small.cycles == max(small.compute_cycles, small.memory_cycles)
        wide = conv_layer_cost(
            out_hw=(4, 4), c_in=8, c_out=8, kernel_size=3, contraction_width=8 * 18
        )
        assert wide.macs == 2 * small.macs  # double-width contraction
        assert wide.latency_ms >= small.latency_ms


class TestEffectiveCpuCount:
    """The CPU count that keys the tuning cache and sizes predict lanes."""

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CPUS", "3")
        assert runtime.effective_cpu_count() == 3

    def test_invalid_override_falls_back_to_affinity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_CPUS", "zero")
        assert runtime.effective_cpu_count() >= 1
        monkeypatch.setenv("REPRO_TUNE_CPUS", "-2")
        assert runtime.effective_cpu_count() >= 1
