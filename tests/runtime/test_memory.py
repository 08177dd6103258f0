"""Memory tests for the compiled pipeline: each operand held once,
per-thread scratch slabs shared by every op, and byte accounting that
charges only what is really resident."""

import gc
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn, runtime
from repro.core import PCNNConfig, PCNNPruner
from repro.models import patternnet, resnet18_cifar
from repro.runtime.arena import Arena
from repro.runtime.compile import ConvOp, LinearOp
from repro.runtime.quant import QuantConvOp

SHAPE = (3, 16, 16)
BATCHES = (1, 3, 16, 3)


def _images(n, seed=0, shape=SHAPE):
    return np.random.default_rng(seed).normal(size=(n, *shape))


def _pruned_patternnet(n=2, num_patterns=8):
    """PatternNet (16, 32, 64), its convs lowered from SPM encodings:
    the two wider convs run Winograd. ``f32-gather`` below prunes to
    n=1/|P|=4, the narrow codebook the paper's SPM gather serves; it
    decodes like any other encoding."""
    model = patternnet(rng=np.random.default_rng(0))
    pruner = PCNNPruner(model, PCNNConfig.uniform(n, 3, num_patterns=num_patterns))
    pruner.apply()
    pruner.attach_encodings()
    return model


def _int8(model):
    return runtime.compile_model(model, quantize="int8", calibration=_images(8, seed=9))


def _int8_banded(model):
    """int8 PatternNet whose first conv runs in row bands and second in
    image bands (at batch 16; batch 1 fits one band)."""
    compiled = _int8(model)
    convs = [op for op in compiled.iter_ops() if isinstance(op, QuantConvOp)]
    assert all(op.int8_kernel == "blocked" for op in convs)
    convs[0].band_bytes = 1  # one output row per band
    image_bytes = 8 * 8 * (9 * 16 + 1) * 4  # conv1: 8x8 outputs, K = 144 + bias
    convs[1].band_bytes = 2 * image_bytes  # two images per band
    return compiled


def _int8_winograd(model):
    """int8 PatternNet whose two wider convs run the exact F(2x2) schedule
    (forced: the int8 tile rule wants more channels than PatternNet has),
    the last one in bands of one image."""
    compiled = _int8(model)
    convs = [op for op in compiled.iter_ops() if isinstance(op, QuantConvOp)]
    for op in convs[1:]:
        op.wino_m = 2
    convs[2].band_bytes = 1  # one image per band
    return compiled


#: name -> () -> compiled pipeline
PIPELINES = {
    "f32-winograd": lambda: runtime.compile_model(_pruned_patternnet()),
    "f32-gather": lambda: runtime.compile_model(_pruned_patternnet(1, 4)),
    "int8-bands": lambda: _int8_banded(_pruned_patternnet()),
    "int8-winograd": lambda: _int8_winograd(_pruned_patternnet()),
    "resnet18": lambda: runtime.compile_model(resnet18_cifar(rng=np.random.default_rng(2))),
}


def _convs(compiled):
    return [op for op in compiled.iter_ops() if isinstance(op, ConvOp)]


def _two_lane_forward(compiled):
    """One forward per thread on two threads, as two predict lanes run."""
    x = _images(8)
    lanes = [threading.Thread(target=compiled, args=(x[i::2],)) for i in range(2)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()


class TestOneCopy:
    def test_float_convs_hold_only_the_operand_they_multiply(self):
        compiled = runtime.compile_model(_pruned_patternnet())
        _two_lane_forward(compiled)
        convs = _convs(compiled)
        assert compiled.memory_report()["threads"] == 2
        assert all(op.encoded is not None for op in convs)
        kinds = [op.schedule_kind() for op in convs]
        assert kinds == ["im2col", "winograd4", "winograd4"]
        operands = 0
        for op in convs:
            assert op.weight is None  # the encoding is the only source copy
            assert op.encoded.cached_nbytes == 0  # decodes are transient
            if op.wino_m:
                assert op.weight_t is None
                operand = op._wino_u
            else:
                assert op._wino_u is None
                operand = op.weight_t
            assert op.derived_nbytes() == operand.nbytes
            operands += operand.nbytes
        assert compiled.memory_report()["derived"] == operands

    def test_int8_blocked_convs_hold_one_float_operand(self):
        compiled = _int8(_pruned_patternnet())
        _two_lane_forward(compiled)
        convs = _convs(compiled)
        assert convs and all(isinstance(op, QuantConvOp) for op in convs)
        for op in convs:
            assert op.int8_kernel == "blocked"
            assert op.weight_t is None
            assert op.encoded.cached_nbytes == 0
            k = 9 * op.c_in + int(op._bias_folded)
            assert sum(block.size for block in op._w_blocks) == k * op.c_out
            assert all(block.dtype == np.float32 for block in op._w_blocks)

    def test_int8_winograd_convs_hold_u_prime_and_no_span_blocks(self):
        compiled = _int8_winograd(_pruned_patternnet())
        _two_lane_forward(compiled)
        convs = _convs(compiled)
        assert [op.schedule_kind() for op in convs] == [
            "im2col+int8:blocked", "winograd2+int8:blocked", "winograd2+int8:blocked",
        ]
        for op in convs[1:]:
            assert op.weight_t is None and op._w_blocks is None
            assert op.encoded.cached_nbytes == 0
            assert op._wino_u.shape == (16, op.c_in, op.c_out)
            assert op._wino_u.dtype == np.float32
            assert op.derived_nbytes() == op._wino_u.nbytes + op._mult_cache.nbytes
        assert convs[0]._wino_u is None and convs[0]._w_blocks is not None

    def test_lower_never_materialises_dense_weights_of_encoded_convs(self):
        model = _pruned_patternnet()
        conv = next(m for m in model.modules() if hasattr(m, "inference_params"))
        assert conv.inference_params()["weight"] is None
        compiled = runtime.compile_model(model)
        encodings = sum(op.encoded.nbytes for op in _convs(compiled))
        biases = sum(op.bias.nbytes for op in _convs(compiled))
        head = sum(op.param_nbytes() for op in compiled.iter_ops() if not isinstance(op, ConvOp))
        assert compiled.memory_report()["parameters"] == encodings + biases + head


    def test_linear_operand_built_once_at_lowering(self):
        """Binding a compiled Linear at new batch sizes allocates only its
        activation buffers: every thunk shares the one transposed weight
        built at lowering, and memory_report() counts it."""
        model = nn.Sequential(nn.Flatten(), nn.Linear(2048, 2048, rng=np.random.default_rng(4)))
        compiled = runtime.compile_model(model)
        (linear,) = [op for op in compiled.ops if isinstance(op, LinearOp)]
        assert linear.weight_t.shape == (2048, 2048) and linear.weight_t.flags.c_contiguous
        operand_bytes = linear.weight_t.nbytes + linear.bias.nbytes
        assert compiled.memory_report()["parameters"] == operand_bytes
        assert compiled.dense_macs((2048, 1, 1)) == 2048 * 2048
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in (1, 2, 4, 8):
                compiled(np.ones((batch, 2048, 1, 1)))
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        report = compiled.memory_report()
        assert report["parameters"] == operand_bytes
        # The arenas hold the input casts and outputs of the four
        # geometries (0.35 MiB); a per-bind weight copy would add 16 MiB each.
        assert growth <= report["arenas"] + 2**18


class TestScratchSlabs:
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_interleaved_geometries_match_fresh_models(self, name, monkeypatch):
        """One thread, one model, batches 1, 3, 16, 3: every answer is
        bit-identical to a fresh model's answer for that batch alone.
        Slabs start as NaN bytes, so an op that reads scratch it did not
        write this call (say, a stale bias ones-column) answers NaN."""
        poisoned = staticmethod(lambda nbytes: np.full(nbytes, 0xFF, dtype=np.uint8))
        monkeypatch.setattr(Arena, "_new_slab", poisoned)
        compiled = PIPELINES[name]()
        for i, n in enumerate(BATCHES):
            x = _images(n, seed=10 + i)
            out = compiled(x)
            assert np.isfinite(out).all()
            np.testing.assert_array_equal(out, PIPELINES[name]()(x))
            np.testing.assert_array_equal(compiled(x), out)  # replayed

    def test_warm_thread_holds_one_slab_per_role_at_its_maximum(self, monkeypatch):
        requested, slabs = {}, []
        scratch, new_slab = Arena.scratch, Arena._new_slab

        def recording_scratch(self, role, shape, dtype):
            nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
            key = (id(self), role)
            requested[key] = max(requested.get(key, 0), nbytes)
            return scratch(self, role, shape, dtype)

        def tracked_slab(nbytes):
            slab = new_slab(nbytes)
            slabs.append(weakref.ref(slab))
            return slab

        monkeypatch.setattr(Arena, "scratch", recording_scratch)
        monkeypatch.setattr(Arena, "_new_slab", staticmethod(tracked_slab))
        models = [_int8_banded(_pruned_patternnet()), PIPELINES["f32-winograd"]()]
        slabs.clear()
        for model in models:
            for i, n in enumerate(BATCHES):
                model(_images(n, seed=i))
            model(_images(1))  # its trace was dropped when batch 16 grew a slab
        gc.collect()
        arenas = [model.arena for model in models]
        roles = [set(arena.slab_sizes()) for arena in arenas]
        assert {"cols", "acc", "tile"} <= roles[0]
        assert {"cols", "wv"} <= roles[1]  # Winograd: D then M, V then Y
        for arena in arenas:
            assert arena.growths > 0
            sizes = arena.slab_sizes()
            assert sizes == {role: requested[id(arena), role] for role in sizes}
            assert arena.nbytes == arena.tagged_nbytes + sum(sizes.values())
        # No trace pins a replaced slab: only the arenas' own survive.
        assert sum(ref() is not None for ref in slabs) == sum(map(len, roles))

    @pytest.mark.parametrize("name", ["f32-winograd", "int8-bands", "int8-winograd"])
    def test_release_round_trip_is_bit_identical(self, name):
        compiled = PIPELINES[name]()
        x = _images(5, seed=3)
        first = compiled(x)
        compiled.release_workspaces()
        assert compiled.memory_report()["arenas"] == 0
        compiled.release_derived()
        compiled.prepare_ops()
        np.testing.assert_array_equal(compiled(x), first)


class TestAccounting:
    def test_plans_charge_objects_not_implied_workspace(self):
        compiled = runtime.compile_model(_pruned_patternnet())
        _two_lane_forward(compiled)
        report = compiled.memory_report()
        assert compiled.plans.nbytes > 1 << 16  # the engine LRU's charge
        assert 0 < report["plans"] < 1 << 14
        assert compiled.resident_nbytes() == (
            report["derived"] + report["plans"] + report["arenas"]
        )

    def test_describe_ends_with_memory_line(self):
        compiled = runtime.compile_model(_pruned_patternnet())
        _two_lane_forward(compiled)
        last = compiled.describe().splitlines()[-1]
        assert last.startswith("  memory: parameters ")
        assert "derived" in last and "arenas" in last and last.endswith("2 thread(s)")
