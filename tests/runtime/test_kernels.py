"""Property tests for the kernel-level fast paths.

The claims, each checked over randomly drawn geometries rather than a
handful of fixtures:

- the compiled Winograd F(m,3) schedules (m = 2, 4) agree with the eager
  im2col conv across the whole eligibility boundary (tiny outputs,
  partial edge tiles, odd sizes, both paddings, dense and SPM-decoded
  weights, float32/float64);
- the blocked int8 GEMM kernel is *bit-identical* to the reference
  integer GEMM — including ragged K tails around ``INT8_BLOCK_K``,
  ``k == 0`` and empty batches — which is the exactness certificate the
  int8 serving path rests on;
- the exact int8 F(2x2,3x3) schedule is bit-identical to the same
  reference on integer codes (multi-span and float64-staged included),
  and int8 logits do not depend on which int8 convs run it;
- a compiled forward's first call (bind) and its replays are
  bit-identical and match eager within the per-domain tolerance, for
  every op and schedule, SPM convs included (they decode their
  encoding and run the same static schedules as dense convs).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import nn, runtime
from repro.core import (
    PCNNConfig,
    PCNNPruner,
    SPMCodebook,
    encode_layer,
    enumerate_patterns,
    project_to_patterns,
)
from repro.models import patternnet
from repro.runtime import winograd
from repro.runtime.compile import ConvOp, _ExecState
from repro.runtime.quant import (
    INT8_BLOCK_K,
    QuantConvOp,
    int8_gemm_int32,
    int8_gemm_int32_blocked,
)


def compiled_winograd(x, m, weight=None, encoded=None, padding=1):
    """One compiled Winograd F(m x m, 3x3) ``ConvOp`` on an NCHW batch.

    ``dtype=None`` keeps the parameters' precision, so float64 inputs
    run the transforms in float64.
    """
    c_out, c_in = (encoded.shape if encoded is not None else weight.shape)[:2]
    op = ConvOp(
        stride=1, padding=padding, kernel=(3, 3), c_in=c_in, c_out=c_out,
        tag="wino", weight=weight, encoded=encoded, wino_m=m,
    )
    assert op.schedule_kind() == f"winograd{m}"
    state = _ExecState(arena=runtime.Arena(), plans=runtime.PlanCache())
    out = op.run(np.ascontiguousarray(x.transpose(0, 2, 3, 1)), state)
    return out.transpose(0, 3, 1, 2)


class TestWinogradProperty:
    """The compiled Winograd schedule vs the eager im2col conv over the
    eligibility boundary."""

    @settings(max_examples=40, deadline=None)
    @given(
        h=st.integers(min_value=3, max_value=13),
        w=st.integers(min_value=3, max_value=13),
        c_in=st.sampled_from([1, 3, 4, 16]),
        c_out=st.sampled_from([2, 8]),
        padding=st.integers(min_value=0, max_value=1),
        batch=st.integers(min_value=1, max_value=3),
        m=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_dense_matches_im2col(self, h, w, c_in, c_out, padding, batch, m, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, 3, 3))
        reference = runtime.dispatch(x, weight, padding=padding)
        out = compiled_winograd(x, m, weight=weight, padding=padding)
        # float64 compute: the transforms round at machine epsilon, far
        # inside the repo-wide 1e-4 equivalence budget.
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        hw=st.integers(min_value=4, max_value=11),
        n=st.integers(min_value=1, max_value=4),
        num_patterns=st.sampled_from([2, 4, 8]),
        m=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_spm_decoded_matches_im2col(self, hw, n, num_patterns, m, seed):
        rng = np.random.default_rng(seed)
        patterns = enumerate_patterns(n)[:num_patterns]
        weight = project_to_patterns(rng.normal(size=(8, 4, 3, 3)), patterns)
        encoded = encode_layer(weight, SPMCodebook(patterns))
        x = rng.normal(size=(2, 4, hw, hw))
        reference = runtime.dispatch(x, encoded=encoded, padding=1)
        out = compiled_winograd(x, m, encoded=encoded)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        hw=st.sampled_from([4, 6, 9, 16]),
        m=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_float32_within_equivalence_budget(self, hw, m, seed):
        """float32 Winograd stays inside the repo-wide 1e-4 budget."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 16, hw, hw)).astype(np.float32)
        weight = rng.normal(size=(8, 16, 3, 3)).astype(np.float32)
        reference = runtime.dispatch(x, weight, padding=1)
        out = compiled_winograd(x, m, weight=weight)
        assert out.dtype == np.float32
        scale = max(1.0, float(np.abs(reference).max()))
        assert float(np.abs(out - reference).max()) / scale <= 1e-4

    @pytest.mark.parametrize("pruned", [False, True])
    def test_compiled_pipeline_winograd_vs_im2col(self, pruned):
        """compile_model(winograd=True) vs winograd=False, end to end."""
        model = patternnet(rng=np.random.default_rng(3))
        if pruned:
            pruner = PCNNPruner(model, PCNNConfig.uniform(2, 3, num_patterns=8))
            pruner.apply()
            pruner.attach_encodings()
        x = np.random.default_rng(4).normal(size=(3, 3, 16, 16))
        wino = runtime.compile_model(model)
        gemm = runtime.compile_model(model, winograd=False)
        assert float(np.abs(wino(x) - gemm(x)).max()) <= 1e-4

    def test_ineligible_geometry_rejected(self):
        """F(m, 3) covers 3x3 stride-1 convs only: no tile is offered
        for stride 2 or a 5x5 kernel."""
        assert winograd.eligible_tiles(kernel=(3, 3), stride=1, out_hw=(8, 8), c_in=4)
        assert winograd.eligible_tiles(kernel=(3, 3), stride=2, out_hw=(8, 8), c_in=4) == ()
        assert winograd.eligible_tiles(kernel=(5, 5), stride=1, out_hw=(8, 8), c_in=4) == ()


class TestInt8KernelExactness:
    """The blocked kernel's bit-identity certificate, property-checked."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=0, max_value=2 * INT8_BLOCK_K + 37),
        m=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_blocked_bit_identical_to_reference(self, n, k, m, seed):
        """Every realisable code GEMM — ragged K tails, k == 0, empty
        batches — accumulates to exactly the int32 reference values."""
        rng = np.random.default_rng(seed)
        a = rng.integers(-127, 128, size=(n, k)).astype(np.int8)
        b = rng.integers(-127, 128, size=(k, m)).astype(np.int8)
        out = int8_gemm_int32_blocked(a, b)
        reference = int8_gemm_int32(a, b)
        assert out.dtype == np.float64
        assert np.array_equal(out, reference.astype(np.float64))

    @settings(max_examples=15, deadline=None)
    @given(
        k=st.sampled_from(
            [1, INT8_BLOCK_K - 1, INT8_BLOCK_K, INT8_BLOCK_K + 1, 3 * INT8_BLOCK_K]
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_float32_columns_accumulate_exactly(self, k, seed):
        """The pipeline hands in float32 columns cast off int8 buffers;
        the kernel must stay exact on them too."""
        rng = np.random.default_rng(seed)
        a8 = rng.integers(-127, 128, size=(17, k)).astype(np.int8)
        b = rng.integers(-127, 128, size=(k, 9)).astype(np.int8)
        out = int8_gemm_int32_blocked(a8.astype(np.float32), b)
        assert np.array_equal(out, int8_gemm_int32(a8, b).astype(np.float64))

    def test_worst_case_saturated_codes(self):
        """All-(+127) x all-(-127) at a K past the block bound — the
        largest-magnitude accumulation the certificate covers."""
        k = 2 * INT8_BLOCK_K + 1
        a = np.full((3, k), 127, dtype=np.int8)
        b = np.full((k, 2), -127, dtype=np.int8)
        out = int8_gemm_int32_blocked(a, b)
        assert np.all(out == -(127 * 127) * k)

    def test_single_block_float32_out_fast_path(self):
        """k <= INT8_BLOCK_K with a float32 out skips staging, exactly."""
        rng = np.random.default_rng(11)
        a = rng.integers(-127, 128, size=(13, INT8_BLOCK_K)).astype(np.int8)
        b = rng.integers(-127, 128, size=(INT8_BLOCK_K, 7)).astype(np.int8)
        out = np.empty((13, 7), dtype=np.float32)
        int8_gemm_int32_blocked(a, b, out=out)
        assert np.array_equal(out.astype(np.int64), int8_gemm_int32(a, b))


def _int8_winograd_conv(codes, c_in, c_out, bias, spm):
    """A compiled int8 ``QuantConvOp`` forced onto F(2x2,3x3): unit
    scales and a float64 carry, so its output is the raw integer
    accumulator. ``codes`` is ``(C_out, C_in, 3, 3)`` int8."""
    encoded = codes_int8 = None
    if spm:
        encoded = encode_layer(codes.astype(np.float64), SPMCodebook(enumerate_patterns(2)))
    else:
        codes_int8 = codes.transpose(0, 2, 3, 1).reshape(c_out, -1)
    return QuantConvOp(
        stride=1, padding=1, kernel=(3, 3), c_in=c_in, c_out=c_out, tag="q",
        encoded=encoded, codes_int8=codes_int8, bias_q=bias, wino_m=2,
        epilogue=runtime.Epilogue(), _prepared=True, w_scale=np.ones((1, c_out)),
        int8_kernel="blocked", emit_int8=True,
    )


def _int8_conv_reference(x, codes, bias):
    """``int8_gemm_int32`` over the padded input's 3x3 windows (NHWC)."""
    n, h, w, c = x.shape
    pad = np.zeros((n, h + 2, w + 2, c), dtype=np.int8)
    pad[:, 1:-1, 1:-1] = x
    cols = np.concatenate(
        [pad[:, i : i + h, j : j + w] for i in range(3) for j in range(3)], axis=-1
    )
    rows = codes.transpose(2, 3, 1, 0).reshape(9 * c, -1)
    out = int8_gemm_int32(cols.reshape(n * h * w, 9 * c), rows)
    if bias is not None:
        out = out + bias.astype(np.int32)
    return out.reshape(n, h, w, codes.shape[0])


class TestInt8Winograd:
    """The exact integer F(2x2,3x3) schedule equals the int32 reference GEMM."""

    @settings(max_examples=30, deadline=None)
    @given(
        h=st.integers(min_value=1, max_value=9),
        w=st.integers(min_value=1, max_value=9),
        batch=st.sampled_from([0, 1, 7]),
        c_in=st.sampled_from([16, 17, 64, 256]),
        c_out=st.sampled_from([1, 5, 16]),
        spm=st.booleans(),
        saturated=st.booleans(),
        bias=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(h=5, w=7, batch=7, c_in=256, c_out=5, spm=False, saturated=True, bias=True, seed=1)
    @example(h=9, w=4, batch=1, c_in=256, c_out=16, spm=True, saturated=True, bias=False, seed=2)
    def test_bit_identical_to_int32_reference(
        self, h, w, batch, c_in, c_out, spm, saturated, bias, seed
    ):
        rng = np.random.default_rng(seed)
        if saturated:  # all +-127: several spans and float64 staging
            x = rng.choice([-127, 127], size=(batch, h, w, c_in)).astype(np.int8)
            codes = rng.choice([-127, 127], size=(c_out, c_in, 3, 3))
        else:
            x = rng.integers(-127, 128, size=(batch, h, w, c_in)).astype(np.int8)
            codes = rng.integers(-127, 128, size=(c_out, c_in, 3, 3))
        if spm:  # n = 2 non-zeros per kernel, on PCNN patterns
            codes = project_to_patterns(codes.astype(np.float64), enumerate_patterns(2))
        codes = codes.astype(np.int8)
        bias_q = rng.integers(-1000, 1000, size=(1, c_out)).astype(np.float64) if bias else None
        op = _int8_winograd_conv(codes, c_in, c_out, bias_q, spm)
        state = _ExecState(arena=runtime.Arena(), plans=runtime.PlanCache())
        out = op.run(x, state)
        assert op.schedule_kind() == "winograd2+int8:blocked"
        assert op._w_blocks is None  # U' is the only operand
        reference = _int8_conv_reference(x, codes, bias_q)
        assert out.dtype == np.float64
        assert np.array_equal(out, reference.astype(np.float64))
        if saturated and c_in == 256:
            assert len(op._wino_spans) > 1 and op._wino_stage == np.float64

    @pytest.mark.parametrize("name", ["vgg16", "resnet18", "patternnet"])
    def test_int8_logits_identical_with_and_without_winograd(self, name):
        """int8 logits are byte-identical whichever schedule the int8
        convs run: the tile rule's choice, every eligible int8 conv forced
        onto F(2x2), or the column GEMM (``winograd=False``)."""
        from repro.models import resnet18_cifar, vgg16_cifar

        build = {"vgg16": vgg16_cifar, "resnet18": resnet18_cifar}.get(name)
        if build is None:  # SPM codes, decoded into the dense operands
            model = _pruned_patternnet(patterns=8)
        else:
            model = build(rng=np.random.default_rng(5))
        size = 16 if build is None else 32
        x = np.random.default_rng(6).normal(size=(3, 3, size, size))

        def compiled(winograd, force=None):
            c = runtime.compile_model(model, quantize="int8", calibration=x, winograd=winograd)
            for op in c.iter_ops():
                if isinstance(op, QuantConvOp) and force is not None:
                    op.wino_m = force if op.int8_kernel and tuple(op.kernel) == (3, 3) else 0
            return c

        ruled = compiled(True)
        logits = ruled(x)
        kinds = [op.schedule_kind() for op in ruled.iter_ops() if isinstance(op, QuantConvOp)]
        if name == "vgg16":
            assert sum(kind.startswith("winograd2") for kind in kinds) >= 5
        forced = compiled(True, force=2)
        assert np.array_equal(forced(x), logits)
        assert any(op.wino_m == 2 for op in forced.iter_ops() if isinstance(op, QuantConvOp))
        assert np.array_equal(compiled(True, force=0)(x), logits)
        if name != "resnet18":  # its float residual convs run float Winograd
            assert np.array_equal(compiled(False)(x), logits)


class _Doubler(nn.Module):
    """A module the lowerer does not know: it runs as a ModuleOp."""

    def forward(self, x):
        return x * 2.0


def _pruned_patternnet(seed=7, n=2, patterns=4):
    model = patternnet(rng=np.random.default_rng(seed))
    pruner = PCNNPruner(model, PCNNConfig.uniform(n, 3, num_patterns=patterns))
    pruner.apply()
    pruner.attach_encodings()
    return model


class TestBoundExecutor:
    """Every compiled forward runs bound thunks: the first call at a
    shape binds (and runs) them, later calls replay them. First call and
    replay are bit-identical, and both match eager within the per-domain
    tolerance: 1e-9 in float64, 1e-5 in float32, the
    QuantizationReport bound (relative L2) in int8."""

    @staticmethod
    def _check(compiled, model, x, tol=None):
        first = compiled(x)
        replay = compiled(x)
        np.testing.assert_array_equal(first, replay)
        reference = runtime.predict(model, x)  # eager float64
        if compiled.quantization is not None:
            bound = compiled.quantization.error_threshold
            rel = np.linalg.norm(first - reference) / np.linalg.norm(reference)
            assert rel <= bound, (rel, bound)
        else:
            np.testing.assert_allclose(first, reference, rtol=tol, atol=tol)

    @pytest.mark.parametrize("quantize", [None, "int8"], ids=["f32", "int8"])
    def test_gather_patternnet_across_shapes(self, quantize):
        """The serving model (n=2, |P|=4, the geometry the paper's SPM
        gather serves): every conv decodes its encoding and runs the
        static schedule a dense conv of its shape would."""
        model = _pruned_patternnet()
        rng = np.random.default_rng(8)
        calib = rng.normal(size=(4, 3, 16, 16))
        compiled = runtime.compile_model(model, quantize=quantize, calibration=calib)
        for batch in (1, 3, 1, 2):  # shape changes mid-stream re-bind
            self._check(compiled, model, rng.normal(size=(batch, 3, 16, 16)), 1e-5)
        assert len(compiled._state().traces) == 3
        convs = [op for op in compiled.iter_ops() if isinstance(op, ConvOp)]
        assert len(convs) == 3 and all(op.encoded is not None for op in convs)
        # int8: every conv is narrower than the int8 Winograd rule's c_in.
        expected = ["im2col"] * 3 if quantize else ["im2col", "winograd4", "winograd4"]
        assert [row["kind"].split("+")[0] for row in compiled.schedule_summary()] == expected

    @pytest.mark.parametrize("pruned", [False, True], ids=["dense", "gather"])
    @pytest.mark.parametrize("slab_bytes", [4096, 12000, 1 << 17])
    def test_small_slab_bytes_forces_bands(self, pruned, slab_bytes):
        """A small per-op workspace budget (``band_bytes``) splits the
        column GEMM into bands of output rows (one image outgrows it) or
        of whole images, with ragged last bands — SPM convs (``gather``:
        the n=2, |P|=4 model) decoded like dense ones."""
        model = _pruned_patternnet() if pruned else patternnet(
            rng=np.random.default_rng(7)
        )
        # float64, every conv on the column GEMM
        compiled = runtime.compile_model(model, dtype=None, winograd=False)
        convs = [op for op in compiled.ops if isinstance(op, ConvOp)]
        assert len(convs) == 3
        assert all((op.encoded is not None) == pruned for op in convs)
        for op in convs:
            op.band_bytes = slab_bytes
        assert all(row["kind"] == "im2col" for row in compiled.schedule_summary())
        rng = np.random.default_rng(9)
        for batch in (1, 3):
            self._check(compiled, model, rng.normal(size=(batch, 3, 16, 16)), 1e-9)

    def test_resnet18_residual_and_padded_maxpool(self):
        from repro.models import resnet18_imagenet

        model = resnet18_imagenet(num_classes=10, rng=np.random.default_rng(10))
        compiled = runtime.compile_model(model, dtype=None)
        kinds = {type(op).__name__ for op in compiled.iter_ops()}
        assert {"ResidualOp", "MaxPoolOp"} <= kinds
        assert any(
            type(op).__name__ == "MaxPoolOp" and op.padding > 0 for op in compiled.ops
        )
        x = np.random.default_rng(11).normal(size=(2, 3, 32, 32))
        self._check(compiled, model, x, 1e-9)

    def test_standalone_bn_avgpool_and_module_fallback(self):
        rng = np.random.default_rng(12)
        bn = nn.BatchNorm2d(3)
        bn.running_mean = rng.normal(size=3)
        bn.running_var = rng.uniform(0.5, 2.0, size=3)
        model = nn.Sequential(
            bn,
            nn.ReLU(),
            nn.Conv2d(3, 8, 3, padding=1, rng=rng),
            nn.AvgPool2d(2),
            _Doubler(),
            nn.Conv2d(8, 8, 3, padding=1, rng=rng),
            nn.Flatten(),
            nn.Linear(8 * 4 * 4, 5, rng=rng),
        )
        for dtype, tol in ((None, 1e-9), (np.float32, 1e-5)):
            compiled = runtime.compile_model(model, dtype=dtype)
            kinds = [type(op).__name__ for op in compiled.ops]
            assert {"BatchNormOp", "AvgPoolOp", "ModuleOp"} <= set(kinds)
            self._check(compiled, model, rng.normal(size=(2, 3, 8, 8)), tol)

    @pytest.mark.parametrize("pruned", [False, True], ids=["dense", "gather"])
    def test_int8_float_carried_bands(self, pruned):
        """kernel="float" carries codes in float arrays through the same
        band schedules, SPM convs (``gather``: n=2, |P|=4) decoded."""
        from repro.runtime.quant import QuantizationConfig

        model = _pruned_patternnet() if pruned else patternnet(
            rng=np.random.default_rng(7)
        )
        x = np.random.default_rng(13).normal(size=(3, 3, 16, 16))
        compiled = runtime.compile_model(
            model, quantize=QuantizationConfig(kernel="float"), calibration=x
        )
        qconvs = [op for op in compiled.ops if type(op).__name__ == "QuantConvOp"]
        assert len(qconvs) == 3 and not any(op.int8_kernel for op in qconvs)
        assert all((op.encoded is not None) == pruned for op in qconvs)
        assert all(op.schedule_kind() == "im2col+int8:float" for op in qconvs)
        for op in qconvs:
            op.band_bytes = 4096
        self._check(compiled, model, x)

    def test_schedule_summary_names_kernel_schedules(self):
        model = _pruned_patternnet()
        x = np.random.default_rng(10).normal(size=(2, 3, 16, 16))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        compiled(x)  # resolve winograd-auto markers
        rows = compiled.schedule_summary()
        assert rows and all({"tag", "op", "kind"} <= set(row) for row in rows)
        qrows = [row for row in rows if row["op"] == "QuantConvOp"]
        # Quantized convs always disclose their int8 kernel resolution in
        # the kind string ("+int8:<kernel>", "float" when float-carried);
        # dense-GEMM quant layers additionally expose row["int8_kernel"].
        assert qrows and all("int8:" in row["kind"] for row in qrows)
