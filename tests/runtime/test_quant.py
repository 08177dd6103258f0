"""Tests for the int8 execution path (repro.runtime.quant).

Covers the weight/activation quantizers, exact int32 accumulation of
the float-carried GEMM, the compiled quantized pipeline across
{per-tensor, per-kernel} x {dense, SPM} configurations, calibration
determinism, per-layer float fallback, and the serving plumbing
(quantized bundle end to end is covered in
tests/serving/test_server.py).
"""

import numpy as np
import pytest

from repro import runtime
from repro.core import PCNNConfig, PCNNPruner, SPMCodebook, encode_layer, enumerate_patterns, project_to_patterns
from repro.models import patternnet, vgg16_cifar
from repro.runtime import QuantizationConfig
from repro.runtime.quant import (
    DequantizeOp,
    QuantConvOp,
    QuantizeOp,
    int8_gemm_int32,
    quantize_encoded_values,
    quantize_weight_codes,
    resolve_quantization,
)


class TestQuantizers:
    def test_per_kernel_scales_and_roundtrip(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 36))
        config = QuantizationConfig()
        codes, scales, error = quantize_weight_codes(w, config)
        assert codes.dtype == np.int8
        assert scales.shape == (8,)
        assert np.abs(codes).max() <= 127
        # Each row's peak maps exactly onto +-qmax.
        recon = codes.astype(np.float64) * scales[:, None]
        np.testing.assert_allclose(
            np.abs(recon).max(axis=1), np.abs(w).max(axis=1), rtol=1e-12
        )
        assert 0 < error < 0.05

    def test_per_tensor_single_scale(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 9))
        codes, scales, _ = quantize_weight_codes(
            w, QuantizationConfig(granularity="per_tensor")
        )
        assert len(set(scales.tolist())) == 1
        assert scales[0] == pytest.approx(np.abs(w).max() / 127)

    def test_zero_rows_quantize_losslessly(self):
        codes, scales, error = quantize_weight_codes(
            np.zeros((3, 9)), QuantizationConfig()
        )
        assert not codes.any() and error == 0.0
        assert (scales == 1.0).all()

    def test_encoded_values_grouped_per_filter(self):
        """SPM quantization scales the (kernels, n) sequences per filter."""
        rng = np.random.default_rng(2)
        patterns = enumerate_patterns(2)[:8]
        weight = project_to_patterns(rng.normal(size=(4, 3, 3, 3)), patterns)
        encoded = encode_layer(weight, SPMCodebook(patterns))
        codes, scales, _ = quantize_encoded_values(encoded, QuantizationConfig())
        assert codes.shape == encoded.values.shape
        assert scales.shape == (4,)
        # The scale of filter f is set by the peak over its C_in kernels.
        per_filter = np.abs(encoded.values).reshape(4, -1).max(axis=1)
        np.testing.assert_allclose(scales, per_filter / 127)

    def test_resolve_quantization_forms(self):
        assert resolve_quantization(None) is None
        assert resolve_quantization(False) is None
        assert resolve_quantization(True).bits == 8
        assert resolve_quantization("int8").bits == 8
        assert resolve_quantization("int6").bits == 6
        assert resolve_quantization(4).bits == 4
        config = QuantizationConfig(mode="dequantize")
        assert resolve_quantization(config) is config
        with pytest.raises(ValueError, match="unknown quantization spec"):
            resolve_quantization("fp8")
        with pytest.raises(ValueError, match="granularity"):
            QuantizationConfig(granularity="per_row")
        with pytest.raises(ValueError, match="mode"):
            QuantizationConfig(mode="clip")
        for kernel in ("auto", "numba", "reference"):
            with pytest.raises(ValueError, match="'blocked' or 'float'"):
                QuantizationConfig(kernel=kernel)


class TestExactAccumulation:
    def test_float_carried_gemm_matches_int32(self):
        """The BLAS float GEMM on codes is bit-identical to int32 MACs."""
        rng = np.random.default_rng(4)
        a = rng.integers(-127, 128, size=(64, 288)).astype(np.int8)
        b = rng.integers(-127, 128, size=(288, 16)).astype(np.int8)
        exact = int8_gemm_int32(a, b)
        carried64 = a.astype(np.float64) @ b.astype(np.float64)
        np.testing.assert_array_equal(carried64, exact.astype(np.float64))
        carried32 = a.astype(np.float32) @ b.astype(np.float32)
        # float32 is exact while accumulators stay within 2^24.
        assert np.abs(exact).max() < 2**24
        np.testing.assert_array_equal(carried32, exact.astype(np.float32))


def _models():
    dense = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(0))
    spm = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(0))
    pruner = PCNNPruner(spm, PCNNConfig.uniform(2, 2, num_patterns=8))
    pruner.apply()
    pruner.attach_encodings()
    gather = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(0))
    pruner = PCNNPruner(gather, PCNNConfig.uniform(1, 2, num_patterns=4))
    pruner.apply()
    pruner.attach_encodings()
    return {"dense": dense, "spm": spm, "spm_gather": gather}


class TestCompiledQuantizedPipeline:
    @pytest.mark.parametrize("granularity", ["per_kernel", "per_tensor"])
    @pytest.mark.parametrize("mode", ["requantize", "dequantize"])
    @pytest.mark.parametrize("kind", ["dense", "spm", "spm_gather"])
    def test_close_to_float_and_top1_agreement(self, granularity, mode, kind):
        model = _models()[kind]
        rng = np.random.default_rng(9)
        x = rng.normal(size=(16, 3, 12, 12))
        reference = runtime.predict(model, x)
        config = QuantizationConfig(granularity=granularity, mode=mode)
        compiled = runtime.compile_model(model, quantize=config, calibration=x[:8])
        assert compiled.quantization is not None
        assert compiled.quantization.quantized_layers == 2
        out = compiled(x)
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.05, (kind, granularity, mode, rel)
        agree = (out.argmax(axis=1) == reference.argmax(axis=1)).mean()
        assert agree == 1.0

    def test_quant_ops_in_pipeline(self):
        """Requantize mode: one entry QuantizeOp, codes flow conv-to-conv."""
        model = _models()["dense"]
        x = np.random.default_rng(10).normal(size=(4, 3, 12, 12))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        kinds = [type(op) for op in compiled.ops]
        assert kinds.count(QuantizeOp) == 1
        assert kinds.count(DequantizeOp) == 0  # last conv dequantizes itself
        qconvs = [op for op in compiled.ops if isinstance(op, QuantConvOp)]
        assert len(qconvs) == 2
        assert qconvs[0].out_scale is not None  # requantizes to codes
        assert qconvs[1].out_scale is None  # region exit: dequantize epilogue
        assert qconvs[0].codes_int8.dtype == np.int8

    def test_spm_weight_codes_stay_sparse(self):
        """SPM quantization stores only the non-zero sequences as codes."""
        model = _models()["spm"]
        x = np.random.default_rng(11).normal(size=(4, 3, 12, 12))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        qconvs = [op for op in compiled.ops if isinstance(op, QuantConvOp)]
        for op in qconvs:
            assert op.encoded is not None
            # The GEMM operand decodes the codes; its zero pattern matches
            # the pruning pattern exactly (zeros never get a code).
            assert op.encoded.values.shape[1] == 2  # n non-zeros per kernel

    def test_calibration_determinism_under_fixed_rng(self):
        model = _models()["spm"]
        x = np.random.default_rng(12).normal(size=(4, 3, 12, 12))

        def build():
            calibration = np.random.default_rng(99).normal(size=(8, 3, 12, 12))
            return runtime.compile_model(model, quantize="int8", calibration=calibration)

        a, b = build(), build()
        np.testing.assert_array_equal(a(x), b(x))
        for row_a, row_b in zip(a.quantization.layers, b.quantization.layers):
            assert row_a == row_b

    def test_calibration_required(self):
        model = _models()["dense"]
        with pytest.raises(ValueError, match="calibration"):
            runtime.compile_model(model, quantize="int8")
        with pytest.raises(ValueError, match="calibration"):
            runtime.compile_model(
                model, quantize="int8", calibration=np.zeros((0, 3, 12, 12))
            )

    def test_per_layer_float_fallback_triggers(self):
        """An outlier-poisoned layer exceeds the per-tensor error bound
        and stays float; per-kernel scales absorb the outlier."""
        model = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(0))
        convs = [m for m in model.modules() if type(m).__name__ == "Conv2d"]
        convs[1].weight.data[0, 0, 0, 0] = 500.0
        x = np.random.default_rng(13).normal(size=(8, 3, 12, 12))
        reference = runtime.predict(model, x)

        per_tensor = runtime.compile_model(
            model,
            quantize=QuantizationConfig(granularity="per_tensor"),
            calibration=x,
        )
        assert per_tensor.quantization.fallback_layers == 1
        assert per_tensor.quantization.quantized_layers == 1
        row = per_tensor.quantization.layers[1]
        assert not row["quantized"] and "error" in row["reason"]
        # The fallback conv still runs (as float), end to end.
        out = per_tensor(x)
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.05

        per_kernel = runtime.compile_model(model, quantize="int8", calibration=x)
        assert per_kernel.quantization.fallback_layers == 0

    def test_module_op_stays_float(self):
        """An unrecognised module lowers to a ModuleOp and is never
        quantized; the conv trunk after it still is."""
        from repro import nn

        class Halver(nn.Module):
            def forward(self, x):
                return x * 0.5

        opaque = Halver()
        model = nn.Sequential(opaque, _models()["dense"])
        convs = [m for m in model.modules() if type(m).__name__ == "Conv2d"]
        x = np.random.default_rng(14).normal(size=(4, 3, 12, 12))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        modules = [op for op in compiled.ops if type(op).__name__ == "ModuleOp"]
        assert [op.module for op in modules] == [opaque]
        assert len(compiled.quantization.layers) == len(convs)
        assert compiled.quantization.fallback_layers == 0
        reference = runtime.predict(model, x)
        rel = np.linalg.norm(compiled(x) - reference) / np.linalg.norm(reference)
        assert rel < 0.05

    def test_predict_quantize_roundtrip(self):
        """predict(quantize=...) compiles, calibrates on x, and serves."""
        model = _models()["spm"]
        x = np.random.default_rng(16).normal(size=(8, 3, 12, 12))
        reference = runtime.predict(model, x)
        stats = runtime.PredictStats()
        out = runtime.predict(model, x, quantize="int8", stats=stats)
        assert stats.compiled
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.05

    def test_predict_quantize_rejects_float_compiled_model(self):
        """quantize= on an already-lowered float pipeline must fail loudly,
        not silently serve float while the caller believes it is int8."""
        model = _models()["dense"]
        x = np.random.default_rng(20).normal(size=(4, 3, 12, 12))
        float_compiled = runtime.compile_model(model)
        with pytest.raises(ValueError, match="already-compiled"):
            runtime.predict(float_compiled, x, quantize="int8")
        # An already-quantized compiled model passes through untouched.
        int8_compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        out = runtime.predict(int8_compiled, x, quantize="int8")
        np.testing.assert_array_equal(out, int8_compiled(x))

    def test_empty_batch_and_workers(self):
        model = _models()["dense"]
        x = np.random.default_rng(17).normal(size=(8, 3, 12, 12))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        empty = runtime.predict(compiled, np.zeros((0, 3, 12, 12)))
        assert empty.shape == (0, 4)
        full = runtime.predict(compiled, x)
        split = runtime.predict(compiled, x, micro_batch=3, workers=2)
        np.testing.assert_allclose(split, full, rtol=1e-5, atol=1e-6)

    def test_vgg16_bn_folding_then_quantization(self):
        """BN-heavy model: fold first, then quantize the folded weights."""
        model = vgg16_cifar(rng=np.random.default_rng(18))
        x = np.random.default_rng(19).normal(size=(4, 3, 32, 32))
        reference = runtime.predict(model, x)
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        assert compiled.quantization.quantized_layers == 13
        out = compiled(x)
        rel = np.linalg.norm(out - reference) / np.linalg.norm(reference)
        assert rel < 0.08
        assert (out.argmax(axis=1) == reference.argmax(axis=1)).mean() >= 0.99


class TestReportCoversEveryConv:
    """Every conv the pipeline runs has a report row: quantized, or float
    with its reason, so describe() shows no silent float layer."""

    @pytest.mark.parametrize(
        "name, shape, convs, floats",
        [
            ("vgg16_cifar", (3, 32, 32), 13, 0),
            ("resnet18_cifar", (3, 32, 32), 20, 19),
            ("patternnet", (3, 16, 16), 3, 0),
        ],
        ids=["vgg16", "resnet18", "patternnet"],
    )
    def test_layer_and_float_counts(self, name, shape, convs, floats):
        from repro.models import create_model
        from repro.runtime.compile import ConvOp

        model = create_model(name, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(2, *shape))
        compiled = runtime.compile_model(model, quantize="int8", calibration=x)
        report = compiled.quantization
        tags = [op.tag for op in compiled.iter_ops() if isinstance(op, ConvOp)]
        assert [row["tag"] for row in report.layers] == tags
        assert len(tags) == convs
        assert report.fallback_layers == floats
        assert report.quantized_layers == convs - floats
        branch = [row for row in report.layers if row["reason"] == "inside a residual branch"]
        assert len(branch) == floats
        assert f"{convs - floats} quantized / {floats} float" in compiled.describe()
