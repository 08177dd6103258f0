"""Tests for quantization and deployment bundles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DeploymentBundle,
    PCNNConfig,
    PCNNPruner,
    bundle_from_pruner,
    dequantize,
    quantization_error,
    quantize_per_kernel,
    quantize_symmetric,
)
from repro.models import patternnet
from repro.nn import Tensor, no_grad
from repro.nn.functional import conv2d


def fresh_pruned_model(seed=0, n=4, quantize=None):
    model = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(seed))
    pruner = PCNNPruner(model, PCNNConfig.uniform(n, 2, num_patterns=8))
    pruner.apply()
    return model, pruner


class TestQuantize:
    def test_roundtrip_small_error(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(100,))
        q = quantize_symmetric(values, bits=8)
        assert quantization_error(values, q) < 0.01

    def test_codes_in_range(self):
        rng = np.random.default_rng(1)
        q = quantize_symmetric(rng.normal(size=50), bits=8)
        assert q.codes.max() <= 127 and q.codes.min() >= -127

    def test_zero_input(self):
        q = quantize_symmetric(np.zeros(10), bits=8)
        np.testing.assert_array_equal(dequantize(q), 0.0)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=200)
        errors = [
            quantization_error(values, quantize_symmetric(values, bits=b)) for b in (4, 8, 12)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_per_kernel_beats_per_tensor_on_varied_scales(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 4))
        values[::2] *= 100.0  # widely varying kernel magnitudes
        per_tensor = quantization_error(values, quantize_symmetric(values, bits=8))
        per_kernel = quantization_error(values, quantize_per_kernel(values, bits=8))
        assert per_kernel < per_tensor

    def test_per_kernel_shape_validation(self):
        with pytest.raises(ValueError):
            quantize_per_kernel(np.zeros(5))

    def test_min_bits(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), bits=1)

    def test_storage_bits(self):
        q = quantize_symmetric(np.ones(10), bits=8)
        assert q.storage_bits == 80

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=12))
    @settings(max_examples=25)
    def test_property_error_bounded_by_stepsize(self, seed, bits):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=32)
        q = quantize_symmetric(values, bits=bits)
        step = float(np.max(q.scale))
        assert np.abs(values - dequantize(q)).max() <= step / 2 + 1e-12


class TestDeploymentBundle:
    def test_bundle_roundtrip_float(self, tmp_path):
        model, pruner = fresh_pruned_model()
        bundle = bundle_from_pruner(pruner)
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        loaded = DeploymentBundle.load(path)
        assert set(loaded.layers) == set(bundle.layers)
        for name in bundle.layers:
            np.testing.assert_array_equal(
                loaded.layers[name].codes, bundle.layers[name].codes
            )
            np.testing.assert_array_equal(
                loaded.layers[name].dense_weight(), bundle.layers[name].dense_weight()
            )

    def test_restore_into_fresh_model(self, tmp_path):
        model, pruner = fresh_pruned_model(seed=1)
        bundle = bundle_from_pruner(pruner)
        fresh = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(99))
        bundle.restore_into(fresh)
        for (_, a), (_, b) in zip(model.conv_layers(), fresh.conv_layers()):
            np.testing.assert_allclose(a.effective_weight(), b.effective_weight())
            assert b.weight_mask is not None

    def test_quantized_bundle_small_error(self):
        model, pruner = fresh_pruned_model(seed=2)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        for name, module in pruner.layers:
            restored = bundle.layers[name].dense_weight()
            original = module.effective_weight()
            rel = np.linalg.norm(restored - original) / np.linalg.norm(original)
            assert rel < 0.01

    def test_quantized_bundle_functional(self):
        """An 8-bit bundle still computes a usable convolution."""
        model, pruner = fresh_pruned_model(seed=3)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        name, module = pruner.layers[0]
        x = np.random.default_rng(0).normal(size=(1, 3, 8, 8))
        exact = conv2d(Tensor(x), Tensor(module.effective_weight()), padding=1).data
        quant = conv2d(Tensor(x), Tensor(bundle.layers[name].dense_weight()), padding=1).data
        assert np.linalg.norm(quant - exact) / np.linalg.norm(exact) < 0.02

    def test_storage_report_compression(self):
        model, pruner = fresh_pruned_model(seed=4, n=2)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        report = bundle.storage_report()
        for row in report.values():
            # 8-bit values + tiny SPM codes vs fp32 dense: > 9/2 * 4 / ~1.1
            assert row["compression"] > 10.0
            assert row["n"] == 2
            assert row["weight_bits"] == 8

    def test_quantized_roundtrip_through_disk(self, tmp_path):
        model, pruner = fresh_pruned_model(seed=5)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        path = str(tmp_path / "q.npz")
        bundle.save(path)
        loaded = DeploymentBundle.load(path)
        for name in bundle.layers:
            assert loaded.layers[name].quantized
            np.testing.assert_allclose(
                loaded.layers[name].dense_weight(), bundle.layers[name].dense_weight()
            )

    def test_layer_conv_forward_through_engine(self):
        """Bundle layers execute straight from SPM storage via dispatch()."""
        model, pruner = fresh_pruned_model(seed=3)
        bundle = bundle_from_pruner(pruner)
        rng = np.random.default_rng(4)
        name, layer = next(iter(bundle.layers.items()))
        x = rng.normal(size=(2, layer.shape[1], 8, 8))
        out = layer.conv_forward(x, padding=1)
        reference = conv2d(
            Tensor(x), Tensor(layer.dense_weight()), padding=1
        ).data
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)
        # The cached EncodedLayer (and its gather plan) is reused.
        assert layer.encoded_layer() is layer.encoded_layer()

    def test_quantized_layer_conv_forward(self):
        model, pruner = fresh_pruned_model(seed=5)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        rng = np.random.default_rng(6)
        name, layer = next(iter(bundle.layers.items()))
        x = rng.normal(size=(1, layer.shape[1], 6, 6))
        out = layer.conv_forward(x, padding=1)
        reference = conv2d(Tensor(x), Tensor(layer.dense_weight()), padding=1).data
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_restore_into_wrong_model_raises(self):
        model, pruner = fresh_pruned_model(seed=6)
        bundle = bundle_from_pruner(pruner)
        wrong = patternnet(channels=(4, 4), num_classes=4, rng=np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            bundle.restore_into(wrong)


class TestRestoreAttachesEncodings:
    """Regression: restore_into used to install weights and masks but
    never attach_encoding, so a restored PCNN bundle silently served
    through the dense backend."""

    def test_restored_convs_select_pattern_backend(self, tmp_path):
        """Each restored conv's eager forward computes from its encoding."""
        from repro.nn import Conv2d
        from repro.runtime import dispatch

        model, pruner = fresh_pruned_model(seed=7, n=2)
        bundle = bundle_from_pruner(pruner)
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        fresh = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(8))
        DeploymentBundle.load(path).restore_into(fresh)
        convs = [m for m in fresh.modules() if isinstance(m, Conv2d)]
        assert convs
        for conv in convs:
            assert conv.encoded is not None
            x = np.random.default_rng(9).normal(size=(1, conv.in_channels, 8, 8))
            with no_grad():
                out = conv(Tensor(x)).data
            assert conv.bias is None and conv.padding == 1
            expected = dispatch(x, encoded=conv.encoded, padding=1)
            np.testing.assert_array_equal(out, expected)

    def test_restore_reuses_bundle_cached_encoding(self):
        model, pruner = fresh_pruned_model(seed=9)
        bundle = bundle_from_pruner(pruner)
        fresh = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(10))
        bundle.restore_into(fresh)
        for name, module in pruner.layers:
            restored = dict(fresh.named_modules())[name]
            assert restored.encoded is bundle.layers[name].encoded_layer()

    def test_restored_model_predicts_like_source(self):
        """Pattern-path predictions on the restored model match the
        source pruned model (same non-conv parameters by construction)."""
        from repro import runtime

        model, pruner = fresh_pruned_model(seed=11, n=2)
        bundle = bundle_from_pruner(pruner)
        fresh, _ = fresh_pruned_model(seed=11, n=2)  # same seed: same BN/FC
        bundle.restore_into(fresh)
        x = np.random.default_rng(12).normal(size=(4, 3, 16, 16))
        reference = runtime.predict(model, x)
        out = runtime.predict(fresh, x)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_quantized_restore_attaches_dequantized_encoding(self):
        model, pruner = fresh_pruned_model(seed=13)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        fresh = patternnet(channels=(8, 16), num_classes=4, rng=np.random.default_rng(14))
        bundle.restore_into(fresh)
        for name, module in pruner.layers:
            restored = dict(fresh.named_modules())[name]
            assert restored.encoded is not None
            np.testing.assert_allclose(
                restored.effective_weight(),
                bundle.layers[name].dense_weight(),
            )


class TestQuantizedBundleRoundTrip:
    """save -> load -> encoded_layer()/conv_forward for the 8-bit format."""

    def test_conv_forward_matches_unquantized_within_error_bound(self, tmp_path):
        model, pruner = fresh_pruned_model(seed=20, n=2)
        exact_bundle = bundle_from_pruner(pruner)
        quant_bundle = bundle_from_pruner(pruner, quantize_bits=8)
        path = str(tmp_path / "q.npz")
        quant_bundle.save(path)
        loaded = DeploymentBundle.load(path)
        rng = np.random.default_rng(21)
        for name, layer in exact_bundle.layers.items():
            x = rng.normal(size=(2, layer.shape[1], 8, 8))
            exact = layer.conv_forward(x, padding=1)
            quant = loaded.layers[name].conv_forward(x, padding=1)
            # Per-kernel symmetric 8-bit: the weight error is bounded by
            # step/2 per weight, so the conv error stays tiny relative
            # to the activation magnitude.
            denom = np.linalg.norm(exact)
            assert np.linalg.norm(quant - exact) / denom < 0.02
            # And the loaded encoding matches the pre-save one exactly.
            np.testing.assert_allclose(
                loaded.layers[name].encoded_layer().values,
                quant_bundle.layers[name].encoded_layer().values,
            )

    def test_storage_report_survives_round_trip(self, tmp_path):
        model, pruner = fresh_pruned_model(seed=22, n=2)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        path = str(tmp_path / "q.npz")
        bundle.save(path)
        loaded = DeploymentBundle.load(path)
        original = bundle.storage_report()
        restored = loaded.storage_report()
        assert set(original) == set(restored)
        for name in original:
            assert original[name] == restored[name]
        assert loaded.storage_bits() == bundle.storage_bits()

    def test_codes_preserve_exact_integers(self, tmp_path):
        model, pruner = fresh_pruned_model(seed=23)
        bundle = bundle_from_pruner(pruner, quantize_bits=8)
        path = str(tmp_path / "q.npz")
        bundle.save(path)
        loaded = DeploymentBundle.load(path)
        for name in bundle.layers:
            np.testing.assert_array_equal(
                loaded.layers[name].values, bundle.layers[name].values
            )
            np.testing.assert_array_equal(
                loaded.layers[name].scales, bundle.layers[name].scales
            )
            assert loaded.layers[name].weight_bits == 8
