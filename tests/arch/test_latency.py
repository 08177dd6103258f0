"""Tests for per-inference latency/energy derivation."""

import numpy as np
import pytest

from repro.arch import ArchConfig, inference_cost, inference_cost_sweep
from repro.core import PCNNConfig
from repro.models import profile_model, vgg16_cifar


@pytest.fixture(scope="module")
def vgg_profile():
    return profile_model(vgg16_cifar(rng=np.random.default_rng(0)), (3, 32, 32))


class TestInferenceCost:
    def test_latency_arithmetic(self, vgg_profile):
        cost = inference_cost(vgg_profile, PCNNConfig.uniform(1, 13))
        # cycles = effectual MACs / 256; latency = cycles / 300 MHz.
        expected_cycles = vgg_profile.conv_macs * 0.8 / 9.0 / 256
        assert cost.cycles == pytest.approx(expected_cycles, rel=1e-9)
        assert cost.latency_ms == pytest.approx(expected_cycles / 300e6 * 1e3, rel=1e-9)

    def test_energy_scales_with_latency(self, vgg_profile):
        a = inference_cost(vgg_profile, PCNNConfig.uniform(4, 13))
        b = inference_cost(vgg_profile, PCNNConfig.uniform(1, 13))
        assert a.energy_mj / b.energy_mj == pytest.approx(a.latency_ms / b.latency_ms)

    def test_sweep_ordering(self, vgg_profile):
        sweep = inference_cost_sweep(vgg_profile)
        latencies = [sweep[n].latency_ms for n in (4, 3, 2, 1)]
        assert latencies[0] > latencies[1] > latencies[2] > latencies[3]
        assert sweep[1].speedup_vs_dense == pytest.approx(9.0)

    def test_images_per_second(self, vgg_profile):
        cost = inference_cost(vgg_profile, PCNNConfig.uniform(2, 13))
        assert cost.images_per_second == pytest.approx(1000.0 / cost.latency_ms)

    def test_faster_clock_lower_latency_same_energy_ratio(self, vgg_profile):
        from repro.arch import PAPER_TECH

        base = inference_cost(vgg_profile, PCNNConfig.uniform(2, 13))
        fast_arch = ArchConfig(frequency_hz=600e6)
        fast_tech = PAPER_TECH.scaled(frequency_hz=600e6, voltage_v=1.0)
        fast = inference_cost(vgg_profile, PCNNConfig.uniform(2, 13), fast_arch, fast_tech)
        assert fast.latency_ms == pytest.approx(base.latency_ms / 2)
        # Energy/image unchanged to first order (P ~ f at fixed V).
        assert fast.energy_mj == pytest.approx(base.energy_mj)


class TestPerLayerCost:
    def test_layer_costs_sum_to_network_cost(self, vgg_profile):
        from repro.arch import inference_cost_by_layer

        config = PCNNConfig.uniform(2, 13)
        whole = inference_cost(vgg_profile, config)
        layers = inference_cost_by_layer(vgg_profile, config)
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
