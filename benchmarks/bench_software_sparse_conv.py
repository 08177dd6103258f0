"""Software sparse convolution — FLOPs vs wall-clock (extension bench).

Measures the pattern-grouped sparse convolution against the dense
im2col+GEMM path, and the eager conv's cached-plan grouped-GEMM
SPM path against the seed's per-pattern gather loop. The multiply count
drops by exactly 9/n; the seed's honest finding stands — generic gather
loops lose to tuned BLAS — but the engine's grouped-contraction
formulation (pattern regularity -> one structured GEMM, Sec. I's
argument executed in software) recovers an order of magnitude over that
loop and runs within a small factor of dense BLAS. The cycle-level
accelerator win is still measured by :mod:`repro.arch.simulator`.
"""

import numpy as np
import pytest

from repro.core import (
    SPMCodebook,
    dense_conv_flops,
    encode_layer,
    enumerate_patterns,
    pattern_sparse_conv2d,
    project_to_patterns,
    sparse_conv_flops,
)
from repro.core.patterns import pattern_positions
from repro.nn import Tensor
from repro.nn.functional import conv2d, im2col
from repro.utils.timing import Timer


def make_layer(n=2, filters=64, channels=32, num_patterns=8, seed=0, hw=16):
    rng = np.random.default_rng(seed)
    patterns = enumerate_patterns(n)[:num_patterns]
    weight = project_to_patterns(rng.normal(size=(filters, channels, 3, 3)), patterns)
    encoded = encode_layer(weight, SPMCodebook(patterns))
    x = rng.normal(size=(1, channels, hw, hw))
    return x, weight, encoded


def seed_pattern_sparse_conv2d(x, encoded, stride=1, padding=0):
    """The seed implementation: per-pattern gather loop, index math per call.

    Kept verbatim (minus bias) as the baseline the eager conv's
    cached-plan SPM path is measured against.
    """
    c_out, c_in, kh, kw = encoded.shape
    batch = x.shape[0]
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding)
    k2 = kh * kw
    out = np.zeros((cols.shape[0], c_out))
    codes, values = encoded.codes, encoded.values
    kernel_filters, kernel_channels = np.divmod(np.arange(len(codes)), c_in)
    for code in np.unique(codes):
        positions = np.array(
            pattern_positions(encoded.codebook.pattern(int(code)), kh), dtype=np.int64
        )
        members = np.flatnonzero(codes == code)
        order = members[np.argsort(kernel_filters[members], kind="stable")]
        filters_sorted = kernel_filters[order]
        col_idx = kernel_channels[order][:, None] * k2 + positions[None, :]
        contributions = np.einsum("wmn,mn->wm", cols[:, col_idx], values[order])
        boundaries = np.flatnonzero(
            np.concatenate(([True], filters_sorted[1:] != filters_sorted[:-1]))
        )
        out[:, filters_sorted[boundaries]] += np.add.reduceat(
            contributions, boundaries, axis=1
        )
    return out.reshape(batch, oh, ow, c_out).transpose(0, 3, 1, 2)


def test_sparse_conv_wallclock(benchmark):
    x, weight, encoded = make_layer(n=2)
    result = benchmark(lambda: pattern_sparse_conv2d(x, encoded, padding=1))
    reference = conv2d(Tensor(x), Tensor(weight), padding=1).data
    np.testing.assert_allclose(result, reference, rtol=1e-10)


def test_dense_conv_wallclock(benchmark):
    x, weight, _ = make_layer(n=2)
    result = benchmark(lambda: conv2d(Tensor(x), Tensor(weight), padding=1).data)
    assert result.shape == (1, 64, 16, 16)


def test_engine_beats_seed_loop_on_vgg_layer(benchmark):
    """Cached-plan grouped GEMM vs the seed gather loop, VGG-16 conv3-1 shape.

    The acceptance bar for the runtime engine: repeated-forward
    throughput at least 1.5x the seed loop (measured ~10x on CI-class
    hardware; asserted with a wide margin against machine noise).
    """
    x, _, encoded = make_layer(n=2, filters=256, channels=256, hw=8)

    def run_both():
        pattern_sparse_conv2d(x, encoded, padding=1)  # warm plan + caches
        seed_pattern_sparse_conv2d(x, encoded, padding=1)
        repeats = 5
        with Timer() as t_seed:
            for _ in range(repeats):
                seed_pattern_sparse_conv2d(x, encoded, padding=1)
        with Timer() as t_engine:
            for _ in range(repeats):
                pattern_sparse_conv2d(x, encoded, padding=1)
        return t_seed.elapsed / max(t_engine.elapsed, 1e-12)

    speedup = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print(f"\ncached-plan engine vs seed loop (256x256x3x3, n=2): {speedup:.1f}x")
    np.testing.assert_allclose(
        pattern_sparse_conv2d(x, encoded, padding=1),
        seed_pattern_sparse_conv2d(x, encoded, padding=1),
        rtol=1e-9,
    )
    assert speedup >= 1.5


def test_flops_reduction_is_9_over_n(benchmark):
    def run():
        ratios = {}
        for n in (4, 2, 1):
            _, _, encoded = make_layer(n=n)
            ratios[n] = dense_conv_flops(encoded, (16, 16)) / sparse_conv_flops(
                encoded, (16, 16)
            )
        return ratios

    ratios = benchmark(run)
    print("\nmultiply reduction:", {n: f"{r:.2f}x" for n, r in ratios.items()})
    for n, ratio in ratios.items():
        assert ratio == pytest.approx(9.0 / n)
