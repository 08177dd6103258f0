"""Eager conv tests: both paths of ``runtime.dispatch`` against a naive oracle.

``nn.functional.conv2d`` runs the same function, so every check here is
against the independent loop-nest :func:`tests.conftest.reference_conv2d`.
The ``path`` parameter names the GEMM that runs:

- ``dense`` — a dense weight, one slab (the monolithic GEMM);
- ``pattern`` — an SPM encoding, the grouped pattern gather;
- ``tiled`` — a dense weight forced into one-output-row slabs.
"""

import numpy as np
import pytest

from repro.core import (
    SPMCodebook,
    decode_layer,
    encode_layer,
    enumerate_patterns,
    pattern_sparse_conv2d,
    project_to_patterns,
)
from repro.nn import Tensor
from repro.nn.functional import conv2d
from repro.runtime import dispatch, engine
from repro.runtime.engine import GROUPED_EXPANSION_LIMIT, gather_width_ratio

from tests.conftest import reference_conv2d

PATHS = ["dense", "pattern", "tiled"]


def make_layer(rng, n=2, shape=(8, 4, 3, 3), num_patterns=4, dtype=np.float64):
    patterns = enumerate_patterns(n)[:num_patterns]
    weight = project_to_patterns(rng.normal(size=shape), patterns).astype(dtype)
    encoded = encode_layer(weight, SPMCodebook(patterns))
    return weight, encoded


def run_path(path, monkeypatch, x, weight, encoded, **kwargs):
    """Run the eager conv on ``path`` (see the module docstring)."""
    if path == "tiled":
        monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
    if path == "pattern":
        return dispatch(x, encoded=encoded, **kwargs)
    return dispatch(x, weight, **kwargs)


def count_slabs(monkeypatch):
    """Record the size of every im2col slab the eager conv builds."""
    sizes = []
    real = engine.im2col

    def counting(*args, **kwargs):
        cols, out_hw = real(*args, **kwargs)
        sizes.append(cols.size)
        return cols, out_hw

    monkeypatch.setattr(engine, "im2col", counting)
    return sizes


class TestBackendEquivalence:
    """Each path pins to the naive reference convolution."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (2, 0)])
    @pytest.mark.parametrize("n,num_patterns", [(1, 4), (2, 8), (4, 2)])
    def test_matches_conv2d(self, monkeypatch, path, stride, padding, n, num_patterns):
        path_id = PATHS.index(path)
        rng = np.random.default_rng(path_id * 1000 + stride * 100 + padding * 10 + n)
        weight, encoded = make_layer(rng, n=n, num_patterns=num_patterns)
        x = rng.normal(size=(2, 4, 9, 9))
        reference = reference_conv2d(x, weight, stride=stride, padding=padding)
        out = run_path(path, monkeypatch, x, weight, encoded, stride=stride, padding=padding)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("path", PATHS)
    def test_backends_accept_encoded_only(self, monkeypatch, path):
        """An encoding alone suffices. ``dense``/``tiled`` use a codebook
        above ``GROUPED_EXPANSION_LIMIT``, which decodes for the call
        into the dense GEMM and keeps no decoded weight."""
        rng = np.random.default_rng(7)
        if path == "pattern":
            weight, encoded = make_layer(rng)
        else:
            weight, encoded = make_layer(rng, n=4, num_patterns=126)
            if path == "tiled":
                monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
        x = rng.normal(size=(1, 4, 6, 6))
        out = dispatch(x, encoded=encoded, padding=1)
        np.testing.assert_allclose(out, reference_conv2d(x, weight), rtol=1e-9, atol=1e-12)
        if path != "pattern":
            assert encoded.cached_nbytes == 0

    @pytest.mark.parametrize("path", PATHS)
    def test_bias(self, monkeypatch, path):
        rng = np.random.default_rng(11)
        weight, encoded = make_layer(rng)
        bias = rng.normal(size=8)
        x = rng.normal(size=(1, 4, 6, 6))
        reference = reference_conv2d(x, weight, bias, padding=1)
        out = run_path(path, monkeypatch, x, weight, encoded, bias=bias, padding=1)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_pattern_grouped_fallback_for_diverse_codebooks(self):
        """|P| * n far above k^2 decodes into the dense GEMM, transiently."""
        rng = np.random.default_rng(13)
        # 126 patterns of n=4: expansion 126*4/9 = 56 >> limit.
        weight, encoded = make_layer(rng, n=4, num_patterns=126)
        assert gather_width_ratio(126, 4, 9) > GROUPED_EXPANSION_LIMIT
        x = rng.normal(size=(1, 4, 6, 6))
        out = dispatch(x, encoded=encoded, padding=1)
        np.testing.assert_allclose(out, reference_conv2d(x, weight), rtol=1e-9, atol=1e-12)
        assert encoded.cached_nbytes == 0  # no grouped matrix, no decode kept

    def test_pattern_sparse_conv2d_routes_through_engine(self):
        rng = np.random.default_rng(17)
        weight, encoded = make_layer(rng)
        x = rng.normal(size=(1, 4, 6, 6))
        via_wrapper = pattern_sparse_conv2d(x, encoded, padding=1)
        via_engine = dispatch(x, encoded=encoded, padding=1)
        np.testing.assert_array_equal(via_wrapper, via_engine)


class TestDtype:
    """float32 inputs stay float32 end-to-end (the seed hardcoded float64)."""

    @pytest.mark.parametrize("path", PATHS)
    def test_float32_stays_float32(self, monkeypatch, path):
        rng = np.random.default_rng(23)
        weight, encoded = make_layer(rng, dtype=np.float32)
        assert encoded.values.dtype == np.float32
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        out = run_path(path, monkeypatch, x, weight, encoded, padding=1)
        assert out.dtype == np.float32
        reference = reference_conv2d(x.astype(np.float64), weight.astype(np.float64))
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("path", PATHS)
    def test_float64_bias_does_not_promote_float32(self, monkeypatch, path):
        rng = np.random.default_rng(27)
        weight, encoded = make_layer(rng, dtype=np.float32)
        bias = rng.normal(size=8)  # float64, like nn.init.zeros biases
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        out = run_path(path, monkeypatch, x, weight, encoded, bias=bias, padding=1)
        assert out.dtype == np.float32

    def test_pattern_sparse_conv2d_float32(self):
        rng = np.random.default_rng(29)
        weight, encoded = make_layer(rng, dtype=np.float32)
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        out = pattern_sparse_conv2d(x, encoded, padding=1)
        assert out.dtype == np.float32
        reference = reference_conv2d(x.astype(np.float64), weight.astype(np.float64))
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)


class TestSelectionAndRegistry:
    """The path follows from the input: encoding or weight, and its size."""

    def test_encoded_selects_pattern(self):
        """An encoding takes precedence over a dense weight passed with it."""
        rng = np.random.default_rng(31)
        weight, encoded = make_layer(rng)
        x = rng.normal(size=(1, 4, 6, 6))
        out = dispatch(x, np.zeros_like(weight), encoded=encoded, padding=1)
        np.testing.assert_allclose(out, reference_conv2d(x, weight), rtol=1e-9, atol=1e-12)
        assert encoded.cached_nbytes > 0  # the grouped operand was built

    def test_small_dense_selects_dense(self, monkeypatch):
        """A workspace under the bound runs as one monolithic slab."""
        rng = np.random.default_rng(37)
        slabs = count_slabs(monkeypatch)
        dispatch(rng.normal(size=(1, 4, 6, 6)), rng.normal(size=(8, 4, 3, 3)))
        assert slabs == [4 * 4 * 4 * 9]

    def test_large_input_selects_tiled(self, monkeypatch):
        """Above the bound the columns come in slabs that each fit it."""
        rng = np.random.default_rng(41)
        x = rng.normal(size=(4, 32, 64, 64))
        weight = rng.normal(size=(8, 32, 3, 3))
        assert 4 * 64 * 64 * 32 * 9 > engine.TILE_THRESHOLD_ELEMENTS
        slabs = count_slabs(monkeypatch)
        out = dispatch(x, weight, padding=1)
        assert len(slabs) > 1
        assert max(slabs) <= engine.TILE_THRESHOLD_ELEMENTS
        assert sum(slabs) == 4 * 64 * 64 * 32 * 9
        monolithic = conv2d(Tensor(x), Tensor(weight), padding=1).data
        np.testing.assert_allclose(out, monolithic, rtol=1e-9, atol=1e-12)

    def test_missing_weight_and_encoding_rejected(self):
        with pytest.raises(ValueError, match="weight or an encoded layer"):
            dispatch(np.zeros((1, 4, 6, 6)))

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(47)
        with pytest.raises(ValueError, match="channel mismatch"):
            dispatch(rng.normal(size=(1, 5, 6, 6)), rng.normal(size=(8, 4, 3, 3)))


class TestSlabTiling:
    def test_tile_boundaries_exact(self, monkeypatch):
        """Forcing one-row slabs still assembles the exact output."""
        rng = np.random.default_rng(59)
        weight = rng.normal(size=(6, 3, 3, 3))
        x = rng.normal(size=(2, 3, 11, 11))
        reference = reference_conv2d(x, weight, stride=2, padding=1)
        monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
        slabs = count_slabs(monkeypatch)
        out = dispatch(x, weight, stride=2, padding=1)
        assert len(slabs) == out.shape[2]  # one slab per output row
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)

    def test_pattern_backend_slabs_large_inputs(self, monkeypatch):
        """Encoded requests also run in bounded slabs, and exactly."""
        rng = np.random.default_rng(61)
        weight, encoded = make_layer(rng)
        x = rng.normal(size=(2, 4, 9, 9))
        monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
        slabs = count_slabs(monkeypatch)
        out = dispatch(x, encoded=encoded, padding=1)
        assert len(slabs) == out.shape[2]
        np.testing.assert_allclose(out, reference_conv2d(x, weight), rtol=1e-9, atol=1e-12)

    def test_diverse_codebook_slabs(self, monkeypatch):
        """Above the expansion limit the decoded GEMM slabs exactly too."""
        rng = np.random.default_rng(67)
        weight, encoded = make_layer(rng, n=4, num_patterns=126)
        assert np.array_equal(decode_layer(encoded), weight)
        x = rng.normal(size=(2, 4, 9, 9))
        monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
        out = dispatch(x, encoded=encoded, stride=2, padding=1)
        reference = reference_conv2d(x, weight, stride=2, padding=1)
        np.testing.assert_allclose(out, reference, rtol=1e-9, atol=1e-12)
        assert encoded.cached_nbytes == 0

    def test_workspace_runs_one_slab(self, monkeypatch):
        """``workspace=`` hands autograd the whole column matrix, however
        small the slab bound."""
        rng = np.random.default_rng(71)
        weight = rng.normal(size=(6, 3, 3, 3))
        x = rng.normal(size=(2, 3, 7, 7))
        monkeypatch.setattr(engine, "TILE_THRESHOLD_ELEMENTS", 1)
        workspace = {}
        out = dispatch(x, weight, padding=1, workspace=workspace)
        assert workspace["cols"].shape == (2 * 7 * 7, 3 * 9)
        assert workspace["w_mat"].shape == (6, 3 * 9)
        np.testing.assert_allclose(out, reference_conv2d(x, weight), rtol=1e-9, atol=1e-12)
        _, encoded = make_layer(rng)
        with pytest.raises(ValueError, match="dense weight"):
            dispatch(rng.normal(size=(1, 4, 6, 6)), encoded=encoded, workspace={})
