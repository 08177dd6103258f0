"""Unit tests for repro.nn.functional (conv, pooling, norm, softmax)."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F

from tests.conftest import check_gradients, reference_conv2d


class TestIm2col:
    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 8 * 8, 3 * 9)

    def test_stride(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        cols, (oh, ow) = F.im2col(x, (3, 3), stride=2, padding=1)
        assert (oh, ow) == (4, 4)

    def test_column_ordering_row_major(self):
        # Kernel position p = row*KW + col must map to column index p for C=1.
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        cols, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=0)
        assert (oh, ow) == (1, 1)
        np.testing.assert_array_equal(cols[0], np.arange(9))

    def test_col2im_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — adjoint property."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = F.im2col(x, (3, 3), stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        back = F.col2im(y, x.shape, (3, 3), stride=1, padding=1)
        np.testing.assert_allclose((cols * y).sum(), (x * back).sum(), rtol=1e-10)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1), (2, 0)])
    def test_matches_reference(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)

    def test_1x1_kernel(self, rng):
        x = rng.normal(size=(1, 4, 5, 5))
        w = rng.normal(size=(2, 4, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda: (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum(), [x, w, b]
        )

    def test_gradients_strided(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        check_gradients(
            lambda: (F.conv2d(x, w, stride=2, padding=1) ** 2).sum(), [x, w]
        )

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 5, 5)))
        w = Tensor(rng.normal(size=(2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_sparse_kernel_equivalence(self, rng):
        """Zeroed kernel positions contribute nothing — PCNN's core premise."""
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        mask = np.zeros((3, 3))
        mask[0, 1] = mask[2, 2] = 1.0  # a 2-non-zero pattern
        w_masked = w * mask
        out_full = F.conv2d(Tensor(x), Tensor(w_masked), padding=1)
        expected = reference_conv2d(x, w_masked, padding=1)
        np.testing.assert_allclose(out_full.data, expected, rtol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (F.max_pool2d(x, 2) ** 2).sum(), [x])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), kernel=2)
        np.testing.assert_array_equal(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_grad(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), [x])

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(x, gamma, beta, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)), rtol=1e-6)

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.array([1.0, -1.0]), np.array([4.0, 9.0])
        out = F.batch_norm2d(x, gamma, beta, rm, rv, training=False)
        expected = (x.data - rm.reshape(1, 2, 1, 1)) / np.sqrt(
            rv.reshape(1, 2, 1, 1) + 1e-5
        )
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        rm, rv = np.zeros(2), np.ones(2)

        def fn():
            return (
                F.batch_norm2d(x, gamma, beta, rm.copy(), rv.copy(), training=True) ** 2
            ).sum()

        check_gradients(fn, [x, gamma, beta], atol=1e-4, rtol=1e-3)


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 10)))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-10)

    def test_softmax_stability(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x, axis=1).data, np.log(F.softmax(x, axis=1).data), rtol=1e-9
        )

    def test_log_softmax_grad(self, rng):
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        check_gradients(lambda: (F.log_softmax(x, axis=1) * Tensor(np.ones((2, 4)))).sum(), [x])


class TestDropout:
    def test_identity_in_eval(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_scaling_in_train(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert abs(out.data.mean() - 1.0) < 0.1


class TestIm2colOutBuffer:
    """im2col's out= path and contiguity fast path (runtime arenas)."""

    def test_out_buffer_matches_allocating_path(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols, _ = F.im2col(x, (3, 3), stride=1, padding=0)
        out = np.empty_like(cols)
        cols_buf, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=0, out=out)
        assert cols_buf is out
        np.testing.assert_array_equal(cols_buf, cols)

    def test_out_buffer_shape_validated(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="out buffer"):
            F.im2col(x, (3, 3), stride=1, padding=0, out=np.empty((1, 1)))

    def test_out_buffer_contiguity_validated(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        cols, _ = F.im2col(x, (3, 3), stride=1, padding=0)
        fortran = np.asfortranarray(np.empty_like(cols))
        with pytest.raises(ValueError, match="out buffer"):
            F.im2col(x, (3, 3), stride=1, padding=0, out=fortran)

    def test_result_always_contiguous(self, rng):
        for kernel, stride in [((3, 3), 1), ((1, 1), 1), ((2, 2), 2)]:
            cols, _ = F.im2col(rng.normal(size=(2, 3, 6, 6)), kernel, stride, 0)
            assert cols.flags.c_contiguous

    def test_nhwc_matches_nchw_column_permutation(self, rng):
        """im2col_nhwc yields the same windows with (position, channel)
        column order instead of (channel, position)."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols_nchw, (oh, ow) = F.im2col(x, (3, 3), stride=1, padding=0)
        nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
        cols_nhwc, (oh2, ow2) = F.im2col_nhwc(nhwc, (3, 3), stride=1)
        assert (oh, ow) == (oh2, ow2)
        # (C, K2) -> (K2, C) permutation of each row.
        perm = cols_nchw.reshape(-1, 3, 9).transpose(0, 2, 1).reshape(-1, 27)
        np.testing.assert_allclose(cols_nhwc, perm)

    def test_nhwc_out_buffer(self, rng):
        nhwc = np.ascontiguousarray(rng.normal(size=(1, 6, 6, 2)))
        cols, _ = F.im2col_nhwc(nhwc, (3, 3), stride=1)
        out = np.empty_like(cols)
        cols_buf, _ = F.im2col_nhwc(nhwc, (3, 3), stride=1, out=out)
        assert cols_buf is out
        np.testing.assert_array_equal(cols_buf, cols)


class TestPoolWindows:
    def test_shared_window_view(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        windows = F.pool_windows(x, kernel=2, stride=2)
        assert windows.shape == (2, 3, 3, 3, 2, 2)
        np.testing.assert_array_equal(windows[0, 0, 1, 1], x[0, 0, 2:4, 2:4])

    def test_nhwc_window_view(self, rng):
        x = np.ascontiguousarray(rng.normal(size=(1, 6, 6, 3)))
        windows = F.pool_windows_nhwc(x, kernel=2, stride=2)
        assert windows.shape == (1, 3, 3, 2, 2, 3)
        np.testing.assert_array_equal(windows[0, 2, 0], x[0, 4:6, 0:2].transpose(0, 1, 2))

    def test_avg_pool_overlapping_grad(self, rng):
        """stride < kernel exercises the scatter-add backward branch."""
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        check_gradients(lambda: (F.avg_pool2d(x, kernel=3, stride=1) ** 2).sum(), [x])

    def test_avg_pool_non_overlapping_grad_exact(self, rng):
        """Vectorised non-overlapping backward equals the analytic value:
        each input cell receives grad/k^2 of its window's output grad."""
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, kernel=2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))
