"""Shared pytest fixtures, the naive conv oracle and numerical-gradient
utilities."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pytest

from repro.nn.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def reference_conv2d(x, w, b=None, stride=1, padding=1):
    """Naive direct convolution used as ground truth.

    Four nested Python loops over output positions, independent of the
    im2col + GEMM eager conv that every other conv path is checked
    against.
    """
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    window = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = np.sum(window * w[co])
            if b is not None:
                out[ni, co] += b[co]
    return out


def numerical_grad(
    fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn().data.item() if hasattr(fn(), "data") else float(fn())
        flat[i] = original - eps
        down = fn().data.item() if hasattr(fn(), "data") else float(fn())
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert analytic gradients of ``fn`` match central differences.

    ``fn`` must rebuild the graph on every call (so perturbed parameter
    values are observed) and return a scalar Tensor.
    """
    for param in params:
        param.zero_grad()
    out = fn()
    out.backward()
    for param in params:
        expected = numerical_grad(fn, param)
        assert param.grad is not None, "missing analytic gradient"
        np.testing.assert_allclose(param.grad, expected, atol=atol, rtol=rtol)
