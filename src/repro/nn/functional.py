"""Functional neural-network operations for :mod:`repro.nn`.

Implements the convolution / pooling / normalisation primitives used by the
PCNN models. Convolution is the operation whose sparsity structure the whole
paper is about, so it is written as an explicit im2col + GEMM primitive with
a hand-derived backward pass (col2im); the accelerator simulator in
:mod:`repro.arch` is validated against :func:`conv2d` in the test suite.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = [
    "im2col",
    "im2col_nhwc",
    "col2im",
    "conv2d",
    "conv_output_size",
    "pool_windows",
    "pool_windows_nhwc",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "linear",
    "batch_norm2d",
    "relu",
    "softmax",
    "log_softmax",
    "dropout",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into convolution columns.

    Returns an array of shape ``(N * OH * OW, C * KH * KW)`` and the output
    spatial size ``(OH, OW)``. Column ordering matches the row-major kernel
    position convention used throughout the PCNN pattern code (position
    ``p = row * KW + col``).

    ``out``, when given, must be a C-contiguous ``(N * OH * OW, C * KH * KW)``
    buffer of ``x``'s dtype; the columns are materialised directly into it so
    steady-state callers (the runtime arenas) never allocate. Note that
    ``padding > 0`` still allocates a padded copy of ``x``; allocation-free
    callers pre-pad into their own buffer and pass ``padding=0``.
    (The NHWC variant additionally accepts strided ``out`` sub-views for
    bias-augmented column buffers; this NCHW reference path keeps the
    strict contiguity contract.)
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    # Strided sliding-window view: (N, C, OH, OW, KH, KW).
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    if out is not None:
        if out.shape != (n * oh * ow, c * kh * kw) or not out.flags.c_contiguous:
            raise ValueError(
                f"im2col out buffer must be C-contiguous with shape "
                f"{(n * oh * ow, c * kh * kw)}, got {out.shape}"
            )
        # Copy straight into the caller's buffer through a 6-D view of it.
        out.reshape(n, oh, ow, c, kh, kw)[...] = windows.transpose(0, 2, 3, 1, 4, 5)
        return out, (oh, ow)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    if not cols.flags.c_contiguous:
        cols = np.ascontiguousarray(cols)
    return cols, (oh, ow)


def im2col_nhwc(
    x: np.ndarray,
    kernel: Tuple[int, int],
    stride: int,
    out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold channels-last ``x`` (N, H, W, C) into convolution columns.

    Returns ``(N * OH * OW, KH * KW * C)`` columns in *kernel-position
    major* order (position ``p = row * KW + col``, then channel) — the
    layout the compiled pipeline's NHWC weight matrices expect. Because
    the channel axis is innermost and contiguous, the window copy runs as
    long contiguous block moves instead of the per-element gathers the
    NCHW unfold degenerates into; this is why the compiled executor keeps
    activations channels-last end to end. Padding is the caller's job
    (pre-pad into an arena buffer) — callers on this path never want the
    per-call ``np.pad``.
    """
    n, h, w, c = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, 0)
    ow = conv_output_size(w, kw, stride, 0)
    sn, sh, sw, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )
    if out is not None:
        if out.shape != (n * oh * ow, kh * kw * c):
            raise ValueError(
                f"im2col_nhwc out buffer must have shape "
                f"{(n * oh * ow, kh * kw * c)}, got {out.shape}"
            )
        # A strided 6-D view of `out` (works for contiguous buffers and
        # for column sub-views of a bias-augmented (M, K+1) buffer alike).
        so_row, so_el = out.strides
        out_view = np.lib.stride_tricks.as_strided(
            out,
            shape=(n, oh, ow, kh, kw, c),
            strides=(oh * ow * so_row, ow * so_row, so_row, kw * c * so_el, c * so_el, so_el),
        )
        out_view[...] = windows
        return out, (oh, ow)
    cols = windows.reshape(n * oh * ow, kh * kw * c)
    if not cols.flags.c_contiguous:
        cols = np.ascontiguousarray(cols)
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image shape."""
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            x_padded[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += cols6[
                :, :, :, :, i, j
            ]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) with autograd.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, KH, KW)``. PCNN pruning zeroes
        elements of each ``(KH, KW)`` kernel according to a pattern.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {c_in_w}")

    # The forward computation is the runtime's eager conv (im2col +
    # GEMM); the workspace hands back the column matrix the backward
    # pass needs. Imported lazily because the runtime package itself
    # builds on this module.
    from ..runtime import engine as _engine

    workspace: dict = {}
    out = _engine.dispatch(
        x.data,
        weight.data,
        bias=bias.data if bias is not None else None,
        stride=stride,
        padding=padding,
        workspace=workspace,
    )
    cols = workspace["cols"]
    w_mat = workspace["w_mat"]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward_fn(g: np.ndarray):
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)  # (N*OH*OW, C_out)
        grad_weight = (g_mat.T @ cols).reshape(weight.shape)
        grad_cols = g_mat @ w_mat
        grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
        grads = [grad_x, grad_weight]
        if bias is not None:
            grads.append(g_mat.sum(axis=0))
        return tuple(grads)

    return Tensor._make(out, parents, backward_fn)


def pool_windows(
    x: np.ndarray, kernel: int, stride: int, writeable: bool = False
) -> np.ndarray:
    """Strided ``(N, C, OH, OW, kernel, kernel)`` pooling-window view of ``x``.

    Shared by max/avg pooling (forward and backward) and the runtime's
    compiled pool ops. ``writeable=True`` returns a writable view for
    scatter-style backward passes — only safe when the windows do not
    overlap (``stride >= kernel``), because overlapping windows alias.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=writeable,
    )


def pool_windows_nhwc(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Channels-last ``(N, OH, OW, kernel, kernel, C)`` pooling windows.

    The NHWC counterpart of :func:`pool_windows` for the compiled
    pipeline: reductions over the two kernel axes leave the contiguous
    channel axis innermost, so they vectorise.
    """
    n, h, w, c = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)
    sn, sh, sw, sc = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kernel, kernel, c),
        strides=(sn, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def max_pool2d(
    x: Tensor, kernel: int = 2, stride: Optional[int] = None, padding: int = 0
) -> Tensor:
    """Max pooling over strided windows with optional -inf padding."""
    stride = stride or kernel
    if padding > 0:
        # Pad with -inf so padded cells never win the max; gradients to
        # them are dropped by the pad2d backward slice.
        n0, c0, h0, w0 = x.shape
        neg = np.full((n0, c0, h0 + 2 * padding, w0 + 2 * padding), -np.inf)
        neg[:, :, padding:-padding, padding:-padding] = 0.0
        x = x.pad2d(padding) + Tensor(neg)
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)

    windows = pool_windows(x.data, kernel, stride)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def backward_fn(g: np.ndarray):
        grad_x = np.zeros_like(x.data)
        ki, kj = np.divmod(argmax, kernel)
        n_idx, c_idx, i_idx, j_idx = np.indices((n, c, oh, ow))
        rows = i_idx * stride + ki
        cols_ = j_idx * stride + kj
        np.add.at(grad_x, (n_idx, c_idx, rows, cols_), g)
        return (grad_x,)

    return Tensor._make(out, (x,), backward_fn)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, 0)
    ow = conv_output_size(w, kernel, stride, 0)

    windows = pool_windows(x.data, kernel, stride)
    out = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kernel * kernel)

    def backward_fn(g: np.ndarray):
        grad_x = np.zeros_like(x.data)
        g_scaled = g * scale
        if stride >= kernel:
            # Non-overlapping windows: every input cell appears in at most
            # one window, so the scatter is a single broadcast assignment
            # into the writable window view.
            gw = pool_windows(grad_x, kernel, stride, writeable=True)
            gw[...] = g_scaled[..., None, None]
        else:
            # Overlapping windows alias, so accumulate with one unbuffered
            # scatter-add over broadcast window indices.
            n_idx = np.arange(n)[:, None, None, None, None, None]
            c_idx = np.arange(c)[None, :, None, None, None, None]
            rows = (
                (np.arange(oh) * stride)[None, None, :, None, None, None]
                + np.arange(kernel)[None, None, None, None, :, None]
            )
            cols_ = (
                (np.arange(ow) * stride)[None, None, None, :, None, None]
                + np.arange(kernel)[None, None, None, None, None, :]
            )
            np.add.at(grad_x, (n_idx, c_idx, rows, cols_), g_scaled[..., None, None])
        return (grad_x,)

    return Tensor._make(out, (x,), backward_fn)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning (N, C)."""
    return x.mean(axis=(2, 3))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    ``running_mean`` / ``running_var`` are plain arrays updated in place when
    ``training`` is true (PyTorch semantics with unbiased running variance).
    """
    c = x.shape[1]
    gamma4 = gamma.reshape(1, c, 1, 1)
    beta4 = beta.reshape(1, c, 1, 1)
    if training:
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        count = x.size / c
        unbiased = var.data * count / max(count - 1.0, 1.0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased.reshape(-1)
        x_hat = (x - mu) * ((var + eps) ** -0.5)
    else:
        mu = Tensor(running_mean.reshape(1, c, 1, 1))
        var = Tensor(running_var.reshape(1, c, 1, 1))
        x_hat = (x - mu) * ((var + eps) ** -0.5)
    return x_hat * gamma4 + beta4


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)
