"""Stateless array operations used by :mod:`repro.nn` layers.

Everything operates on ``float32`` NumPy arrays in NCHW layout.  The
convolution primitives use an im2col formulation so the heavy lifting is
a single GEMM, which also mirrors how the accelerator model in
:mod:`repro.accel` costs a convolution.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np


def pad2d(x: np.ndarray, padding: int, fill_value: float = 0.0) -> np.ndarray:
    """Pad the two trailing spatial dims of an NCHW tensor.

    ``fill_value`` defaults to zero (convolution semantics); max-pooling
    pads with ``-inf`` so padded positions can never win the max.
    """
    if padding == 0:
        return x
    return np.pad(
        x,
        ((0, 0), (0, 0), (padding, padding), (padding, padding)),
        mode="constant",
        constant_values=fill_value,
    )


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    fill_value: float = 0.0,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold an NCHW tensor into convolution columns.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(batch, channels * kernel * kernel, out_h * out_w)``.  Padded
    positions hold ``fill_value``.  ``out``, if given, receives the
    columns in place (a backend workspace buffer of exactly that shape)
    and is returned as ``cols``.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    xp = pad2d(x, padding, fill_value)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), (2, 3))
    # windows: (batch, channels, H', W', kernel, kernel) -> strided sampling.
    windows = windows[:, :, ::stride, ::stride, :, :]
    src = windows.transpose(0, 1, 4, 5, 2, 3)
    cols_shape = (batch, channels * kernel * kernel, out_h * out_w)
    if out is None:
        return np.ascontiguousarray(src).reshape(cols_shape), out_h, out_w
    if out.shape != cols_shape or out.dtype != x.dtype:
        raise ValueError(
            f"im2col out buffer has shape {out.shape}/{out.dtype}, "
            f"need {cols_shape}/{x.dtype}"
        )
    np.copyto(out.reshape(batch, channels, kernel, kernel, out_h, out_w), src)
    return out, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an NCHW tensor (adjoint of im2col)."""
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    reshaped = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += reshaped[:, :, ky, kx]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    exp_x = np.exp(x[~pos])
    out[~pos] = exp_x / (1.0 + exp_x)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer labels as a ``(len(labels), num_classes)`` float32
    one-hot matrix.

    Labels must be a non-empty integer vector; trailing singleton dims
    (``(N, 1)`` column vectors) are flattened, any other multi-dim shape
    raises — indexing ``labels.shape[0]`` on e.g. a ``(4, 3)`` array
    would silently produce 4 garbage rows.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("one_hot received an empty label array")
    if labels.ndim != 1:
        if all(dim == 1 for dim in labels.shape[1:]):
            labels = labels.reshape(-1)  # (N, 1)-style column vectors
        else:
            raise ValueError(
                f"one_hot expects a 1-D label vector, got shape {labels.shape}"
            )
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(
            f"one_hot expects integer labels, got dtype {labels.dtype}"
        )
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}); "
            f"got range [{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def adaptive_pool_splits(in_size: int, out_size: int) -> list[tuple[int, int]]:
    """Start/end indices of adaptive pooling windows (PyTorch-compatible)."""
    if out_size <= 0:
        raise ValueError("adaptive pool output size must be positive")
    splits = []
    for i in range(out_size):
        start = (i * in_size) // out_size
        end = -(-((i + 1) * in_size) // out_size)  # ceil division
        splits.append((start, end))
    return splits


class _AxisWindows:
    """Adaptive pooling windows along one axis, planned once per
    ``(in_size, out_size)``: start/end indices, window lengths, and which
    summation route the windows take."""

    def __init__(self, in_size: int, out_size: int) -> None:
        splits = adaptive_pool_splits(in_size, out_size)
        self.starts = np.array([s for s, _ in splits])
        self.ends = np.array([e for _, e in splits])
        self.lens = self.ends - self.starts
        # Adaptive windows always start at 0 and end at in_size, so they
        # tile the axis exactly when consecutive windows abut.
        self.tiles = bool(np.all(self.ends[:-1] == self.starts[1:]))
        # Tiling windows of length two (in_size == 2 * out_size): the
        # per-window sum is one add of the even and the odd positions.
        self.pairs = self.tiles and in_size == 2 * out_size
        # Overlapping windows scatter their gradient through a 0/1
        # window-membership matrix (exact in any float dtype).
        self.indicator: Optional[np.ndarray] = None
        if not self.tiles:
            self.indicator = np.zeros((out_size, in_size), dtype=np.float32)
            for i, (start, end) in enumerate(splits):
                self.indicator[i, start:end] = 1.0
            self.indicator.flags.writeable = False  # shared by every caller

    def sums(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Per-window sums along ``axis``.

        Length-two windows add two strided views; other tiling windows
        reduce in one :func:`np.add.reduceat`; overlapping windows
        (``in_size % out_size != 0`` can overlap by construction) fall
        back to cumulative-sum differences.
        """
        if self.pairs:
            lead = (slice(None),) * axis
            return x[lead + (slice(0, None, 2),)] + x[lead + (slice(1, None, 2),)]
        if self.tiles:
            return np.add.reduceat(x, self.starts, axis=axis)
        csum = np.cumsum(x, axis=axis)
        zero_shape = list(x.shape)
        zero_shape[axis] = 1
        csum = np.concatenate([np.zeros(zero_shape, dtype=csum.dtype), csum], axis=axis)
        return csum.take(self.ends, axis=axis) - csum.take(self.starts, axis=axis)


class AdaptivePoolPlan:
    """Adaptive average pooling from ``in_hw`` to ``out_hw``, with the
    windows and cell areas computed once (:func:`adaptive_pool_plan`
    caches one plan per size pair)."""

    def __init__(self, in_hw: tuple[int, int], out_hw: tuple[int, int]) -> None:
        self.in_hw = in_hw
        self.out_hw = out_hw
        self.identity = in_hw == out_hw
        self.rows = _AxisWindows(in_hw[0], out_hw[0])
        self.cols = _AxisWindows(in_hw[1], out_hw[1])
        # Window areas are small integers, exact in any float dtype.
        self.areas = np.outer(self.rows.lens, self.cols.lens).astype(np.float32)
        self.areas.flags.writeable = False  # shared by every caller

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.identity:
            return x.copy()
        sums = self.cols.sums(self.rows.sums(x, axis=2), axis=3)
        return sums / self.areas.astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Scatter each output cell's gradient uniformly over its window.

        The separable scatter is ``expand(rows) . grad . expand(cols)`` —
        ``np.repeat`` when windows tile the axis, an indicator-matrix
        matmul when they overlap."""
        if self.identity:
            return grad_out.copy()
        height, (out_h, out_w) = self.in_hw[0], self.out_hw
        dtype = grad_out.dtype
        scaled = grad_out / self.areas.astype(dtype, copy=False)
        if self.rows.tiles:
            expanded = np.repeat(scaled, self.rows.lens, axis=2)
        else:
            # Reference substrate beneath dispatch: Backend.adaptive_avg_pool2d
            # defaults to this plan, so routing this matmul back through
            # current_backend() would recurse.
            expanded = np.matmul(  # repro: noqa[backend-dispatch]
                self.rows.indicator.astype(dtype, copy=False).T,
                scaled.reshape(-1, out_h, out_w),
            ).reshape(grad_out.shape[0], grad_out.shape[1], height, out_w)
        if self.cols.tiles:
            return np.repeat(expanded, self.cols.lens, axis=3)
        # Same reference-substrate exemption as the row matmul above.
        return np.matmul(  # repro: noqa[backend-dispatch]
            expanded, self.cols.indicator.astype(dtype, copy=False)
        )


@lru_cache(maxsize=1024)
def adaptive_pool_plan(
    in_hw: tuple[int, int], out_hw: tuple[int, int]
) -> AdaptivePoolPlan:
    """The cached :class:`AdaptivePoolPlan` for one (in, out) size pair."""
    return AdaptivePoolPlan(in_hw, out_hw)


def adaptive_avg_pool2d(x: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Average-pool an NCHW tensor to an exact output spatial size."""
    out_h, out_w = out_hw
    return adaptive_pool_plan(x.shape[2:], (out_h, out_w)).forward(x)


def adaptive_avg_pool2d_backward(
    grad_out: np.ndarray, input_shape: tuple[int, int, int, int]
) -> np.ndarray:
    """Backward of :func:`adaptive_avg_pool2d` (see
    :meth:`AdaptivePoolPlan.backward`)."""
    _, _, height, width = input_shape
    return adaptive_pool_plan((height, width), grad_out.shape[2:]).backward(grad_out)
