"""Planned adaptive pooling is bitwise equal to the unplanned original.

``F.adaptive_avg_pool2d`` and its backward read cached per-(in, out)
window plans and sum length-two windows with two strided adds.  The
oracle below is the implementation before planning, kept verbatim: it
rebuilds the windows on every call and sums every tiling window with
``np.add.reduceat``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


# ----------------------------------------------------------------------
# The unplanned implementation (oracle), verbatim.
# ----------------------------------------------------------------------
def _splits_tile(starts, ends, size):
    return (
        starts[0] == 0
        and ends[-1] == size
        and bool(np.all(ends[:-1] == starts[1:]))
    )


def _window_sums(x, splits, axis):
    starts = np.array([s for s, _ in splits])
    ends = np.array([e for _, e in splits])
    if _splits_tile(starts, ends, x.shape[axis]):
        return np.add.reduceat(x, starts, axis=axis)
    csum = np.cumsum(x, axis=axis)
    zero_shape = list(x.shape)
    zero_shape[axis] = 1
    csum = np.concatenate([np.zeros(zero_shape, dtype=csum.dtype), csum], axis=axis)
    return csum.take(ends, axis=axis) - csum.take(starts, axis=axis)


def oracle_pool(x, out_hw):
    out_h, out_w = out_hw
    batch, channels, height, width = x.shape
    if (height, width) == (out_h, out_w):
        return x.copy()
    rows = F.adaptive_pool_splits(height, out_h)
    cols = F.adaptive_pool_splits(width, out_w)
    sums = _window_sums(_window_sums(x, rows, axis=2), cols, axis=3)
    areas = np.outer(
        [r1 - r0 for r0, r1 in rows], [c1 - c0 for c0, c1 in cols]
    ).astype(x.dtype)
    return sums / areas


def oracle_pool_backward(grad_out, input_shape):
    _, _, height, width = input_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    if (height, width) == (out_h, out_w):
        return grad_out.copy()
    rows = F.adaptive_pool_splits(height, out_h)
    cols = F.adaptive_pool_splits(width, out_w)
    row_lens = np.array([r1 - r0 for r0, r1 in rows])
    col_lens = np.array([c1 - c0 for c0, c1 in cols])
    areas = np.outer(row_lens, col_lens).astype(grad_out.dtype)
    scaled = grad_out / areas
    row_starts = np.array([r0 for r0, _ in rows])
    row_ends = np.array([r1 for _, r1 in rows])
    col_starts = np.array([c0 for c0, _ in cols])
    col_ends = np.array([c1 for _, c1 in cols])
    if _splits_tile(row_starts, row_ends, height):
        expanded = np.repeat(scaled, row_lens, axis=2)
    else:
        indicator = np.zeros((out_h, height), dtype=grad_out.dtype)
        for i, (r0, r1) in enumerate(rows):
            indicator[i, r0:r1] = 1.0
        expanded = np.matmul(
            indicator.T, scaled.reshape(-1, out_h, out_w)
        ).reshape(grad_out.shape[0], grad_out.shape[1], height, out_w)
    if _splits_tile(col_starts, col_ends, width):
        return np.repeat(expanded, col_lens, axis=3)
    indicator = np.zeros((out_w, width), dtype=grad_out.dtype)
    for j, (c0, c1) in enumerate(cols):
        indicator[j, c0:c1] = 1.0
    return np.matmul(expanded, indicator)


# ----------------------------------------------------------------------
SIZE = st.integers(1, 40)


@given(
    in_h=SIZE,
    in_w=SIZE,
    out_h=SIZE,
    out_w=SIZE,
    batch=st.integers(1, 3),
    channels=st.integers(1, 3),
    magnitude=st.sampled_from([1.0, 1e4, 1e8, 1e30]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_planned_pool_matches_unplanned_bitwise(
    in_h, in_w, out_h, out_w, batch, channels, magnitude, seed
):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((batch, channels, in_h, in_w)) * magnitude).astype(
        np.float32
    )
    out = F.adaptive_avg_pool2d(x, (out_h, out_w))
    expected = oracle_pool(x, (out_h, out_w))
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)

    grad = (rng.standard_normal(expected.shape) * magnitude).astype(np.float32)
    grad_in = F.adaptive_avg_pool2d_backward(grad, x.shape)
    expected_grad = oracle_pool_backward(grad, x.shape)
    assert grad_in.dtype == expected_grad.dtype
    np.testing.assert_array_equal(grad_in, expected_grad)


@given(in_size=st.integers(1, 20), out_size=st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_float64_inputs_keep_their_dtype(in_size, out_size):
    """Cached areas and indicators are kept per dtype."""
    rng = np.random.default_rng(in_size * 31 + out_size)
    x = rng.standard_normal((2, 1, in_size, in_size + 1))
    out_hw = (out_size, out_size + 2)
    np.testing.assert_array_equal(
        F.adaptive_avg_pool2d(x, out_hw), oracle_pool(x, out_hw)
    )
    grad = rng.standard_normal((2, 1) + out_hw)
    np.testing.assert_array_equal(
        F.adaptive_avg_pool2d_backward(grad, x.shape),
        oracle_pool_backward(grad, x.shape),
    )
    # Interleave a float32 call on the same plan.
    x32 = x.astype(np.float32)
    assert F.adaptive_avg_pool2d(x32, out_hw).dtype == np.float32


def test_pool_plans_are_cached_per_size_pair():
    first = F.adaptive_pool_plan((16, 16), (8, 8))
    assert F.adaptive_pool_plan((16, 16), (8, 8)) is first
    assert first.rows.pairs and first.cols.pairs
    wide = F.adaptive_pool_plan((24, 32), (8, 8))
    assert wide.rows.tiles and not wide.rows.pairs
    overlap = F.adaptive_pool_plan((4, 5), (8, 3))
    assert not overlap.rows.tiles and not overlap.cols.tiles
