"""Volumetric SSIM against a direct per-window reference, plus its gradient."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from latprog.ssim import _box_sums, ssim3d, ssim3d_with_grad


@pytest.mark.parametrize("window", [3, 5, 7])
def test_box_sums_match_per_window_loop(rng, window):
    v = rng.random((8, 9, 11))
    got = _box_sums(v, window)
    want = oracles.window_sums_reference(v, window)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("window", [3, 5, 7])
def test_full_box_sums_are_adjoint_of_valid_sums(rng, window):
    x = rng.random((8, 9, 11))
    y = rng.random([s - window + 1 for s in x.shape])
    full = _box_sums(y, window, full=True)
    assert full.shape == x.shape
    assert np.vdot(_box_sums(x, window), y) == pytest.approx(np.vdot(x, full), rel=1e-12)


def test_identical_volumes_score_one(rng):
    x = rng.random((8, 8, 8))
    assert ssim3d(x, x) == pytest.approx(1.0, abs=1e-12)


def test_matches_per_window_reference(rng):
    for window in (5, 7):
        a = rng.random((8, 8, 8))
        b = np.clip(a + rng.normal(0.0, 0.1, a.shape), 0.0, 1.0)
        got = ssim3d(a, b, window=window)
        want = oracles.ssim_reference(a, b, window)
        assert got == pytest.approx(want, abs=1e-6)


def test_constant_offset_pair_scores_low():
    # constant windows: structure term is 1, luminance term dominates
    a = np.full((8, 8, 8), 0.2)
    b = np.full((8, 8, 8), 1.2)
    val = ssim3d(a, b)
    assert val < 0.5
    assert val == pytest.approx(oracles.ssim_reference(a, b, 7), abs=1e-9)


def test_symmetry(rng):
    a, b = rng.random((8, 8, 8)), rng.random((8, 8, 8))
    assert ssim3d(a, b) == pytest.approx(ssim3d(b, a), abs=1e-12)


def test_gradient_matches_finite_differences(rng):
    a = rng.random((8, 8, 8))
    b = rng.random((8, 8, 8))
    _, grad = ssim3d_with_grad(a, b, window=5)
    h = 1e-6
    idx = [(0, 0, 0), (3, 4, 2), (7, 7, 7), (2, 6, 5)]
    for i in idx:
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        fd = (ssim3d(a, bp, window=5) - ssim3d(a, bm, window=5)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_grad_value_consistent_with_plain_call(rng):
    a, b = rng.random((8, 8, 8)), rng.random((8, 8, 8))
    val, _ = ssim3d_with_grad(a, b)
    assert val == pytest.approx(ssim3d(a, b), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4), window=st.sampled_from([3, 5, 7]),
       float32=st.booleans())
def test_stack_equals_per_volume_calls_bitwise(seed, m, window, float32):
    r = np.random.default_rng(seed)
    x = r.random((7, 8, 9))
    ys = np.clip(x + r.normal(0.0, r.uniform(0.0, 0.5), (m, *x.shape)), 0.0, 1.0)
    if float32:
        x, ys = x.astype(np.float32), ys.astype(np.float32)
    got = ssim3d(x, ys, window=window)
    assert got.shape == (m,)
    want = np.array([ssim3d(x, y, window=window) for y in ys])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_stack_shape_checked(rng):
    x = rng.random((8, 8, 8))
    with pytest.raises(ValueError, match="shape"):
        ssim3d(x, rng.random((2, 8, 8, 7)))
    with pytest.raises(ValueError, match="shape"):
        ssim3d_with_grad(x, rng.random((2, 8, 8, 8)))


def test_window_larger_than_volume_rejected(rng):
    a = rng.random((4, 4, 4))
    with pytest.raises(ValueError):
        ssim3d(a, a, window=5)


def test_even_window_rejected(rng):
    a = rng.random((8, 8, 8))
    with pytest.raises(ValueError):
        ssim3d(a, a, window=4)


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        ssim3d(rng.random((8, 8, 8)), rng.random((8, 8, 7)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bounded_and_self_similar(seed):
    r = np.random.default_rng(seed)
    a = r.random((6, 6, 6))
    b = r.random((6, 6, 6))
    val = ssim3d(a, b, window=5)
    assert -1.0 <= val <= 1.0
    assert ssim3d(a, a, window=5) == pytest.approx(1.0, abs=1e-12)


@st.composite
def volumes_and_window(draw):
    """A 3-D shape with axes 3-12 long, a window of 3, 5 or 7 that fits it,
    and a seed and dtype for its volumes."""
    shape = tuple(draw(st.integers(3, 12)) for _ in range(3))
    window = draw(st.sampled_from([w for w in (3, 5, 7) if w <= min(shape)]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return shape, window, dtype, draw(st.integers(0, 2**32 - 1))


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(volumes_and_window())
@example(((3, 12, 4), 3, np.float64, 0))
@example(((7, 9, 7), 7, np.float32, 1))
def test_box_sums_match_shifted_slices_bytewise(case):
    shape, window, dtype, seed = case
    r = np.random.default_rng(seed)
    v = r.random(shape).astype(dtype)
    assert _same_bytes(_box_sums(v, window), oracles.box_sums_reference(v, window))
    u = r.normal(size=[s - window + 1 for s in shape]).astype(dtype)
    assert _same_bytes(_box_sums(u, window, full=True),
                       oracles.box_sums_reference(u, window, full=True))


@settings(max_examples=60, deadline=None)
@given(volumes_and_window())
@example(((5, 5, 5), 5, np.float64, 2))
@example(((12, 3, 8), 3, np.float32, 3))
def test_ssim_value_and_gradient_match_oracle_sums_bytewise(case):
    shape, window, dtype, seed = case
    r = np.random.default_rng(seed)
    x = r.random(shape).astype(dtype)
    y = np.clip(x + r.normal(0.0, r.uniform(0.0, 0.5), shape), 0.0, 1.0).astype(dtype)
    value, grad = ssim3d_with_grad(x, y, window)
    want_value, want_grad = oracles.ssim_with_grad_reference(x, y, window)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert _same_bytes(grad, want_grad)
    ys = np.stack([y, x, 1.0 - y])
    assert _same_bytes(ssim3d(x, ys, window), oracles.ssim_stack_reference(x, ys, window))
