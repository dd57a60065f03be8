"""Volumetric structural similarity with an analytic gradient.

Local statistics use cubic sliding windows at stride 1, evaluated only where
the window fits entirely inside the volume (no padding), with population
normalization.  Stabilizers follow the standard form C1 = (0.01 * L)^2,
C2 = (0.03 * L)^2 for the dynamic range L = 1 of the phantom's intensities.

Window sums are taken one axis at a time over the flat C-order array: along
an axis of stride s, a window's sum is f[i] + f[i+s] + ... + f[i+(w-1)s], so
each of its w-1 additions is one contiguous run over the whole array, not a
strided 3-D slice with inner loops of a few dozen elements.  Sums are added
left to right, so they carry no cancellation error.
"""

from __future__ import annotations

import math

import numpy as np


def check_window(window: int, shape: tuple[int, ...]) -> None:
    """Raise unless ``window`` is odd, at least 3 and fits inside ``shape``."""
    if window % 2 != 1 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if any(window > s for s in shape):
        raise ValueError(f"window {window} larger than volume {shape}")


def _check_inputs(x: np.ndarray, y: np.ndarray, window: int, stack: bool = False) -> None:
    if y.shape != (y.shape[:1] + x.shape if stack else x.shape):
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 3:
        raise ValueError(f"expected 3D volumes, got {x.ndim}D")
    check_window(window, x.shape)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in input volumes")


def _run_sums(f: np.ndarray, stride: int, window: int, out: np.ndarray) -> np.ndarray:
    """Write f[i] + f[i+stride] + ... + f[i+(window-1)*stride], added left to
    right, to out[i] for every i whose run fits inside the flat array ``f``,
    and return that prefix of ``out``."""
    n = f.size - (window - 1) * stride
    head = out[:n]
    np.add(f[:n], f[stride:stride + n], out=head)
    for k in range(2, window):
        head += f[k * stride:k * stride + n]
    return head


def _box_sums(v: np.ndarray, window: int, full: bool = False) -> np.ndarray:
    """Sums of ``v`` over every cubic window that lies inside it, or with
    ``full`` over every window that overlaps it, ``v`` taken as zero outside.

    The full sums are the adjoint of the valid sums:
    <valid(x), y> == <x, full(y)>.  Axes are summed in order, each as
    ``window`` - 1 contiguous runs of the flat array (``_run_sums``).  A run
    that starts near the end of an inner axis wraps into the next row; those
    sums are never read.  Each pass is written only as far as its input
    reaches, which is exactly as far as the last window the result keeps, so
    no unwritten entry is read.
    """
    if full:
        return _full_box_sums(v, window)
    grid = v.shape
    strides = [math.prod(grid[axis + 1:]) for axis in range(v.ndim)]
    kept = [n - window + 1 for n in grid]
    # The outermost pass keeps only its valid prefix; the later passes
    # alternate between two buffers of that size.
    buffers = [np.empty(kept[0] * strides[0], v.dtype) for _ in range(2)]
    f = np.ravel(v)
    for axis, stride in enumerate(strides):
        f = _run_sums(f, stride, window, buffers[axis % 2])
    sums = buffers[(v.ndim - 1) % 2].reshape(kept[0], *grid[1:])
    return sums[(slice(None), *(slice(m) for m in kept[1:]))].copy()


def _full_box_sums(v: np.ndarray, window: int) -> np.ndarray:
    """``_box_sums(v, window, full=True)``: each axis in turn is padded with
    ``window`` - 1 zeros at both ends and summed as flat runs."""
    lead = window - 1
    for axis in range(v.ndim):
        grid = list(v.shape)
        grid[axis] += 2 * lead
        padded = np.zeros(grid, v.dtype)
        padded[(slice(None),) * axis + (slice(lead, lead + v.shape[axis]),)] = v
        sums = np.empty(padded.size, v.dtype)
        _run_sums(padded.ravel(), math.prod(grid[axis + 1:]), window, sums)
        v = sums.reshape(grid)[(slice(None),) * axis + (slice(v.shape[axis] + lead),)]
    return np.ascontiguousarray(v)


def _window_means(v: np.ndarray, window: int) -> np.ndarray:
    return _box_sums(v, window) / window**3


def _terms(mu_x, ex2, mu_y, ey2, exy):
    """Per-window luminance terms a1/b1 and contrast-structure terms a2/b2
    from the box means of x, x*x, y, y*y and x*y."""
    c1 = 0.01**2
    c2 = 0.03**2
    var_x = ex2 - mu_x * mu_x
    var_y = ey2 - mu_y * mu_y
    cov = exy - mu_x * mu_y
    a1 = 2 * mu_x * mu_y + c1
    a2 = 2 * cov + c2
    b1 = mu_x**2 + mu_y**2 + c1
    b2 = var_x + var_y + c2
    return a1, a2, b1, b2


def ssim3d(x: np.ndarray, y: np.ndarray, window: int = 7):
    """Mean SSIM between two volumes over all fully-interior windows.

    ``y`` may also be a stack (m, *x.shape) of volumes, each scored against
    ``x``: the statistics of ``x`` are then computed once, and the result is
    an array of m values, each bit-identical to the call on that volume alone.
    """
    stack = y.ndim == x.ndim + 1
    _check_inputs(x, y, window, stack)
    x = np.asarray(x, dtype=np.float64)
    mu_x = _window_means(x, window)
    ex2 = _window_means(x * x, window)
    values = []
    for v in y if stack else [y]:
        # One volume at a time: the temporaries stay in cache, and the
        # sums run exactly as in a call on that volume alone.
        v = np.asarray(v, dtype=np.float64)
        a1, a2, b1, b2 = _terms(mu_x, ex2, _window_means(v, window), _window_means(v * v, window),
                                _window_means(x * v, window))
        values.append(float(np.mean((a1 * a2) / (b1 * b2))))
    return np.array(values) if stack else values[0]


def ssim3d_with_grad(x: np.ndarray, y: np.ndarray, window: int = 7) -> tuple[float, np.ndarray]:
    """SSIM and its gradient with respect to ``y``.

    Per window w with n voxels, SSIM_w = (A1*A2)/(B1*B2) where A1, B1 are the
    luminance terms and A2, B2 the contrast/structure terms.  d SSIM_w / d y_q
    for q in w expands to (1/n) * (c0 + cx * x_q + cy * y_q) with per-window
    coefficients; summing the windows containing q is the full box sum of
    each coefficient field, so the whole gradient costs three box sums.
    """
    _check_inputs(x, y, window)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mu_x = _window_means(x, window)
    mu_y = _window_means(y, window)
    a1, a2, b1, b2 = _terms(mu_x, _window_means(x * x, window), mu_y,
                            _window_means(y * y, window), _window_means(x * y, window))
    s = (a1 * a2) / (b1 * b2)
    value = float(np.mean(s))

    inv_b1b2 = 1.0 / (b1 * b2)
    two_mu_x = 2 * mu_x
    two_mu_y_s = 2 * mu_y * s
    c0 = two_mu_x * a2 * inv_b1b2 - two_mu_x * a1 * inv_b1b2 - two_mu_y_s / b1 + two_mu_y_s / b2
    cx = 2 * a1 * inv_b1b2
    cy = -2 * s / b2

    n_terms = s.size * window**3  # the mean over windows times the per-window 1/n
    grad = (_box_sums(c0, window, full=True) + x * _box_sums(cx, window, full=True)
            + y * _box_sums(cy, window, full=True)) / n_terms
    return value, grad
