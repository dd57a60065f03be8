"""Volumetric structural similarity with an analytic gradient.

Local statistics use cubic sliding windows at stride 1, evaluated only where
the window fits entirely inside the volume (no padding), with population
normalization.  Stabilizers follow the standard form C1 = (0.01 * L)^2,
C2 = (0.03 * L)^2 for the dynamic range L = 1 of the phantom's intensities.
"""

from __future__ import annotations

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


def _box_sums(v: np.ndarray, window: int, full: bool = False) -> np.ndarray:
    """Sums of ``v`` over every cubic window that lies inside it, or with
    ``full`` over every window that overlaps it, ``v`` taken as zero outside.

    The full sums are the adjoint of the valid sums:
    <valid(x), y> == <x, full(y)>.  Each axis is summed as ``window`` shifted
    slices, which at these window sizes is faster than differences of
    cumulative sums and adds no cancellation error.
    """
    if full:
        v = np.pad(v, window - 1)
    at = [slice(None)] * v.ndim
    for axis in range(v.ndim):
        n = v.shape[axis] - window + 1
        at[axis] = slice(0, n)
        sums = v[tuple(at)].copy()
        for k in range(1, window):
            at[axis] = slice(k, k + n)
            sums += v[tuple(at)]
        at[axis] = slice(None)
        v = sums
    return v


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
    c0 = 2 * mu_x * a2 * inv_b1b2 - 2 * mu_x * a1 * inv_b1b2 \
        - 2 * mu_y * s / b1 + 2 * mu_y * s / b2
    cx = 2 * a1 * inv_b1b2
    cy = -2 * s / b2

    n_terms = s.size * window**3  # the mean over windows times the per-window 1/n
    grad = (_box_sums(c0, window, full=True) + x * _box_sums(cx, window, full=True)
            + y * _box_sums(cy, window, full=True)) / n_terms
    return value, grad
