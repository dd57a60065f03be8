"""Volumetric structural similarity with an analytic gradient.

Local statistics use cubic sliding windows at stride 1, evaluated only where
the window fits entirely inside the volume (no padding), with population
normalization.  Stabilizers follow the standard form C1 = (0.01 * L)^2,
C2 = (0.03 * L)^2 for dynamic range L.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter


def check_window(window: int, shape: tuple[int, ...]) -> None:
    """Raise unless ``window`` is odd, at least 3 and fits inside ``shape``."""
    if window % 2 != 1 or window < 3:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if any(window > s for s in shape):
        raise ValueError(f"window {window} larger than volume {shape}")


def _check_inputs(x: np.ndarray, y: np.ndarray, window: int) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 3:
        raise ValueError(f"expected 3D volumes, got {x.ndim}D")
    check_window(window, x.shape)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite values in input volumes")


def _window_stats(x, y, window):
    # Box means over the full grid; only the interior slice (where the
    # window is fully inside) is used, so the filter's boundary mode is
    # irrelevant there.
    lo = window // 2
    sl = tuple(slice(lo, s - lo) for s in x.shape)
    mu_x = uniform_filter(x, window)[sl]
    mu_y = uniform_filter(y, window)[sl]
    ex2 = uniform_filter(x * x, window)[sl]
    ey2 = uniform_filter(y * y, window)[sl]
    exy = uniform_filter(x * y, window)[sl]
    var_x = ex2 - mu_x * mu_x
    var_y = ey2 - mu_y * mu_y
    cov = exy - mu_x * mu_y
    return sl, mu_x, mu_y, var_x, var_y, cov


def ssim3d(x: np.ndarray, y: np.ndarray, window: int = 7, dynamic_range: float = 1.0) -> float:
    """Mean SSIM between two volumes over all fully-interior windows."""
    _check_inputs(x, y, window)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    _, mu_x, mu_y, var_x, var_y, cov = _window_stats(x, y, window)
    num = (2 * mu_x * mu_y + c1) * (2 * cov + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    return float(np.mean(num / den))


def ssim3d_with_grad(
    x: np.ndarray, y: np.ndarray, window: int = 7, dynamic_range: float = 1.0
) -> tuple[float, np.ndarray]:
    """SSIM and its gradient with respect to ``y``.

    Per window w with n voxels, SSIM_w = (A1*A2)/(B1*B2) where A1, B1 are the
    luminance terms and A2, B2 the contrast/structure terms.  d SSIM_w / d y_q
    for q in w expands to (1/n) * (c0 + cx * x_q + cy * y_q) with per-window
    coefficients; summing windows containing q is a box filter over the
    window-center fields, so the whole gradient costs a few separable passes.
    """
    _check_inputs(x, y, window)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    sl, mu_x, mu_y, var_x, var_y, cov = _window_stats(x, y, window)
    a1 = 2 * mu_x * mu_y + c1
    a2 = 2 * cov + c2
    b1 = mu_x**2 + mu_y**2 + c1
    b2 = var_x + var_y + c2
    s = (a1 * a2) / (b1 * b2)
    value = float(np.mean(s))

    inv_b1b2 = 1.0 / (b1 * b2)
    c0 = 2 * mu_x * a2 * inv_b1b2 - 2 * mu_x * a1 * inv_b1b2 \
        - 2 * mu_y * s / b1 + 2 * mu_y * s / b2
    cx = 2 * a1 * inv_b1b2
    cy = -2 * s / b2

    def box_sum(center_field):
        full = np.zeros_like(x)
        full[sl] = center_field
        # uniform_filter normalizes by n; with the trailing 1/n in the
        # per-window expansion this cancels exactly.
        return uniform_filter(full, window, mode="constant", cval=0.0)

    n_windows = s.size
    grad = (box_sum(c0) + x * box_sum(cx) + y * box_sum(cy)) / n_windows
    return value, grad
