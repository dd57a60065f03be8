"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written the slow, obvious way (python loops,
direct formulas) and imports nothing from latprog, so agreement between a
package routine and its oracle is evidence, not circularity.  The exception
is ``reconstruct``, the package's own inference path, which only tests use.
"""

import numpy as np


def l1_objective(beta, slopes, weights):
    """Sum_k w_k * |s_k - beta| * 1, the no-intercept L1 objective.

    Written in terms of pair slopes s_k = dz_k / da_k and weights w_k = |da_k|:
    |dz_k - beta * da_k| = w_k * |s_k - beta|.
    """
    total = 0.0
    for s, w in zip(slopes, weights):
        total += w * abs(s - beta)
    return total


def l1_slope_objective(beta, delta_ages, delta_latents):
    """The regression objective sum_k |dz_k - beta * da_k|, elementwise."""
    da = np.asarray(delta_ages, dtype=np.float64)
    dz = np.asarray(delta_latents, dtype=np.float64).reshape(len(da), -1)
    b = np.asarray(beta, dtype=np.float64).reshape(1, -1)
    return np.sum(np.abs(dz - b * da[:, None]), axis=0)


def l1_grid_argmin(slopes, weights, lo=0.0, hi=12.0, step=1e-4):
    """Brute-force scan of the L1 objective; returns (argmin, min)."""
    grid = np.arange(lo, hi + step, step)
    vals = np.abs(grid[:, None] - np.asarray(slopes)[None, :])
    vals = vals @ np.asarray(weights, dtype=np.float64)
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


def pair_slopes_weights(latents, ages):
    """All ordered pairs j != i of a scalar trajectory, as (slopes, weights)."""
    slopes, weights = [], []
    n = len(ages)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            da = ages[j] - ages[i]
            slopes.append((latents[j] - latents[i]) / da)
            weights.append(abs(da))
    return slopes, weights


def ssim_reference(a, b, window, dynamic_range=1.0):
    """Mean SSIM over all full interior windows, straight from the formula."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    w = window
    vals = []
    for i in range(a.shape[0] - w + 1):
        for j in range(a.shape[1] - w + 1):
            for k in range(a.shape[2] - w + 1):
                wa = a[i : i + w, j : j + w, k : k + w]
                wb = b[i : i + w, j : j + w, k : k + w]
                mu_a, mu_b = wa.mean(), wb.mean()
                va, vb = wa.var(), wb.var()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (va + vb + c2)
                vals.append(num / den)
    return float(np.mean(vals))


def window_sums_reference(v, window):
    """Sum over every cubic window inside ``v``, one window at a time."""
    v = np.asarray(v, dtype=np.float64)
    w = window
    out = np.empty([s - w + 1 for s in v.shape])
    for i, j, k in np.ndindex(*out.shape):
        out[i, j, k] = v[i : i + w, j : j + w, k : k + w].sum()
    return out


def box_sums_reference(v, window, full=False):
    """Window sums as shifted slices, axis by axis: the sums of every cubic
    window inside ``v``, or with ``full`` of every window overlapping ``v``
    zero-padded.  Each axis's sum adds ``window`` shifted slices left to
    right, so a package routine that adds the same values in the same order
    must agree to the byte."""
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


def _ssim_terms_reference(mu_x, ex2, mu_y, ey2, exy):
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


def ssim_stack_reference(x, ys, window):
    """Mean SSIM of each volume of ``ys`` against ``x``, one volume alone at a
    time, in float64 from ``box_sums_reference`` and the package's formulas
    (``ssim_reference`` is the independent per-window check of those)."""
    x = np.asarray(x, dtype=np.float64)
    n = window**3
    mu_x = box_sums_reference(x, window) / n
    ex2 = box_sums_reference(x * x, window) / n
    values = []
    for y in ys:
        y = np.asarray(y, dtype=np.float64)
        a1, a2, b1, b2 = _ssim_terms_reference(
            mu_x, ex2, box_sums_reference(y, window) / n, box_sums_reference(y * y, window) / n,
            box_sums_reference(x * y, window) / n)
        values.append(float(np.mean((a1 * a2) / (b1 * b2))))
    return np.array(values)


def ssim_with_grad_reference(x, y, window):
    """SSIM of ``y`` against ``x`` and its gradient with respect to ``y``, in
    float64 from ``box_sums_reference`` and the package's formulas, each
    written out in full."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = window**3
    mu_x = box_sums_reference(x, window) / n
    mu_y = box_sums_reference(y, window) / n
    a1, a2, b1, b2 = _ssim_terms_reference(
        mu_x, box_sums_reference(x * x, window) / n, mu_y, box_sums_reference(y * y, window) / n,
        box_sums_reference(x * y, window) / n)
    s = (a1 * a2) / (b1 * b2)
    inv_b1b2 = 1.0 / (b1 * b2)
    c0 = 2 * mu_x * a2 * inv_b1b2 - 2 * mu_x * a1 * inv_b1b2 \
        - 2 * mu_y * s / b1 + 2 * mu_y * s / b2
    cx = 2 * a1 * inv_b1b2
    cy = -2 * s / b2
    grad = (box_sums_reference(c0, window, full=True)
            + x * box_sums_reference(cx, window, full=True)
            + y * box_sums_reference(cy, window, full=True)) / (s.size * n)
    return float(np.mean(s)), grad


def kl_reference(mu, log_var):
    """0.5 * sum(mu^2 + exp(lv) - lv - 1), element by element."""
    mu = np.asarray(mu, dtype=np.float64).ravel()
    lv = np.asarray(log_var, dtype=np.float64).ravel()
    total = 0.0
    for m, v in zip(mu, lv):
        total += 0.5 * (m * m + np.exp(v) - v - 1.0)
    return float(total)


def posterior_scalar(mu0, var0, anchor, observations, obs_var):
    """Diagonal Bayesian update for one element, direct substitution."""
    z0, a0 = anchor
    prec = 1.0 / var0
    mean_acc = mu0 / var0
    for z, a in observations:
        da = a - a0
        prec += da * da / obs_var
        mean_acc += da * (z - z0) / obs_var
    var = 1.0 / prec
    return mean_acc * var, var


def wls_slope(anchor, observations):
    """No-intercept least squares slope through the anchor."""
    z0, a0 = anchor
    num = sum((a - a0) * (z - z0) for z, a in observations)
    den = sum((a - a0) ** 2 for z, a in observations)
    return num / den


def ancestral_reference(eps_fn, betas, shape, seed, sample_noise=True):
    """Reverse-diffusion chain, plain loop.

    `betas` has length T+1 with betas[0] = 0 unused; draw order is the start
    state first, then one noise draw per step t = T..2.
    """
    betas = np.asarray(betas, dtype=np.float64)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    t_max = len(betas) - 1
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    for t in range(t_max, 0, -1):
        eps = eps_fn(x, t)
        mean = (x - betas[t] / np.sqrt(1.0 - alpha_bars[t]) * eps) / np.sqrt(alphas[t])
        if t > 1:
            var = (1.0 - alpha_bars[t - 1]) / (1.0 - alpha_bars[t]) * betas[t]
            if sample_noise:
                mean = mean + np.sqrt(var) * rng.standard_normal(shape)
        x = mean
    return x


def analytic_gaussian_denoiser(mu0, var0, alpha_bars):
    """Optimal eps-predictor for scalar data x0 ~ N(mu0, var0)."""

    def eps_fn(x, t):
        ab = alpha_bars[t]
        return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * mu0) / (ab * var0 + 1.0 - ab)

    return eps_fn


def ellipsoid_volume(radii):
    a, b, c = radii
    return 4.0 / 3.0 * np.pi * a * b * c


def phantom_signed_distance(shape, grid_size):
    """Signed distance (voxels, < 0 inside) of a phantom ``Ellipsoid`` or
    ``SpherePair`` at every voxel of the grid, from a dense (3, n, n, n)
    coordinate array summed over its first axis."""
    coords = np.indices((grid_size,) * 3, dtype=np.float64)
    if hasattr(shape, "radii"):
        c = np.asarray(shape.center).reshape(3, 1, 1, 1)
        r = np.asarray(shape.radii).reshape(3, 1, 1, 1)
        rho = np.sqrt(np.sum(((coords - c) / r) ** 2, axis=0))
        return (rho - 1.0) * float(np.cbrt(shape.radii[0] * shape.radii[1] * shape.radii[2]))
    dists = [np.sqrt(np.sum((coords - np.asarray(c).reshape(3, 1, 1, 1)) ** 2, axis=0))
             for c in shape.centers]
    return np.minimum(*dists) - shape.radius


def phantom_coverage(shape, grid_size):
    """Soft membership with a one-voxel linear ramp across the boundary."""
    return np.clip(0.5 - phantom_signed_distance(shape, grid_size), 0.0, 1.0)


def render_dense(shapes, intensities, grid_size, noise_sigma, seed):
    """Alpha-composite every shape over the whole grid in order, then add noise."""
    vol = np.zeros((grid_size,) * 3, dtype=np.float64)
    for shape, intensity in zip(shapes, intensities):
        cov = phantom_coverage(shape, grid_size)
        vol = vol * (1.0 - cov) + intensity * cov
    if noise_sigma > 0:
        vol = vol + np.random.default_rng(seed).normal(0.0, noise_sigma, vol.shape)
    return vol.astype(np.float32)


def segment_dense(shapes, region_ids, grid_size):
    """Label every voxel inside a shape with its id, later shapes on top."""
    labels = np.zeros((grid_size,) * 3, dtype=np.int32)
    for shape, rid in zip(shapes, region_ids):
        labels[phantom_signed_distance(shape, grid_size) <= 0.0] = rid
    return labels


def gaussian_prior_loss_reference(mu, log_var, beta, nll_weight):
    """mean over samples of |mu - beta|_mean + w * ((beta-mu)^2/var + lv)_mean."""
    mu = np.asarray(mu, dtype=np.float64)
    lv = np.asarray(log_var, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    vals = []
    for m, v, b in zip(mu, lv, beta):
        l1 = np.abs(m - b).mean()
        nll = ((b - m) ** 2 / np.exp(v) + v).mean()
        vals.append(l1 + nll_weight * nll)
    return float(np.mean(vals))


def pca_rows_svd(x, k):
    """Top-k principal directions of the rows of x by a thin SVD of the
    centered matrix, as rows; rows past min(n, d) are zero.  Returns the
    rows, signs as the SVD gives them, and their squared singular values."""
    x = np.asarray(x, dtype=np.float64)
    _, s, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    m = min(k, vt.shape[0])
    rows = np.zeros((k, x.shape[1]))
    rows[:m] = vt[:m]
    s2 = np.zeros(k)
    s2[:m] = s[:m] ** 2
    return rows, s2


def region_counts_unique(seg, region_ids):
    """Voxel count per region id and of all non-background voxels, by
    ``np.unique`` over the labels and one mask per region; raises on a label
    that is neither background nor a region id."""
    seg = np.asarray(seg)
    unknown = set(int(v) for v in np.unique(seg)) - set(region_ids) - {0}
    if unknown:
        raise ValueError(f"unknown segmentation labels {sorted(unknown)}")
    counts = {rid: int(np.count_nonzero(seg == rid)) for rid in region_ids}
    return counts, int(np.count_nonzero(seg))


def dice_masks(a, b):
    """Generalized Dice (w_r = 1/max(|A_r|, 1)^2) from one pair of boolean
    masks per label present in either map, labels in ascending order."""
    a = np.asarray(a)
    b = np.asarray(b)
    labels = (set(int(v) for v in np.unique(a)) | set(int(v) for v in np.unique(b))) - {0}
    if not labels:
        return 1.0
    num = 0.0
    den = 0.0
    for lab in sorted(labels):
        in_a = a == lab
        in_b = b == lab
        n_a = int(in_a.sum())
        n_b = int(in_b.sum())
        w = 1.0 / max(n_a, 1) ** 2
        num += w * 2.0 * int(np.logical_and(in_a, in_b).sum())
        den += w * (n_a + n_b)
    return num / den


def segment_argmin(volume, intensities, ids):
    """Nearest-intensity labels by ``argmin`` over the distances to every
    intensity, sorted ascending (a tie takes the lower one); voxels below
    half the lowest intensity are background 0."""
    intensities = np.asarray(intensities, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int32)
    order = np.argsort(intensities)
    intensities, ids = intensities[order], ids[order]
    vol = np.asarray(volume, dtype=np.float64)
    labels = ids[np.argmin(np.abs(vol[..., None] - intensities), axis=-1)]
    labels[vol < intensities[0] / 2.0] = 0
    return labels.astype(np.int32)


def bin_labels(table):
    """The age-bin labels of a beta-norm table, in ascending order of their
    lower edge."""
    return sorted({label for _, label in table.cells}, key=lambda s: float(s[1:].split(",")[0]))


def reconstruct(model, volume):
    """Decode the encoded mean (the inference path)."""
    from latprog.autoencoder import decode, encode

    return decode(model, encode(model, volume).mean)
