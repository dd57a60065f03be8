"""Per-subject progression rates, global priors, and Bayesian updating.

A subject's latent trajectory is modeled as z(a) = z_N + beta * (a - a_N),
anchored at the most recent scan.  beta is fit per latent element by exact
no-intercept L1 regression over all ordered pairs of the subject's scans,
which reduces to a weighted median of pairwise slopes.  Population structure
enters through a diagonal Gaussian belief over beta that can be sharpened
with per-subject observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-8


@dataclass
class GaussianBelief:
    """Elementwise (diagonal) Gaussian over a beta vector."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.variance = np.asarray(self.variance, dtype=np.float64)
        if self.mean.shape != self.variance.shape:
            raise ValueError(
                f"mean shape {self.mean.shape} != variance shape {self.variance.shape}"
            )
        if not (np.isfinite(self.mean).all() and np.isfinite(self.variance).all()):
            raise ValueError("non-finite belief")
        self.variance = np.maximum(self.variance, VARIANCE_FLOOR)


@dataclass(frozen=True)
class ObservationNoise:
    variance: np.ndarray


@dataclass
class LatentSequence:
    """One subject's encoded scans, ages in years."""

    subject_id: str
    ages: np.ndarray
    latents: np.ndarray  # (n_scans, *latent shape)

    def __post_init__(self):
        self.ages = np.asarray(self.ages, dtype=np.float64)
        self.latents = np.asarray(self.latents, dtype=np.float64)
        if len(self.ages) != len(self.latents):
            raise ValueError("ages and latents disagree in length")


def l1_slope(delta_ages: np.ndarray, delta_latents: np.ndarray) -> np.ndarray:
    """Exact elementwise minimizer of sum_k |dz_k - beta * da_k|.

    Equals the |da|-weighted median of the slope candidates dz_k/da_k;
    when the half-weight point falls on a boundary the lower candidate
    is taken.
    """
    da = np.asarray(delta_ages, dtype=np.float64)
    dz = np.asarray(delta_latents, dtype=np.float64)
    if da.ndim != 1 or len(da) == 0:
        raise ValueError("need at least one pair")
    if np.any(da == 0.0):
        raise ValueError("zero age difference in pair")
    out_shape = dz.shape[1:]
    dz_flat = dz.reshape(len(da), -1)
    cands = dz_flat / da[:, None]
    weights = np.abs(da)

    order = np.argsort(cands, axis=0, kind="stable")
    sorted_c = np.take_along_axis(cands, order, axis=0)
    sorted_w = np.take_along_axis(
        np.broadcast_to(weights[:, None], cands.shape), order, axis=0
    )
    cum = np.cumsum(sorted_w, axis=0)
    total = weights.sum()
    # >= half picks the lower candidate on exact ties; the slack keeps that
    # choice stable against float rounding in the cumulative sums.
    hit = cum >= 0.5 * total - 1e-9 * total
    idx = hit.argmax(axis=0)
    beta = sorted_c[idx, np.arange(cands.shape[1])]
    return beta.reshape(out_shape)


def l1_slope_objective(beta, delta_ages, delta_latents) -> np.ndarray:
    """The regression objective sum_k |dz_k - beta * da_k|, elementwise."""
    da = np.asarray(delta_ages, dtype=np.float64)
    dz = np.asarray(delta_latents, dtype=np.float64).reshape(len(da), -1)
    b = np.asarray(beta, dtype=np.float64).reshape(1, -1)
    return np.sum(np.abs(dz - b * da[:, None]), axis=0)


def compute_beta(latents, ages) -> np.ndarray:
    """Per-subject progression rate from >= 2 scans.

    All ordered pairs (j != i) enter the regression; mirrored pairs carry
    identical weight and candidate, so they do not move the minimizer.
    """
    ages = np.asarray(ages, dtype=np.float64)
    lat = np.stack([np.asarray(z, dtype=np.float64) for z in latents])
    n = len(ages)
    if n != len(lat):
        raise ValueError("ages and latents disagree in length")
    if n < 2:
        raise ValueError("at least two scans are required to fit a rate")
    if len(np.unique(ages)) != n:
        raise ValueError("duplicate ages in scan list")
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    keep = ii.ravel() != jj.ravel()
    i_idx, j_idx = ii.ravel()[keep], jj.ravel()[keep]
    da = ages[j_idx] - ages[i_idx]
    dz = lat[j_idx] - lat[i_idx]
    return l1_slope(da, dz)


@dataclass(frozen=True)
class Triplets:
    """The (latent, age, beta) dataset every rate prior learns from.

    One row per scan; a subject's beta repeats on each of its rows.
    """

    latents: np.ndarray  # (n, k)
    ages: np.ndarray  # (n,)
    betas: np.ndarray  # (n, k)


def _beta_of(betas: dict[str, np.ndarray], subject_id: str) -> np.ndarray:
    if subject_id not in betas:
        raise ValueError(f"no beta for subject {subject_id!r}")
    return betas[subject_id]


def build_triplets(
    sequences: list[LatentSequence], betas: dict[str, np.ndarray]
) -> Triplets:
    """Rows in sequence order, then scan order; ``betas`` maps subject id to rate."""
    rows = [
        (latent, age, _beta_of(betas, seq.subject_id))
        for seq in sequences
        for latent, age in zip(seq.latents, seq.ages)
    ]
    if not rows:
        raise ValueError("no training triplets")
    latents, ages, rates = zip(*rows)
    n = len(rows)
    return Triplets(
        latents=np.array(latents, dtype=np.float64).reshape(n, -1),
        ages=np.array(ages, dtype=np.float64),
        betas=np.array(rates, dtype=np.float64).reshape(n, -1),
    )


def build_global_prior(betas: np.ndarray) -> GaussianBelief:
    """Elementwise mean/variance over per-scan beta rows (``Triplets.betas``).

    A subject's beta repeats once per scan, so subjects with more scans
    weigh more; variance uses denominator N and is floored.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if len(betas) < 2:
        raise ValueError("need at least two beta rows for a population prior")
    return GaussianBelief(mean=betas.mean(axis=0), variance=betas.var(axis=0))


def estimate_obs_noise(
    sequences: list[LatentSequence], betas: dict[str, np.ndarray]
) -> ObservationNoise:
    """Elementwise variance of linear-model residuals.

    For each subject, residuals r_j = z_j - (z_1 + beta * (a_j - a_1)) are
    taken at every scan except the first (the first scan anchors the line,
    its residual is identically zero and carries no information).  beta
    comes from ``betas``, which maps subject id to rate.
    """
    residuals = []
    for seq in sequences:
        if len(seq.ages) < 2:
            continue
        beta = _beta_of(betas, seq.subject_id)
        order = np.argsort(seq.ages, kind="stable")
        a0 = seq.ages[order[0]]
        z0 = seq.latents[order[0]]
        for j in order[1:]:
            pred = z0 + beta * (seq.ages[j] - a0)
            residuals.append(seq.latents[j] - pred)
    if not residuals:
        raise ValueError("no subject has two or more scans")
    r = np.stack(residuals)
    variance = np.maximum(r.var(axis=0), VARIANCE_FLOOR)
    return ObservationNoise(variance=variance)


def posterior_update(
    prior: GaussianBelief,
    anchor: tuple[np.ndarray, float],
    observations: list[tuple[np.ndarray, float]],
    noise: ObservationNoise,
) -> GaussianBelief:
    """Sharpen a beta belief with observed scans (diagonal Bayesian update).

    Each observation contributes a linear measurement dz = beta * da + eps
    relative to the anchor scan, eps ~ N(0, sigma_obs^2) elementwise.
    With no observations the prior is returned unchanged.
    """
    if not observations:
        return GaussianBelief(mean=prior.mean.copy(), variance=prior.variance.copy())
    z_anchor, a_anchor = anchor
    z_anchor = np.asarray(z_anchor, dtype=np.float64)
    sigma2 = np.asarray(noise.variance, dtype=np.float64)
    if z_anchor.shape != prior.mean.shape:
        raise ValueError(
            f"anchor latent shape {z_anchor.shape} != prior shape {prior.mean.shape}"
        )
    precision = 1.0 / prior.variance
    weighted = prior.mean / prior.variance
    for z_j, a_j in observations:
        da = float(a_j) - float(a_anchor)
        if da == 0.0:
            raise ValueError(f"observation age {a_j} collides with anchor age")
        z_j = np.asarray(z_j, dtype=np.float64)
        if z_j.shape != prior.mean.shape:
            raise ValueError("observation latent shape mismatch")
        dz = z_j - z_anchor
        precision = precision + da * da / sigma2
        weighted = weighted + da * dz / sigma2
    variance = 1.0 / precision
    return GaussianBelief(mean=variance * weighted, variance=variance)


def extrapolate(anchor_latent, anchor_age: float, beta, target_age: float) -> np.ndarray:
    """z* = z_N + beta * (a* - a_N)."""
    z = np.asarray(anchor_latent, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    if z.shape != b.shape:
        raise ValueError(f"latent shape {z.shape} != beta shape {b.shape}")
    return z + b * (float(target_age) - float(anchor_age))


BELIEF_SOURCES = ("global_prior", "gaussian_net", "diffusion", "regression", "posterior")


def resolve_beta(
    scans: list[tuple[np.ndarray, float]],
    source: str,
    *,
    global_prior: GaussianBelief | None = None,
    obs_noise: ObservationNoise | None = None,
    gaussian_net=None,
    denoiser=None,
    schedule=None,
    seed: int = 0,
    k_samples: int = 5,
) -> np.ndarray:
    """Pick the progression rate for a subject's encoded scans.

    ``scans`` are (latent, age) pairs.  Learned priors condition on the most
    recent scan; the posterior anchors its likelihood at the first scan and
    treats every later scan as an observation.
    """
    if source not in BELIEF_SOURCES:
        raise ValueError(f"unknown belief source {source!r}; one of {BELIEF_SOURCES}")
    if not scans:
        raise ValueError("at least one scan is required")
    ordered = sorted(scans, key=lambda s: s[1])
    latest_z, latest_a = ordered[-1]

    if source == "global_prior":
        if global_prior is None:
            raise ValueError("global_prior source requires a global prior")
        return global_prior.mean.copy()
    if source == "regression":
        if len(ordered) < 2:
            raise ValueError("regression source requires at least two scans")
        return compute_beta([z for z, _ in ordered], [a for _, a in ordered])
    if source == "posterior":
        if global_prior is None or obs_noise is None:
            raise ValueError("posterior source requires a global prior and obs noise")
        anchor = ordered[0]
        return posterior_update(global_prior, anchor, ordered[1:], obs_noise).mean
    if source == "gaussian_net":
        if gaussian_net is None:
            raise ValueError("gaussian_net source requires a trained prior network")
        from .gaussian_prior import predict_gaussian_prior

        return predict_gaussian_prior(gaussian_net, latest_z, latest_a).mean
    # diffusion
    if denoiser is None or schedule is None:
        raise ValueError("diffusion source requires a denoiser and schedule")
    from .diffusion import sample_beta_averaged

    return sample_beta_averaged(
        denoiser, schedule, (latest_z, latest_a), k=k_samples, seed=seed
    )


def predict_scan(
    model,
    scans: list[tuple[np.ndarray, float]],
    belief_source: str,
    target_age: float,
    **belief_kwargs,
) -> np.ndarray:
    """Predict the volume at target_age from (volume, age) scan pairs.

    Encodes to latent means, resolves beta from the chosen source,
    extrapolates from the most recent scan, decodes.
    """
    from .autoencoder import decode, encode

    if not scans:
        raise ValueError("at least one scan is required")
    latent_scans = [(encode(model, vol).mean, float(age)) for vol, age in scans]
    beta = resolve_beta(latent_scans, belief_source, **belief_kwargs)
    ordered = sorted(latent_scans, key=lambda s: s[1])
    z_star = extrapolate(ordered[-1][0], ordered[-1][1], beta, target_age)
    return decode(model, z_star)
