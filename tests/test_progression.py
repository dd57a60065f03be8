"""Rate estimation, the population prior, noise pooling, and the posterior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latprog.progression import (
    VARIANCE_FLOOR,
    GaussianBelief,
    LatentSequence,
    ObservationNoise,
    build_global_prior,
    build_triplets,
    compute_beta,
    estimate_obs_noise,
    extrapolate,
    l1_slope,
    l1_slope_objective,
    posterior_update,
)

SHAPE = (2, 2, 2, 2)


def grid(value):
    return np.full(SHAPE, float(value))


# ---------------------------------------------------------------- l1 slope


def test_weighted_median_tie_breaks_low():
    # grid scan of the objective pins the lower candidate
    slopes = np.array([1.0, 1.0, 10.0])
    weights = np.array([1.0, 2.0, 1.0])
    beta = l1_slope(weights, slopes * weights)  # (da, dz) form
    assert beta == 1.0
    argmin, _ = oracles.l1_grid_argmin(slopes, weights)
    assert beta == pytest.approx(argmin, abs=1e-4)


def test_l1_slope_objective_consistency():
    da = np.array([1.0, 2.0, 1.0])
    dz = np.array([1.0, 2.0, 10.0])
    beta = l1_slope(da, dz)
    at_beta = l1_slope_objective(beta, da, dz)
    for other in (beta - 0.5, beta + 0.5, 0.0, 9.9):
        assert at_beta <= l1_slope_objective(other, da, dz) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_weighted_median_is_global_minimizer(seed, n_pairs):
    r = np.random.default_rng(seed)
    slopes = r.uniform(0.0, 10.0, n_pairs)
    weights = r.uniform(0.1, 3.0, n_pairs)
    da = weights
    dz = slopes * weights
    beta = l1_slope(da, dz)
    _, grid_min = oracles.l1_grid_argmin(slopes, weights)
    assert l1_slope_objective(beta, da, dz) <= grid_min + 1e-8


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_slope_equivariance(seed, age_scale, latent_scale):
    r = np.random.default_rng(seed)
    n = r.integers(2, 6)
    da = r.uniform(0.5, 4.0, n) * np.where(r.random(n) < 0.5, -1.0, 1.0)
    dz = r.normal(0.0, 1.0, n)
    beta = l1_slope(da, dz)
    assert l1_slope(da * age_scale, dz) == pytest.approx(
        beta / age_scale, rel=1e-9, abs=1e-12
    )
    assert l1_slope(da, dz * latent_scale) == pytest.approx(
        beta * latent_scale, rel=1e-9, abs=1e-12
    )


# ------------------------------------------------------------- compute_beta


def test_two_point_slope():
    beta = compute_beta([grid(1.0), grid(1.5)], [70.0, 72.0])
    assert np.allclose(beta, 0.25, atol=1e-15)


def test_exact_linear_trajectory_recovered():
    ages = [70.0, 72.0, 75.0]
    lats = [grid(0.5 + 0.1 * (a - 70.0)) for a in ages]
    beta = compute_beta(lats, ages)
    assert np.abs(beta - 0.1).max() < 1e-12


def test_elements_are_independent(rng):
    ages = [60.0, 62.0, 65.0, 66.0]
    lats = [rng.normal(0.0, 1.0, SHAPE) for _ in ages]
    beta = compute_beta(lats, ages)
    flat_lats = [l.ravel() for l in lats]
    for k in range(beta.size):
        da, dz = [], []
        n = len(ages)
        for i in range(n):
            for j in range(n):
                if i != j:
                    da.append(ages[j] - ages[i])
                    dz.append(flat_lats[j][k] - flat_lats[i][k])
        assert beta.ravel()[k] == pytest.approx(
            l1_slope(np.array(da), np.array(dz)), abs=1e-12
        )


def test_scan_order_does_not_matter(rng):
    ages = np.array([70.0, 72.0, 75.0, 76.0])
    lats = [rng.normal(0.0, 1.0, SHAPE) for _ in ages]
    beta = compute_beta(lats, ages)
    perm = [2, 0, 3, 1]
    beta_p = compute_beta([lats[i] for i in perm], ages[perm])
    assert np.array_equal(beta, beta_p)


def test_compute_beta_errors(rng):
    with pytest.raises(ValueError):
        compute_beta([grid(1.0)], [70.0])
    with pytest.raises(ValueError):
        compute_beta([grid(1.0), grid(2.0)], [70.0, 70.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_noiseless_recovery(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(3, 7))
    ages = np.sort(r.uniform(55.0, 90.0, n))
    while np.min(np.diff(ages)) < 1e-3:
        ages = np.sort(r.uniform(55.0, 90.0, n))
    beta_true = r.normal(0.0, 0.5, SHAPE)
    z0 = r.normal(0.0, 1.0, SHAPE)
    lats = [z0 + beta_true * (a - ages[0]) for a in ages]
    beta = compute_beta(lats, ages)
    assert np.abs(beta - beta_true).max() < 1e-9


# ----------------------------------------------------------- triplets/prior


def fitted_betas(sequences):
    return {s.subject_id: compute_beta(s.latents, s.ages) for s in sequences}


def test_triplets_replicate_beta_per_timepoint(rng):
    seqs = [
        LatentSequence("b", np.array([60.0, 63.0]),
                       rng.normal(0.0, 1.0, (2, *SHAPE))),
        LatentSequence("a", np.array([74.0, 70.0, 71.0]),
                       rng.normal(0.0, 1.0, (3, *SHAPE))),
    ]
    trips = build_triplets(seqs, {"a": grid(0.5), "b": grid(-1.0), "unused": grid(9.0)})
    # sequence order, then each sequence's scans as stored; one beta row per scan
    np.testing.assert_array_equal(trips.ages, [60.0, 63.0, 74.0, 70.0, 71.0])
    np.testing.assert_array_equal(
        trips.latents, np.concatenate([s.latents for s in seqs]).reshape(5, -1)
    )
    np.testing.assert_array_equal(
        trips.betas, np.stack([grid(-1.0)] * 2 + [grid(0.5)] * 3).reshape(5, -1)
    )
    assert trips.latents.dtype == trips.ages.dtype == trips.betas.dtype == np.float64


@pytest.mark.parametrize("sequences", [
    [],
    [LatentSequence("s", np.empty(0), np.empty((0, *SHAPE)))],
], ids=["no-sequences", "no-scans"])
def test_build_triplets_rejects_empty_input(sequences):
    with pytest.raises(ValueError, match="triplet"):
        build_triplets(sequences, {"s": grid(0.1)})


def test_prior_identical_betas_hit_floor():
    prior = build_global_prior(np.stack([grid(0.7)] * 3))
    assert np.allclose(prior.mean, 0.7)
    assert np.array_equal(prior.variance, np.full(SHAPE, VARIANCE_FLOOR))


def test_prior_two_point_variance():
    prior = build_global_prior(np.stack([grid(0.0), grid(2.0)]))
    assert np.allclose(prior.mean, 1.0)
    assert np.allclose(prior.variance, 1.0)  # denominator N


def test_prior_sampling_statistics():
    r = np.random.default_rng(54)
    betas = r.normal(0.3, 0.2, (100, 16))
    prior = build_global_prior(betas)
    assert np.abs(prior.mean - 0.3).max() < 0.05
    assert np.abs(prior.variance - 0.04).max() / 0.04 < 0.30


def test_prior_requires_two_triplets():
    with pytest.raises(ValueError):
        build_global_prior(grid(1.0)[None])


def test_subjects_with_more_scans_weigh_more(rng):
    seq_long = LatentSequence(
        "long", np.array([70.0, 71.0, 72.0, 73.0]),
        np.stack([grid(0.0) + 1.0 * (a - 70.0) for a in [70.0, 71.0, 72.0, 73.0]]),
    )
    seq_short = LatentSequence(
        "short", np.array([70.0, 71.0]),
        np.stack([grid(0.0), grid(5.0)]),
    )
    seqs = [seq_long, seq_short]
    prior = build_global_prior(build_triplets(seqs, fitted_betas(seqs)).betas)
    # 4 triplets at beta=1, 2 at beta=5 -> mean (4*1 + 2*5)/6
    assert np.allclose(prior.mean, 14.0 / 6.0)


def test_gaussian_belief_floors_variance():
    belief = GaussianBelief(mean=grid(0.0), variance=grid(0.0))
    assert np.array_equal(belief.variance, np.full(SHAPE, VARIANCE_FLOOR))
    with pytest.raises(ValueError):
        GaussianBelief(mean=grid(np.nan), variance=grid(1.0))


# --------------------------------------------------------------- obs noise


def seq_linear(sid, ages, beta, z0, noise=None):
    lats = np.stack([
        z0 + beta * (a - ages[0]) + (0.0 if noise is None else noise[i])
        for i, a in enumerate(ages)
    ])
    return LatentSequence(sid, np.asarray(ages, dtype=np.float64), lats)


def test_perfectly_linear_noise_is_floored(rng):
    seqs = [
        seq_linear(f"s{i}", [70.0, 72.0, 75.0], rng.normal(0.0, 0.3, SHAPE),
                   rng.normal(0.0, 1.0, SHAPE))
        for i in range(4)
    ]
    noise = estimate_obs_noise(seqs, fitted_betas(seqs))
    assert np.array_equal(noise.variance, np.full(SHAPE, VARIANCE_FLOOR))


def test_alternating_residuals_give_two_point_variance():
    # residuals +-0.1 about a known line, beta supplied directly
    ages = [70.0, 71.0, 72.0]
    z0 = grid(0.0)
    beta = grid(0.5)
    lats = np.stack([
        z0 + beta * (ages[1] - ages[0]) + 0.1,
        z0 + beta * (ages[2] - ages[0]) - 0.1,
    ])
    seq = LatentSequence("s", np.array(ages, dtype=np.float64),
                         np.concatenate([z0[None], lats]))
    noise = estimate_obs_noise([seq], {"s": beta})
    assert np.allclose(noise.variance, 0.01, atol=1e-15)


def test_known_beta_iid_noise_doubles_variance():
    """Residuals difference the first-scan noise: var(e_j - e_1) = 2 sigma^2."""
    r = np.random.default_rng(8)
    sigma = 0.2
    betas, seqs = {}, []
    for s in range(40):
        ages = np.sort(r.uniform(60.0, 75.0, 5))
        beta = r.normal(0.0, 0.3, SHAPE)
        z0 = r.normal(0.0, 1.0, SHAPE)
        noise = r.normal(0.0, sigma, (5, *SHAPE))
        seqs.append(seq_linear(f"s{s}", ages, beta, z0, noise))
        betas[f"s{s}"] = beta
    est = estimate_obs_noise(seqs, betas)
    ratio = est.variance.mean() / sigma**2
    assert 1.7 < ratio < 2.3


def test_refit_beta_noise_within_spec_band():
    # with beta refit from the same noisy scans, part of the noise is absorbed
    r = np.random.default_rng(9)
    sigma = 0.2
    seqs = []
    for s in range(40):
        ages = np.sort(r.uniform(60.0, 75.0, 5))
        noise = r.normal(0.0, sigma, (5, *SHAPE))
        seqs.append(seq_linear(f"s{s}", ages, r.normal(0.0, 0.3, SHAPE),
                               r.normal(0.0, 1.0, SHAPE), noise))
    est = estimate_obs_noise(seqs, fitted_betas(seqs))
    ratio = est.variance.mean() / sigma**2
    assert 0.5 < ratio < 2.0


def test_obs_noise_errors(rng):
    seq = seq_linear("s", [70.0, 72.0], grid(0.1), grid(0.0))
    with pytest.raises(ValueError):
        estimate_obs_noise([seq], {})  # no beta for the subject
    single = LatentSequence("s", np.array([70.0]), grid(0.0)[None])
    with pytest.raises(ValueError):
        estimate_obs_noise([single], {"s": grid(0.1)})  # anchor only, no residuals


def test_missing_beta_names_the_subject():
    seqs = [seq_linear("s", [70.0, 72.0], grid(0.1), grid(0.0)),
            seq_linear("lost", [70.0, 72.0], grid(0.1), grid(0.0))]
    betas = {"s": grid(0.1)}
    with pytest.raises(ValueError, match="no beta for subject 'lost'"):
        build_triplets(seqs, betas)
    with pytest.raises(ValueError, match="no beta for subject 'lost'"):
        estimate_obs_noise(seqs, betas)


# ---------------------------------------------------------------- posterior


def scalar_prior(mu, var):
    return GaussianBelief(mean=grid(mu), variance=grid(var))


def test_zero_observations_return_prior():
    prior = scalar_prior(0.4, 2.0)
    noise = ObservationNoise(variance=grid(1.0))
    post = posterior_update(prior, (grid(0.0), 70.0), [], noise)
    assert np.array_equal(post.mean, prior.mean)
    assert np.array_equal(post.variance, prior.variance)
    post.mean[0, 0, 0, 0] = 99.0
    assert prior.mean[0, 0, 0, 0] == 0.4  # defensive copy


def test_scalar_hand_case():
    prior = scalar_prior(0.0, 1.0)
    noise = ObservationNoise(variance=grid(1.0))
    post = posterior_update(prior, (grid(0.0), 70.0), [(grid(1.0), 72.0)], noise)
    assert np.abs(post.variance - 0.2).max() < 1e-12
    assert np.abs(post.mean - 0.4).max() < 1e-12


def test_matches_scalar_reference(rng):
    prior = GaussianBelief(
        mean=rng.normal(0.0, 1.0, SHAPE), variance=rng.uniform(0.5, 2.0, SHAPE)
    )
    noise = ObservationNoise(variance=rng.uniform(0.2, 1.5, SHAPE))
    anchor = (rng.normal(0.0, 1.0, SHAPE), 70.0)
    obs = [(rng.normal(0.0, 1.0, SHAPE), 70.0 + d) for d in (1.0, 2.5, 4.0)]
    post = posterior_update(prior, anchor, obs, noise)
    for k in range(prior.mean.size):
        mu, var = oracles.posterior_scalar(
            prior.mean.ravel()[k],
            prior.variance.ravel()[k],
            (anchor[0].ravel()[k], anchor[1]),
            [(z.ravel()[k], a) for z, a in obs],
            noise.variance.ravel()[k],
        )
        assert post.mean.ravel()[k] == pytest.approx(mu, rel=1e-12)
        assert post.variance.ravel()[k] == pytest.approx(var, rel=1e-12)


def test_tight_noise_matches_least_squares():
    # prior becomes irrelevant as obs variance -> 0
    anchor = (grid(0.0), 70.0)
    obs = [(grid(0.3 * 2.0), 72.0), (grid(0.3 * 5.0), 75.0)]
    noise = ObservationNoise(variance=grid(1e-12))
    for prior_mean in (0.0, 5.0, -3.0):
        post = posterior_update(scalar_prior(prior_mean, 1.0), anchor, obs, noise)
        assert np.abs(post.mean - 0.3).max() < 1e-6
    wls = oracles.wls_slope((0.0, 70.0), [(0.6, 72.0), (1.5, 75.0)])
    assert wls == pytest.approx(0.3, abs=1e-15)


def test_variance_never_increases(rng):
    prior = GaussianBelief(
        mean=rng.normal(0.0, 1.0, SHAPE), variance=rng.uniform(0.5, 2.0, SHAPE)
    )
    noise = ObservationNoise(variance=rng.uniform(0.2, 1.5, SHAPE))
    anchor = (rng.normal(0.0, 1.0, SHAPE), 70.0)
    belief = prior
    for d in (1.0, 2.0, 3.5):
        nxt = posterior_update(
            belief, anchor, [(rng.normal(0.0, 1.0, SHAPE), 70.0 + d)], noise
        )
        assert (nxt.variance <= belief.variance + 1e-15).all()
        belief = nxt


def test_observation_order_is_irrelevant(rng):
    prior = scalar_prior(0.2, 1.5)
    noise = ObservationNoise(variance=grid(0.7))
    anchor = (rng.normal(0.0, 1.0, SHAPE), 70.0)
    obs = [(rng.normal(0.0, 1.0, SHAPE), 70.0 + d) for d in (1.0, 2.0, 4.0)]
    a = posterior_update(prior, anchor, obs, noise)
    b = posterior_update(prior, anchor, obs[::-1], noise)
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.variance, b.variance, atol=1e-12)


def test_age_collision_rejected():
    prior = scalar_prior(0.0, 1.0)
    noise = ObservationNoise(variance=grid(1.0))
    with pytest.raises(ValueError):
        posterior_update(prior, (grid(0.0), 70.0), [(grid(1.0), 70.0)], noise)


# -------------------------------------------------------------- extrapolate


def test_extrapolate_identity_cases(rng):
    z = rng.normal(0.0, 1.0, SHAPE)
    beta = rng.normal(0.0, 0.5, SHAPE)
    assert np.array_equal(extrapolate(z, 70.0, beta, 70.0), z)
    assert np.array_equal(extrapolate(z, 70.0, np.zeros(SHAPE), 93.0), z)
    out = extrapolate(np.zeros(SHAPE), 70.0, np.ones(SHAPE), 73.0)
    assert np.array_equal(out, np.full(SHAPE, 3.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(55.0, 95.0))
def test_extrapolate_is_linear_in_age(delta, anchor_age):
    z = np.full(SHAPE, 0.3)
    beta = np.full(SHAPE, 0.11)
    out = extrapolate(z, anchor_age, beta, anchor_age + delta)
    assert np.allclose(out, 0.3 + 0.11 * delta, rtol=1e-12, atol=1e-12)
