"""Belief-source routing and volume-level prediction."""

import numpy as np
import pytest

from latprog.autoencoder import LATENT_DIM, decode, encode, reconstruct
from latprog.progression import (
    BELIEF_SOURCES,
    GaussianBelief,
    ObservationNoise,
    compute_beta,
    extrapolate,
    predict_scan,
    resolve_beta,
)

LSHAPE = (LATENT_DIM,)


def belief(mu, var=1.0):
    return GaussianBelief(mean=np.full(LSHAPE, mu), variance=np.full(LSHAPE, var))


def latent_scans(rng, ages, beta):
    z0 = rng.normal(0.0, 1.0, LSHAPE)
    return [(z0 + beta * (a - ages[0]), a) for a in ages]


def test_global_prior_source_returns_prior_mean(rng):
    scans = latent_scans(rng, [70.0], 0.0)
    out = resolve_beta(scans, "global_prior", global_prior=belief(0.42))
    assert np.allclose(out, 0.42)


def test_regression_source_recovers_exact_slope(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 71.0, 74.0], beta)
    out = resolve_beta(scans, "regression")
    assert np.abs(out - beta).max() < 1e-12


def test_posterior_source_anchors_at_first_scan(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 72.0, 75.0], beta)
    prior = belief(0.0, 1e12)  # flat prior: posterior -> least squares
    noise = ObservationNoise(variance=np.full(LSHAPE, 1.0))
    out = resolve_beta(scans, "posterior", global_prior=prior, obs_noise=noise)
    assert np.abs(out - beta).max() < 1e-6


def test_scan_order_is_normalized_by_age(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 72.0, 75.0], beta)
    shuffled = [scans[2], scans[0], scans[1]]
    a = resolve_beta(scans, "regression")
    b = resolve_beta(shuffled, "regression")
    assert np.array_equal(a, b)


def test_source_requirement_errors(rng):
    scans = latent_scans(rng, [70.0, 72.0], 0.1)
    with pytest.raises(ValueError, match="unknown belief source"):
        resolve_beta(scans, "oracle")
    with pytest.raises(ValueError, match="global prior"):
        resolve_beta(scans, "global_prior")
    with pytest.raises(ValueError, match="obs noise|global prior"):
        resolve_beta(scans, "posterior", global_prior=belief(0.0))
    with pytest.raises(ValueError, match="prior network"):
        resolve_beta(scans, "gaussian_net")
    with pytest.raises(ValueError, match="at least two scans"):
        resolve_beta(latent_scans(rng, [70.0], 0.0), "regression")
    with pytest.raises(ValueError, match="at least one scan"):
        resolve_beta([], "global_prior", global_prior=belief(0.0))


def test_sources_enum_is_exhaustive():
    assert BELIEF_SOURCES == (
        "global_prior", "gaussian_net", "diffusion", "regression", "posterior"
    )


def test_predict_at_latest_age_is_reconstruction(tiny_model, rng):
    vols = [rng.random((8, 8, 8)) for _ in range(2)]
    scans = [(vols[0], 70.0), (vols[1], 73.0)]
    pred = predict_scan(
        tiny_model, scans, "global_prior", 73.0, global_prior=belief(0.31)
    )
    assert np.allclose(pred, reconstruct(tiny_model, vols[1]), atol=1e-12)


def test_regression_predicts_linear_latent_subject(tiny_model, rng):
    """Volumes decoded from a latent line are predicted onto that line."""
    z0 = rng.normal(0.0, 1.0, LSHAPE)
    beta = rng.normal(0.0, 0.2, LSHAPE)
    ages = [70.0, 71.0, 72.0, 74.0]
    target_age = 78.0
    vols = [decode(tiny_model, z0 + beta * (a - ages[0])) for a in ages]
    held_out = decode(tiny_model, z0 + beta * (target_age - ages[0]))

    pred = predict_scan(tiny_model, list(zip(vols, ages)), "regression", target_age)
    # the predicted latent is the held-out scan's encoding, so the decoded
    # prediction equals the held-out reconstruction
    assert np.abs(pred - reconstruct(tiny_model, held_out)).max() < 1e-6


def test_predict_consistent_with_manual_pipeline(tiny_model, rng):
    vols = [rng.random((8, 8, 8)) for _ in range(3)]
    ages = [70.0, 72.0, 75.0]
    prior = belief(0.05)
    pred = predict_scan(
        tiny_model, list(zip(vols, ages)), "global_prior", 80.0, global_prior=prior
    )
    lats = [encode(tiny_model, v).mean for v in vols]
    manual = decode(tiny_model, extrapolate(lats[-1], 75.0, prior.mean, 80.0))
    assert np.allclose(pred, manual, atol=1e-12)
