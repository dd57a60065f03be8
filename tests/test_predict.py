"""Belief-source routing."""

import numpy as np
import pytest

from latprog.autoencoder import LATENT_DIM
from latprog.progression import (
    BELIEF_SOURCES,
    GaussianBelief,
    ObservationNoise,
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
    with pytest.raises(ValueError, match="trained denoiser"):
        resolve_beta(scans, "diffusion")
    with pytest.raises(ValueError, match="at least two scans"):
        resolve_beta(latent_scans(rng, [70.0], 0.0), "regression")
    with pytest.raises(ValueError, match="at least one scan"):
        resolve_beta([], "global_prior", global_prior=belief(0.0))


def test_sources_enum_is_exhaustive():
    assert BELIEF_SOURCES == (
        "global_prior", "gaussian_net", "diffusion", "regression", "posterior"
    )
