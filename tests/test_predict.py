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


def rate(scans, source, **beliefs):
    """resolve_beta of one case."""
    return resolve_beta([(source, scans, 0)], **beliefs)[0]


def test_global_prior_source_returns_prior_mean(rng):
    scans = latent_scans(rng, [70.0], 0.0)
    out = rate(scans, "global_prior", global_prior=belief(0.42))
    assert np.allclose(out, 0.42)


def test_regression_source_recovers_exact_slope(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 71.0, 74.0], beta)
    out = rate(scans, "regression")
    assert np.abs(out - beta).max() < 1e-12


def test_posterior_source_anchors_at_first_scan(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 72.0, 75.0], beta)
    prior = belief(0.0, 1e12)  # flat prior: posterior -> least squares
    noise = ObservationNoise(variance=np.full(LSHAPE, 1.0))
    out = rate(scans, "posterior", global_prior=prior, obs_noise=noise)
    assert np.abs(out - beta).max() < 1e-6


def test_scan_order_is_normalized_by_age(rng):
    beta = rng.normal(0.0, 0.3, LSHAPE)
    scans = latent_scans(rng, [70.0, 72.0, 75.0], beta)
    shuffled = [scans[2], scans[0], scans[1]]
    a = rate(scans, "regression")
    b = rate(shuffled, "regression")
    assert np.array_equal(a, b)


def test_source_requirement_errors(rng):
    scans = latent_scans(rng, [70.0, 72.0], 0.1)
    with pytest.raises(ValueError, match="unknown belief source"):
        rate(scans, "oracle")
    with pytest.raises(ValueError, match="global prior"):
        rate(scans, "global_prior")
    with pytest.raises(ValueError, match="obs noise|global prior"):
        rate(scans, "posterior", global_prior=belief(0.0))
    with pytest.raises(ValueError, match="prior network"):
        rate(scans, "gaussian_net")
    with pytest.raises(ValueError, match="trained denoiser"):
        rate(scans, "diffusion")
    with pytest.raises(ValueError, match="at least two scans"):
        rate(latent_scans(rng, [70.0], 0.0), "regression")
    with pytest.raises(ValueError, match="at least one scan"):
        rate([], "global_prior", global_prior=belief(0.0))


def test_sources_enum_is_exhaustive():
    assert BELIEF_SOURCES == (
        "global_prior", "gaussian_net", "diffusion", "regression", "posterior"
    )


def test_a_batch_resolves_each_case_as_alone(rng):
    prior = belief(0.1, 2.0)
    noise = ObservationNoise(variance=np.full(LSHAPE, 0.5))
    cases = [
        (source, latent_scans(rng, ages, rng.normal(0.0, 0.3, LSHAPE)), 0)
        for source in ("posterior", "regression", "global_prior")
        for ages in ([70.0, 71.5, 73.0], [66.0, 67.0, 68.2, 69.9])
    ]
    batch = resolve_beta(cases, global_prior=prior, obs_noise=noise)
    assert len(batch) == len(cases)
    for case, beta in zip(cases, batch):
        assert np.array_equal(beta, resolve_beta([case], global_prior=prior, obs_noise=noise)[0])


def test_diffusion_cases_are_sampled_in_one_call(rng, monkeypatch):
    """Each diffusion case conditions on its latest scan and keeps its own seed."""
    from latprog import diffusion

    calls = []

    def recording(denoiser, latents, ages, seeds, k):
        calls.append((np.asarray(latents), list(ages), list(seeds), k))
        return np.stack([np.full(LSHAPE, float(seed)) for seed in seeds])

    monkeypatch.setattr(diffusion, "sample_betas", recording)
    first = latent_scans(rng, [70.0, 72.0], 0.1)
    second = latent_scans(rng, [64.0, 65.0, 66.0], 0.2)
    betas = resolve_beta(
        [("diffusion", first, 11), ("global_prior", first, 0), ("diffusion", second[::-1], 17)],
        global_prior=belief(0.3), denoiser=object(), k_samples=4,
    )
    [(latents, ages, seeds, k)] = calls
    assert np.array_equal(latents, np.stack([first[-1][0], second[-1][0]]))
    assert ages == [72.0, 66.0] and seeds == [11, 17] and k == 4
    assert [float(b[0]) for b in betas] == [11.0, 0.3, 17.0]
