"""Amortized rate priors: the Gaussian head network and the conditional denoiser."""

import dataclasses

import numpy as np
import pytest

import oracles
from latprog.diffusion import (
    DiffusionConfig,
    DiffusionDenoiser,
    NoiseSchedule,
    ancestral_sample,
    ema_update,
    forward_noise,
    load_denoiser,
    sample_beta_averaged,
    save_denoiser,
    destandardize_target,
    timestep_embedding,
    train_diffusion_prior,
)
from latprog.diffusion import loss_and_grads as diffusion_loss_and_grads
from latprog.gaussian_prior import (
    GaussianPriorConfig,
    gaussian_prior_loss,
    load_gaussian_prior,
    loss_and_grads,
    normalize_age,
    predict_gaussian_prior,
    save_gaussian_prior,
    train_gaussian_prior,
)
from latprog.progression import VARIANCE_FLOOR, LatentSequence, build_triplets

DIM = 16
SHAPE = (DIM,)  # the priors map latent vectors to beta vectors


def rows_to_triplets(rows):
    """Triplets from (latent, age, beta) rows, one single-scan subject per row."""
    ids = [f"s{i}" for i in range(len(rows))]
    return build_triplets(
        [LatentSequence(sid, np.array([a]), z[None]) for sid, (z, a, _) in zip(ids, rows)],
        {sid: b for sid, (_, _, b) in zip(ids, rows)},
    )


def make_triplets(n, seed, beta_fn=None):
    # latent and age drawn iid; beta defaults to a fixed affine map of the latent
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        z = rng.normal(0.0, 1.0, SHAPE)
        age = rng.uniform(55.0, 90.0)
        rows.append((z, age, beta_fn(z, age) if beta_fn else 0.1 * z + 0.3))
    return rows_to_triplets(rows)


# ------------------------------------------------------------ gaussian loss


def test_gaussian_loss_zero_at_exact_fit():
    beta = np.linspace(-1.0, 2.0, 8).reshape(2, 4)
    assert gaussian_prior_loss(beta, np.zeros_like(beta), beta, 1e-3) == 0.0


def test_gaussian_loss_unit_error_unit_variance():
    # |mu - beta| = 1 with log var 0 costs 1 + w per element
    mu = np.zeros((3, 5))
    beta = np.ones((3, 5))
    w = 1e-3
    assert gaussian_prior_loss(mu, np.zeros_like(mu), beta, w) == pytest.approx(
        1.0 + w, rel=1e-12
    )


def test_gaussian_loss_matches_reference():
    rng = np.random.default_rng(3)
    mu = rng.normal(0.0, 1.0, (6, DIM))
    lv = rng.normal(0.0, 0.5, (6, DIM))
    beta = rng.normal(0.0, 1.0, (6, DIM))
    for w in (0.0, 1e-3, 0.5):
        expect = oracles.gaussian_prior_loss_reference(mu, lv, beta, w)
        assert gaussian_prior_loss(mu, lv, beta, w) == pytest.approx(expect, rel=1e-12)


def test_gaussian_loss_input_validation():
    with pytest.raises(ValueError, match="shape"):
        gaussian_prior_loss(np.zeros(3), np.zeros(4), np.zeros(3), 1e-3)
    with pytest.raises(ValueError, match="finite"):
        gaussian_prior_loss(np.array([np.nan]), np.zeros(1), np.zeros(1), 1e-3)


def test_normalize_age_affine():
    assert normalize_age(70.0) == pytest.approx(0.0)
    assert normalize_age(85.0) == pytest.approx(1.0)
    assert normalize_age(55.0) == pytest.approx(-1.0)


# -------------------------------------------------------- gaussian training


def test_untrained_net_predicts_population_stats():
    # zero-weight output heads reduce the net to the training-set mean/variance
    trips = make_triplets(50, seed=11)
    net = train_gaussian_prior(trips, GaussianPriorConfig(epochs=0))
    betas = trips.betas

    rng = np.random.default_rng(0)
    for _ in range(3):
        belief = predict_gaussian_prior(net, rng.normal(0.0, 2.0, SHAPE), 77.0)
        np.testing.assert_allclose(belief.mean.ravel(), betas.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            belief.variance.ravel(), betas.var(axis=0) + VARIANCE_FLOOR, rtol=1e-9
        )


def test_zero_learning_rate_keeps_parameters():
    trips = make_triplets(20, seed=4)
    frozen = train_gaussian_prior(trips, GaussianPriorConfig(epochs=0, seed=2))
    trained = train_gaussian_prior(
        trips, GaussianPriorConfig(epochs=4, learning_rate=0.0, seed=2)
    )
    for k in frozen.params:
        np.testing.assert_array_equal(frozen.params[k], trained.params[k])
    assert len(trained.loss_curve) == 4


def test_constant_beta_recovered():
    # rmsprop steps wander by about the learning rate, so keep it small
    trips = make_triplets(40, seed=6, beta_fn=lambda z, a: np.full(SHAPE, 0.7))
    net = train_gaussian_prior(
        trips, GaussianPriorConfig(epochs=40, learning_rate=1e-4, seed=0)
    )
    rng = np.random.default_rng(1)
    for _ in range(5):
        belief = predict_gaussian_prior(net, rng.normal(0.0, 1.0, SHAPE), 70.0)
        np.testing.assert_allclose(belief.mean, 0.7, atol=1e-2)
        assert np.all(belief.variance >= VARIANCE_FLOOR)


def test_amortized_beats_global_mean_on_heterogeneous_rates():
    # beta depends linearly on the latent, so conditioning must help; the
    # contract only demands held-out error within 1.1x of the global mean
    rng = np.random.default_rng(42)
    mix = rng.normal(0.0, 1.0, (DIM, DIM)) / np.sqrt(DIM)
    mu_b = rng.normal(0.0, 0.2, DIM)

    def make(n):
        z = rng.normal(0.0, 1.0, (n, DIM))
        a = rng.uniform(55.0, 90.0, n)
        b = 0.05 * (z @ mix.T) + mu_b
        return z, a, b

    z_tr, a_tr, b_tr = make(400)
    z_te, a_te, b_te = make(100)
    trips = rows_to_triplets(list(zip(z_tr, a_tr, b_tr)))
    net = train_gaussian_prior(trips, GaussianPriorConfig(seed=1))
    global_mean = b_tr.mean(axis=0)

    err_net, err_global = [], []
    for z, a, b in zip(z_te, a_te, b_te):
        belief = predict_gaussian_prior(net, z.reshape(SHAPE), a)
        err_net.append(np.abs(belief.mean.ravel() - b).sum())
        err_global.append(np.abs(global_mean - b).sum())
    assert np.mean(err_net) <= 1.1 * np.mean(err_global)


def test_prediction_deterministic():
    trips = make_triplets(30, seed=9)
    net = train_gaussian_prior(trips, GaussianPriorConfig(epochs=10, seed=3))
    z = np.full(SHAPE, 0.25)
    first = predict_gaussian_prior(net, z, 68.0)
    second = predict_gaussian_prior(net, z, 68.0)
    np.testing.assert_array_equal(first.mean, second.mean)
    np.testing.assert_array_equal(first.variance, second.variance)


def test_predicted_variance_floored():
    trips = make_triplets(30, seed=12, beta_fn=lambda z, a: np.zeros(SHAPE))
    net = train_gaussian_prior(trips, GaussianPriorConfig(epochs=30, seed=5))
    rng = np.random.default_rng(7)
    for _ in range(100):
        belief = predict_gaussian_prior(net, rng.normal(0.0, 3.0, SHAPE), 60.0)
        assert np.all(belief.variance >= VARIANCE_FLOOR)
        assert np.all(np.isfinite(belief.mean))


def test_predict_rejects_wrong_latent_shape():
    net = train_gaussian_prior(make_triplets(10, seed=1), GaussianPriorConfig(epochs=0))
    with pytest.raises(ValueError, match="shape"):
        predict_gaussian_prior(net, np.zeros((3, 3)), 70.0)


def test_gaussian_gradients_match_finite_differences():
    trips = make_triplets(4, seed=14)
    net = train_gaussian_prior(trips, GaussianPriorConfig(hidden_width=8, epochs=0, seed=6))
    rng = np.random.default_rng(15)
    for k in net.params:  # break the zero heads so every path carries signal
        net.params[k] = net.params[k] + rng.normal(0.0, 0.1, net.params[k].shape)

    latents, ages, betas = trips.latents, trips.ages, trips.betas
    _, grads = loss_and_grads(net, latents, ages, betas)

    h = 1e-6
    for k, g in grads.items():
        flat = net.params[k].ravel()
        for idx in {0, flat.size // 2, flat.size - 1}:
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = loss_and_grads(net, latents, ages, betas)
            flat[idx] = orig - h
            down, _ = loss_and_grads(net, latents, ages, betas)
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            assert g.ravel()[idx] == pytest.approx(fd, rel=1e-3, abs=1e-8), k


def test_gaussian_training_divergence_raises():
    trips = make_triplets(16, seed=20, beta_fn=lambda z, a: 2.0 * z)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            train_gaussian_prior(
                trips, GaussianPriorConfig(epochs=50, learning_rate=1e12, seed=0)
            )


def test_gaussian_empty_triplets_rejected():
    with pytest.raises(ValueError, match="triplet"):
        train_gaussian_prior(build_triplets([], {}), GaussianPriorConfig())


def test_gaussian_save_load_roundtrip(tmp_path):
    trips = make_triplets(25, seed=17)
    net = train_gaussian_prior(trips, GaussianPriorConfig(epochs=12, seed=4))
    save_gaussian_prior(net, tmp_path / "g.mrxt", tmp_path / "g.json")
    loaded = load_gaussian_prior(tmp_path / "g.mrxt", tmp_path / "g.json")

    assert loaded.config == net.config
    for k in ("w_hidden", "b_mean", "b_logvar"):  # latent width + 1, beta width twice
        assert loaded.params[k].shape == net.params[k].shape, k
    z = np.full(SHAPE, -0.4)
    a, b = predict_gaussian_prior(net, z, 81.0), predict_gaussian_prior(loaded, z, 81.0)
    np.testing.assert_allclose(b.mean, a.mean, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(b.variance, a.variance, rtol=1e-4)


# ------------------------------------------------------------ noise schedule


def test_default_schedule_invariants():
    sched = NoiseSchedule.linear()
    assert sched.timesteps == 500
    assert len(sched.betas) == len(sched.alphas) == len(sched.alpha_bars) == 501
    assert sched.betas[0] == 0.0
    assert sched.alphas[0] == 1.0
    assert sched.alpha_bars[0] == 1.0
    assert np.all(np.diff(sched.alpha_bars) < 0.0)

    # terminal signal level recomputed from scratch
    expect = np.prod(1.0 - np.linspace(1e-4, 0.02, 500))
    assert sched.alpha_bars[-1] == pytest.approx(expect, rel=1e-12)
    assert sched.alpha_bars[-1] < 0.01


def test_schedule_validate_rejects_tampering():
    good = NoiseSchedule.linear(timesteps=20)

    bad = dataclasses.replace(good, betas=good.betas.copy())
    bad.betas[0] = 1e-3
    with pytest.raises(ValueError, match=r"invalid schedule: betas must be 1D"):
        bad.validate()

    bad = dataclasses.replace(good, betas=good.betas.copy())
    bad.betas[3] = 1.5
    with pytest.raises(ValueError, match=r"invalid schedule: .*\(0, 1\)"):
        bad.validate()

    bad = dataclasses.replace(good, betas=good.betas.copy())
    bad.betas[5], bad.betas[6] = good.betas[6], good.betas[5]
    with pytest.raises(ValueError, match="invalid schedule: .*non-decreasing"):
        bad.validate()

    with pytest.raises(ValueError, match="invalid schedule"):
        NoiseSchedule.linear(timesteps=0)


def test_forward_noise_identity_at_step_zero():
    sched = NoiseSchedule.linear(timesteps=10)
    beta = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(forward_noise(sched, beta, 0, np.ones((2, 3))), beta)


def test_forward_noise_inverts():
    sched = NoiseSchedule.linear(timesteps=50)
    rng = np.random.default_rng(2)
    for t in (1, 17, 50):
        beta = rng.normal(0.0, 1.0, SHAPE)
        eps = rng.normal(0.0, 1.0, SHAPE)
        noised = forward_noise(sched, beta, t, eps)
        ab = sched.alpha_bars[t]
        recovered = (noised - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        np.testing.assert_allclose(recovered, beta, atol=1e-12)


def test_timestep_embedding_formula():
    with pytest.raises(ValueError, match="even"):
        timestep_embedding(np.array([1]), 10, width=7)

    t = np.array([1, 7, 100])
    emb = timestep_embedding(t, 100, width=8)
    assert emb.shape == (3, 8)
    angles = (t[:, None] / 100.0) * np.pi * 2.0 ** np.arange(4)
    np.testing.assert_allclose(emb[:, :4], np.sin(angles), rtol=1e-12)
    np.testing.assert_allclose(emb[:, 4:], np.cos(angles), rtol=1e-12)

    # all timesteps of a full schedule stay distinguishable
    full = timestep_embedding(np.arange(1, 101), 100, width=16)
    assert len(np.unique(full.round(12), axis=0)) == 100


# ---------------------------------------------------------- sampling chain


def test_zero_denoiser_chain_telescopes():
    # with eps-hat = 0 and no step noise the chain divides out sqrt(alpha-bar)
    sched = NoiseSchedule.linear(timesteps=40)
    cond = (np.zeros(SHAPE), 70.0)
    sample = ancestral_sample(
        lambda x, z, a, t: np.zeros_like(x), sched, cond, seed=3, sample_noise=False
    )
    start = np.random.default_rng(3).standard_normal(SHAPE)
    np.testing.assert_allclose(sample, start / np.sqrt(sched.alpha_bars[-1]), rtol=1e-9)

    reference = oracles.ancestral_reference(
        lambda x, t: np.zeros_like(x), sched.betas, SHAPE, seed=3, sample_noise=False
    )
    np.testing.assert_allclose(sample, reference, rtol=1e-12)


def test_ancestral_chain_matches_reference():
    sched = NoiseSchedule.linear(timesteps=40)
    z_cond = np.linspace(-0.5, 0.5, DIM).reshape(SHAPE)

    def eps_fn(x, z, a, t):
        return 0.3 * x + 0.1 * np.sin(float(t)) - 0.05 * z

    sample = ancestral_sample(eps_fn, sched, (z_cond, 70.0), seed=5)
    reference = oracles.ancestral_reference(
        lambda x, t: 0.3 * x + 0.1 * np.sin(float(t)) - 0.05 * z_cond,
        sched.betas,
        SHAPE,
        seed=5,
    )
    np.testing.assert_allclose(sample, reference, atol=1e-12)


def test_ancestral_explicit_shape_overrides_condition():
    sched = NoiseSchedule.linear(timesteps=10)
    out = ancestral_sample(
        lambda x, z, a, t: np.zeros_like(x), sched, (np.zeros(SHAPE), 70.0),
        seed=0, shape=(5,),
    )
    assert out.shape == (5,)


def test_ancestral_seed_reproducibility():
    sched = NoiseSchedule.linear(timesteps=25)
    fn = lambda x, z, a, t: 0.2 * x  # noqa: E731
    cond = (np.zeros(4), 70.0)
    a = ancestral_sample(fn, sched, cond, seed=9)
    b = ancestral_sample(fn, sched, cond, seed=9)
    c = ancestral_sample(fn, sched, cond, seed=10)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_k_averaging_is_mean_over_consecutive_seeds():
    sched = NoiseSchedule.linear(timesteps=15)
    fn = lambda x, z, a, t: 0.1 * x  # noqa: E731
    cond = (np.zeros(6), 65.0)

    single = sample_beta_averaged(fn, sched, cond, k=1, seed=4)
    np.testing.assert_array_equal(single, ancestral_sample(fn, sched, cond, seed=4))

    avg = sample_beta_averaged(fn, sched, cond, k=5, seed=4)
    draws = [ancestral_sample(fn, sched, cond, seed=4 + i) for i in range(5)]
    np.testing.assert_array_equal(avg, np.mean(draws, axis=0))
    # averaging order cannot matter
    np.testing.assert_allclose(avg, np.mean(draws[::-1], axis=0), atol=1e-12)

    with pytest.raises(ValueError, match="at least 1"):
        sample_beta_averaged(fn, sched, cond, k=0, seed=4)


def test_k_averaging_shrinks_variance():
    # 1000 parallel scalar chains; k = 5 should cut the variance about 5x.
    # the default schedule ends near zero signal, which the start state assumes
    sched = NoiseSchedule.linear()
    eps_ref = oracles.analytic_gaussian_denoiser(3.0, 0.25, sched.alpha_bars)
    fn = lambda x, z, a, t: eps_ref(x, t)  # noqa: E731
    cond = (np.zeros(1000), 70.0)

    singles = ancestral_sample(fn, sched, cond, seed=0)
    averaged = sample_beta_averaged(fn, sched, cond, k=5, seed=1000)
    assert abs(singles.mean() - 3.0) < 0.1
    ratio = averaged.var() / singles.var()
    assert 0.2 * 0.7 < ratio < 0.2 * 1.3


# ------------------------------------------------------------- trained prior


def make_diffusion_config(**kw):
    base = dict(hidden_width=32, epochs=30, batch_size=16, seed=0)
    base.update(kw)
    return DiffusionConfig(**base)


def test_untrained_denoiser_predicts_zero_noise():
    trips = make_triplets(12, seed=8)
    sched = NoiseSchedule.linear(timesteps=20)
    den = train_diffusion_prior(trips, sched, make_diffusion_config(epochs=0))
    assert den.loss_curve == []

    # zero output head holds for both raw and ema weights
    sample = ancestral_sample(den, sched, (trips.latents[0], 70.0), seed=6,
                              sample_noise=False)
    start = np.random.default_rng(6).standard_normal((DIM,))
    expect = destandardize_target(den, start / np.sqrt(sched.alpha_bars[-1]))
    np.testing.assert_allclose(sample, expect, rtol=1e-9)
    assert sample.shape == SHAPE


def test_standardize_roundtrip_and_stats():
    trips = make_triplets(20, seed=10)
    sched = NoiseSchedule.linear(timesteps=10)
    den = train_diffusion_prior(trips, sched, make_diffusion_config(epochs=0))

    betas = trips.betas
    np.testing.assert_allclose(den.target_shift, betas.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(den.target_scale, betas.std(axis=0), rtol=1e-12)

    beta = betas[3]
    std = (beta - den.target_shift) / den.target_scale
    np.testing.assert_allclose(destandardize_target(den, std), beta, atol=1e-12)


def test_scale_floor_on_constant_targets():
    trips = make_triplets(8, seed=1, beta_fn=lambda z, a: np.full(SHAPE, 0.5))
    den = train_diffusion_prior(
        trips, NoiseSchedule.linear(timesteps=5), make_diffusion_config(epochs=0)
    )
    assert np.all(den.target_scale >= 1e-4)
    std = (trips.betas[0] - den.target_shift) / den.target_scale
    assert np.all(np.isfinite(std))


def test_ema_update_formula():
    trips = make_triplets(6, seed=2)
    den = train_diffusion_prior(
        trips, NoiseSchedule.linear(timesteps=5), make_diffusion_config(epochs=0)
    )
    for k in den.params:
        den.params[k] = np.full_like(den.params[k], 2.0)
        den.ema_params[k] = np.zeros_like(den.ema_params[k])
    ema_update(den)
    d = den.config.ema_decay
    for k in den.params:
        np.testing.assert_allclose(den.ema_params[k], (1.0 - d) * 2.0, rtol=1e-12)


def test_diffusion_gradients_match_finite_differences():
    trips = make_triplets(3, seed=21)
    sched = NoiseSchedule.linear(timesteps=12)
    den = train_diffusion_prior(trips, sched, make_diffusion_config(hidden_width=6, epochs=0))
    rng = np.random.default_rng(22)
    for k in den.params:
        den.params[k] = den.params[k] + rng.normal(0.0, 0.1, den.params[k].shape)

    latents, ages = trips.latents, trips.ages
    x_std = rng.normal(0.0, 1.0, (3, DIM))
    t = np.array([2, 7, 12])
    eps = rng.normal(0.0, 1.0, (3, DIM))
    _, grads = diffusion_loss_and_grads(den, x_std, latents, ages, t, eps)

    h = 1e-6
    for k, g in grads.items():
        flat = den.params[k].ravel()
        for idx in {0, flat.size // 2, flat.size - 1}:
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = diffusion_loss_and_grads(den, x_std, latents, ages, t, eps)
            flat[idx] = orig - h
            down, _ = diffusion_loss_and_grads(den, x_std, latents, ages, t, eps)
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            assert g.ravel()[idx] == pytest.approx(fd, rel=1e-3, abs=1e-8), k


def test_train_step_schedule_mismatch_raises():
    trips = make_triplets(4, seed=5)
    den = train_diffusion_prior(
        trips, NoiseSchedule.linear(timesteps=10), make_diffusion_config(epochs=0)
    )
    other = NoiseSchedule.linear(timesteps=20)
    with pytest.raises(ValueError, match="does not match"):
        ancestral_sample(den, other, (trips.latents[0], 70.0), seed=0)


def test_train_diffusion_prior_end_to_end():
    trips = make_triplets(64, seed=33)
    sched = NoiseSchedule.linear(timesteps=60)
    den = train_diffusion_prior(trips, sched, make_diffusion_config(epochs=40))

    assert len(den.loss_curve) == 40
    assert den.loss_curve[-1] < den.loss_curve[0]
    assert np.mean(den.loss_curve[-5:]) < np.mean(den.loss_curve[:5])

    out = sample_beta_averaged(den, sched, (trips.latents[0], trips.ages[0]), k=3, seed=9)
    assert out.shape == SHAPE
    assert np.all(np.isfinite(out))


def test_diffusion_training_divergence_raises():
    trips = make_triplets(16, seed=21)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged: non-finite loss"):
            train_diffusion_prior(
                trips, NoiseSchedule.linear(timesteps=20),
                make_diffusion_config(epochs=5, learning_rate=1e200),
            )


def test_diffusion_empty_triplets_rejected():
    with pytest.raises(ValueError, match="triplet"):
        train_diffusion_prior(
            build_triplets([], {}), NoiseSchedule.linear(timesteps=5), make_diffusion_config()
        )


def test_denoiser_save_load_roundtrip(tmp_path):
    trips = make_triplets(24, seed=40)
    sched = NoiseSchedule.linear(timesteps=25)
    den = train_diffusion_prior(trips, sched, make_diffusion_config(epochs=8))
    save_denoiser(den, tmp_path / "d.mrxt", tmp_path / "d.json")
    loaded = load_denoiser(tmp_path / "d.mrxt", tmp_path / "d.json")

    assert loaded.config == den.config
    assert loaded.timesteps == den.timesteps
    for k in ("w_hidden", "b_out"):  # beta + latent + age + embedding width, beta width
        assert loaded.params[k].shape == den.params[k].shape, k
    assert loaded.loss_curve == pytest.approx(den.loss_curve)
    np.testing.assert_allclose(loaded.target_shift, den.target_shift, rtol=1e-6)

    cond = (trips.latents[1], trips.ages[1])
    a = ancestral_sample(den, sched, cond, seed=2)
    b = ancestral_sample(loaded, sched, cond, seed=2)
    np.testing.assert_allclose(b, a, rtol=1e-4, atol=1e-5)
