"""Encoder/decoder mechanics, the composite loss, and the training loop."""

import tracemalloc

import numpy as np
import pytest

import oracles
from latprog.autoencoder import (
    GAMMA_KL,
    LATENT_DIM,
    SSIM_WEIGHT,
    AEConfig,
    decode,
    encode,
    init_model,
    load_model,
    loss_and_grads,
    principal_components,
    save_model,
    train_autoencoder,
)
from latprog.ssim import ssim3d
from latprog.tensorfile import read_tensors


def smooth_volumes(rng, n, shape=(8, 8, 8)):
    """Band-limited random volumes; structured enough for SSIM to bite."""
    vols = []
    for _ in range(n):
        freq = rng.normal(0.0, 1.0, (3, 3, 3))
        spec = np.zeros(shape, dtype=np.complex128)
        spec[:3, :3, :3] = freq
        v = np.fft.ifftn(spec).real
        v = (v - v.min()) / (v.max() - v.min() + 1e-12)
        vols.append(v)
    return vols


@pytest.mark.parametrize("grid", [20, 24, 32])
def test_latent_is_a_flat_vector_at_any_grid(grid, rng):
    shape = (grid,) * 3
    model = init_model(AEConfig(init="random", seed=1), shape)
    assert model.n_latent == LATENT_DIM
    x = rng.random(shape)
    z = encode(model, x).mean
    assert z.shape == (LATENT_DIM,)
    assert decode(model, z).shape == shape

    vols = rng.random((LATENT_DIM + 4,) + shape)
    pca = init_model(AEConfig(init="pca"), shape, train_volumes=vols)
    assert pca.n_latent == LATENT_DIM
    np.testing.assert_allclose(np.linalg.norm(pca.params["enc_w_mean"], axis=1), 1.0)


def test_zero_init_encodes_to_zero_mean(rng):
    model = init_model(AEConfig(init="zeros"), (8, 8, 8))
    dist = encode(model, rng.random((8, 8, 8)))
    assert np.array_equal(dist.mean, np.zeros(LATENT_DIM))


def test_reconstruction_shape(tiny_model, rng):
    x = rng.random((8, 8, 8))
    assert oracles.reconstruct(tiny_model, x).shape == x.shape


def test_encode_decode_shape_validation(tiny_model, rng):
    with pytest.raises(ValueError):
        encode(tiny_model, rng.random((8, 8, 7)))
    with pytest.raises(ValueError):
        decode(tiny_model, rng.random((4, 2, 1, 1)))


def test_affine_decoder_is_affine(tiny_model, rng):
    # superposition up to the shared bias
    z1 = rng.normal(0.0, 1.0, LATENT_DIM)
    z2 = rng.normal(0.0, 1.0, LATENT_DIM)
    alpha = 0.3
    blend = decode(tiny_model, alpha * z1 + (1 - alpha) * z2)
    parts = alpha * decode(tiny_model, z1) + (1 - alpha) * decode(tiny_model, z2)
    assert np.allclose(blend, parts, atol=1e-12)


def test_kl_divergence_values(rng):
    # a zero-weight encoder maps every volume to its biases: mean and log-variance
    def kl(mu, lv):
        model = init_model(AEConfig(init="zeros"), (8, 8, 8))
        model.params["enc_b_mean"][:], model.params["enc_b_logvar"][:] = mu, lv
        return loss_and_grads(model, rng.random((1, 8, 8, 8)), None)[0].kl

    assert kl(np.zeros(LATENT_DIM), np.zeros(LATENT_DIM)) == 0.0
    assert kl(np.ones(LATENT_DIM), np.zeros(LATENT_DIM)) == pytest.approx(
        0.5 * LATENT_DIM, abs=1e-12
    )
    mu = rng.normal(0.0, 1.0, LATENT_DIM)
    lv = rng.normal(0.0, 0.5, LATENT_DIM)
    assert kl(mu, lv) == pytest.approx(oracles.kl_reference(mu, lv), rel=1e-12)


def test_loss_matches_scalar_recomputation(tiny_model, rng):
    x = rng.random((8, 8, 8))
    dist = encode(tiny_model, x)
    x_hat = decode(tiny_model, dist.mean)
    cfg = tiny_model.config
    terms, _ = loss_and_grads(tiny_model, x[None], None)
    l1 = np.abs(x - x_hat).mean()
    ssim_term = 1.0 - oracles.ssim_reference(x, x_hat, cfg.ssim_window)
    kl = oracles.kl_reference(dist.mean, dist.log_variance)
    want = l1 + SSIM_WEIGHT * ssim_term + GAMMA_KL * kl
    assert terms.total == pytest.approx(want, abs=1e-6)
    assert terms.total == pytest.approx(
        terms.l1 + SSIM_WEIGHT * terms.ssim + GAMMA_KL * terms.kl, rel=1e-12
    )


def test_loss_rejects_non_finite(tiny_model, rng):
    x = rng.random((1, 8, 8, 8))
    x[0, 0, 0, 0] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        loss_and_grads(tiny_model, x, None)


@pytest.mark.parametrize("init", ["random"], ids=["affine"])
def test_gradients_match_finite_differences(init, rng):
    cfg = AEConfig(ssim_window=5, init=init, seed=2)
    model = init_model(cfg, (8, 8, 8))
    x = np.stack(smooth_volumes(rng, 2))
    eps = rng.normal(0.0, 1.0, (2, model.n_latent))

    _, grads = loss_and_grads(model, x, eps)
    h = 1e-5
    for name in sorted(grads):
        flat = model.params[name].reshape(-1)
        for k in (0, flat.size // 2, flat.size - 1):
            orig = flat[k]
            flat[k] = orig + h
            up, _ = loss_and_grads(model, x, eps)
            flat[k] = orig - h
            dn, _ = loss_and_grads(model, x, eps)
            flat[k] = orig
            fd = (up.total - dn.total) / (2 * h)
            got = grads[name].reshape(-1)[k]
            assert got == pytest.approx(fd, rel=1e-3, abs=1e-7), f"{name}[{k}]"


@pytest.mark.parametrize("init", ["random"], ids=["affine"])
def test_log_variance_does_not_depend_on_input(init, rng):
    cfg = AEConfig(init=init, seed=2)
    model = init_model(cfg, (8, 8, 8))
    assert "enc_w_logvar" not in model.params
    bias = model.params["enc_b_logvar"]
    bias += rng.normal(0.0, 0.5, bias.shape)
    first, second = (encode(model, v) for v in smooth_volumes(rng, 2))
    assert not np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.log_variance, second.log_variance)
    assert np.array_equal(first.log_variance.ravel(), bias)
    assert not np.shares_memory(first.log_variance, bias)


def test_zero_learning_rate_is_identity(rng):
    vols = smooth_volumes(rng, 3)
    cfg = AEConfig(learning_rate=0.0, epochs=1, batch_size=2, init="random", seed=4)
    before = init_model(cfg, (8, 8, 8))
    snapshot = {k: v.copy() for k, v in before.params.items()}
    model = train_autoencoder(vols, cfg)
    for name, val in model.params.items():
        assert np.array_equal(val, snapshot[name]), name


def test_training_reduces_loss(rng):
    vols = smooth_volumes(rng, 4)
    cfg = AEConfig(epochs=6, learning_rate=1e-3, batch_size=2, init="random", seed=0)
    model = train_autoencoder(vols, cfg)
    assert len(model.loss_curve) == 6
    assert model.loss_curve[-1] < model.loss_curve[0]


def test_constant_volume_is_learned_to_tolerance():
    vol = np.full((8, 8, 8), 0.3)
    cfg = AEConfig(epochs=3000, learning_rate=5e-4, batch_size=1, init="zeros",
                   sample_latent=False, seed=3)
    model = train_autoencoder([vol], cfg)
    terms, _ = loss_and_grads(model, vol[None], None)  # decodes the mean, as inference does
    assert terms.l1 + terms.ssim < 1e-3


def test_training_is_deterministic(rng):
    vols = smooth_volumes(rng, 3)
    cfg = AEConfig(epochs=3, learning_rate=1e-3, batch_size=2, init="random", seed=9)
    a = train_autoencoder(vols, cfg)
    b = train_autoencoder(vols, cfg)
    assert a.loss_curve == b.loss_curve
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_divergence_raises():
    vol = np.full((8, 8, 8), 0.5)
    cfg = AEConfig(epochs=30, learning_rate=1e6, batch_size=1, init="random", seed=0)
    with pytest.raises(RuntimeError, match="diverged"):
        with np.errstate(over="ignore", invalid="ignore"):
            train_autoencoder([vol], cfg)


def test_pca_init_reconstructs_low_rank_data(rng):
    # 3 volumes span rank <= 3 after centering; LATENT_DIM latent dims suffice
    vols = smooth_volumes(rng, 3)
    model = init_model(
        AEConfig(init="pca"), (8, 8, 8), train_volumes=np.stack(vols)
    )
    for v in vols:
        assert np.abs(oracles.reconstruct(model, v) - v).max() < 1e-9


def structured_volumes(rng, n, shape=(8, 8, 8)):
    """n volumes around a common mean that vary along LATENT_DIM orthogonal
    directions with well-separated variances, plus voxel noise (full rank)."""
    d = int(np.prod(shape))
    directions = np.linalg.qr(rng.normal(size=(d, LATENT_DIM)))[0].T
    coords = np.linalg.qr(rng.normal(size=(n, LATENT_DIM)))[0]
    coords = coords - coords.mean(axis=0)
    scales = np.sqrt(n) * np.linspace(8.0, 1.0, LATENT_DIM)
    x = 0.5 + (coords * scales) @ directions + 0.05 * rng.normal(size=(n, d))
    return x.reshape((n,) + shape)


def assert_rows_match_up_to_sign(rows, ref, atol):
    signs = np.where(np.sum(rows * ref, axis=1) < 0, -1.0, 1.0)[:, None]
    np.testing.assert_allclose(rows, signs * ref, rtol=0, atol=atol)


@pytest.mark.parametrize(
    "n", [40, 600], ids=["fewer-volumes-than-voxels", "more-volumes-than-voxels"]
)
def test_pca_init_matches_svd_oracle(n, rng):
    vols = structured_volumes(rng, n)
    model = init_model(AEConfig(init="pca"), (8, 8, 8), train_volumes=vols)
    rows = model.params["enc_w_mean"]
    ref, _ = oracles.pca_rows_svd(vols.reshape(n, -1), LATENT_DIM)
    assert_rows_match_up_to_sign(rows, ref, atol=1e-10)
    np.testing.assert_allclose(rows @ rows.T, np.eye(LATENT_DIM), rtol=0, atol=1e-10)


def test_pca_variances_match_svd_oracle(rng):
    x = structured_volumes(rng, 40).reshape(40, -1)
    mean, centered, _, variances = principal_components(x, LATENT_DIM)
    _, s2 = oracles.pca_rows_svd(x, LATENT_DIM)
    np.testing.assert_allclose(variances, s2, rtol=1e-10)
    assert np.all(np.diff(variances) < 0)
    np.testing.assert_allclose(centered, x - mean, rtol=0, atol=1e-15)


@pytest.mark.parametrize("shape", [(40, 512), (600, 64)], ids=["n<d", "n>d"])
def test_pca_of_float32_rows_is_that_of_their_float64_stack(shape, rng):
    rows = list(rng.normal(0.5, 1.0, shape).astype(np.float32))
    x = np.stack(rows).astype(np.float64)
    got = principal_components(rows, LATENT_DIM)
    want = principal_components(x, LATENT_DIM)
    assert np.array_equal(got[0], x.mean(axis=0))
    assert np.array_equal(got[1], x - x.mean(axis=0))
    for name, a, b in zip(("mean", "centered", "components", "variances"), got, want):
        assert a.dtype == np.float64 and np.array_equal(a, b), name


def test_pca_init_leaves_rows_past_the_rank_zero(rng):
    # 3 volumes span rank 2 after centering: 2 components, LATENT_DIM - 2 zero rows
    vols = np.stack(smooth_volumes(rng, 3))
    model = init_model(AEConfig(init="pca"), (8, 8, 8), train_volumes=vols)
    rows = model.params["enc_w_mean"]
    ref, s2 = oracles.pca_rows_svd(vols.reshape(3, -1), LATENT_DIM)
    assert s2[2] < 1e-20 * s2[0]  # the SVD's third direction spans no data
    assert_rows_match_up_to_sign(rows[:2], ref[:2], atol=1e-10)
    assert not rows[2:].any()
    assert not model.params["enc_b_mean"][2:].any()


@pytest.mark.parametrize("init", ["pca", "random"])
def test_float32_volumes_train_bit_identical_to_float64(init, rng):
    vols = [v.astype(np.float32) for v in smooth_volumes(rng, 5)]
    cfg = AEConfig(init=init, epochs=2, learning_rate=1e-3, batch_size=2, seed=5)
    single = train_autoencoder(vols, cfg)
    double = train_autoencoder([v.astype(np.float64) for v in vols], cfg)
    assert single.loss_curve == double.loss_curve
    for name, p in double.params.items():
        assert np.array_equal(single.params[name], p), name


@pytest.mark.parametrize("init", ["pca", "random"])
def test_unequal_volume_shapes_refused_before_any_work(init, rng, monkeypatch):
    vols = smooth_volumes(rng, 3)
    vols.insert(2, rng.random((8, 8, 7)))

    def never(*args, **kwargs):
        raise AssertionError("init_model ran")

    monkeypatch.setattr("latprog.autoencoder.init_model", never)
    with pytest.raises(ValueError, match=r"training volume 2 has shape \(8, 8, 7\)"):
        train_autoencoder(vols, AEConfig(init=init, epochs=1, batch_size=2))


def test_training_holds_no_copy_of_the_volumes(rng):
    """Beyond the float32 volumes it is given, PCA training allocates the one
    float64 matrix of centered volumes and model-sized arrays: no float64
    stack of the volumes."""
    n, shape = 100, (16, 16, 16)
    vols = list(rng.random((n, *shape), dtype=np.float32))
    cfg = AEConfig(init="pca", epochs=1, ssim_window=5)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        train_autoencoder(vols, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 1.5 * n * np.prod(shape) * 8


def test_loss_and_grads_batch_temporaries(rng):
    """A float32 batch as training passes it: the float64 batch, the
    reconstruction, the residual and the output gradient are batch-sized
    (about 4.15 batches of float64 at peak).  The L1 term's absolute values
    and signs are written into the output gradient's buffer, not into
    batches of their own (5.16 when they were)."""
    b, shape = 16, (16, 16, 16)
    vols = rng.random((b, *shape), dtype=np.float32)
    model = init_model(AEConfig(init="random", seed=1, ssim_window=5), shape)
    loss_and_grads(model, vols, None)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss_and_grads(model, vols, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 4.6 * b * np.prod(shape) * 8


def test_pca_tie_survives_training(rng):
    vols = smooth_volumes(rng, 3)
    cfg = AEConfig(init="pca", epochs=2, learning_rate=1e-3, batch_size=2, seed=5)
    model = train_autoencoder(vols, cfg)
    enc_w, dec_w = model.params["enc_w_mean"], model.params["dec_w"]
    assert np.shares_memory(enc_w, dec_w)
    assert np.array_equal(dec_w, enc_w.T)
    assert dec_w.flags.f_contiguous and not dec_w.flags.c_contiguous


@pytest.mark.parametrize("init", ["pca", "random"], ids=["affine-pca", "affine-random"])
def test_weight_gradients_have_their_parameters_memory_order(init, rng):
    vols = np.stack(smooth_volumes(rng, 3))
    cfg = AEConfig(init=init, seed=2)
    model = init_model(cfg, (8, 8, 8), train_volumes=vols)
    _, grads = loss_and_grads(model, vols, None)
    for name, g in grads.items():
        p = model.params[name]
        assert (g.flags.c_contiguous, g.flags.f_contiguous) == (
            p.flags.c_contiguous, p.flags.f_contiguous), name


def test_pca_init_requires_volumes_and_affine():
    with pytest.raises(ValueError, match="needs training volumes"):
        init_model(AEConfig(init="pca"), (8, 8, 8))


def test_save_load_roundtrip(tmp_path, rng):
    vols = smooth_volumes(rng, 3)
    cfg = AEConfig(epochs=2, learning_rate=1e-3, batch_size=2, init="random", seed=5)
    model = train_autoencoder(vols, cfg)
    tp, mp = tmp_path / "m.mrxt", tmp_path / "m.json"
    save_model(model, tp, mp)
    back = load_model(tp, mp)
    assert back.config == model.config
    assert back.input_shape == model.input_shape
    assert back.loss_curve == pytest.approx(model.loss_curve)
    x = rng.random((8, 8, 8))
    # weights round through float32 storage
    assert np.allclose(oracles.reconstruct(back, x), oracles.reconstruct(model, x), atol=1e-5)


@pytest.mark.parametrize("init, n_stored", [("pca", 4), ("random", 5)])
def test_pca_tied_weight_is_stored_once(init, n_stored, tmp_path, rng):
    vols = smooth_volumes(rng, 3)
    model = train_autoencoder(vols, AEConfig(init=init, epochs=1, batch_size=2, seed=5))
    tp, mp = tmp_path / "m.mrxt", tmp_path / "m.json"
    save_model(model, tp, mp)
    assert len(read_tensors(tp)) == n_stored
    back = load_model(tp, mp)
    assert back.params.keys() == model.params.keys()
    assert np.shares_memory(back.params["dec_w"], back.params["enc_w_mean"]) == (init == "pca")
    for k, v in model.params.items():
        assert np.array_equal(back.params[k], v.astype(np.float32)), k


def test_trained_model_beats_untrained_ssim(rng):
    vols = smooth_volumes(rng, 4)
    cfg = AEConfig(epochs=25, learning_rate=2e-3, batch_size=2, init="random", seed=6)
    model = train_autoencoder(vols, cfg)
    fresh = init_model(cfg, (8, 8, 8))
    trained = np.mean([ssim3d(v, oracles.reconstruct(model, v)) for v in vols])
    naive = np.mean([ssim3d(v, oracles.reconstruct(fresh, v)) for v in vols])
    assert trained > naive
