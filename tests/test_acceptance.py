"""End-to-end acceptance suite.

One test per shipping criterion, named test_criterion_<n>_<label>; the
terminal summary prints a PASS/FAIL line for each.  Tolerances are the
contract values, not what the implementation happens to achieve.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import oracles
from latprog import phantom
from latprog.autoencoder import (
    AEConfig,
    decode,
    encode,
    init_model,
)
from latprog.autoencoder import loss_and_grads as ae_loss_and_grads
from latprog.cli import main as cli_main
from latprog.diffusion import NoiseSchedule, ancestral_sample
from latprog.diffusion import loss_and_grads as diffusion_loss_and_grads
from latprog.diffusion import train_diffusion_prior, DiffusionConfig
from latprog.evaluation import (
    beta_norm_analysis,
    generalized_dice,
    interpolation_linearity,
    latent_collinearity,
    mae_tbv,
    region_volumes,
)
from latprog.gaussian_prior import GaussianPriorConfig, train_gaussian_prior
from latprog.gaussian_prior import loss_and_grads as gaussian_loss_and_grads
from latprog.progression import (
    GaussianBelief,
    LatentSequence,
    ObservationNoise,
    build_global_prior,
    build_triplets,
    compute_beta,
    extrapolate,
    l1_slope,
    posterior_update,
)
from latprog.ssim import ssim3d
from latprog.tensorfile import read_tensor, write_tensor

SHAPE = (2, 2, 2, 2)


def grid(value):
    return np.full(SHAPE, float(value))


# criterion 1: the rate estimator attains the global L1 minimum


def test_criterion_1_rate_estimator_global_minimum():
    rng = np.random.default_rng(101)
    estimator_s = 0.0  # the estimator's time only, not the grid oracle's
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        weights = rng.uniform(0.1, 3.0, n)
        slopes = rng.uniform(0.0, 12.0, n)
        start = time.monotonic()
        beta = l1_slope(weights, slopes * weights)
        estimator_s += time.monotonic() - start
        _, ref_min = oracles.l1_grid_argmin(slopes, weights)
        assert oracles.l1_objective(beta, slopes, weights) <= ref_min + 1e-8
    assert estimator_s < 5.0

    # noiseless trajectories are recovered exactly
    for trial in range(50):
        r = np.random.default_rng(200 + trial)
        z0 = r.normal(0.0, 1.0, SHAPE)
        true_beta = r.uniform(0.0, 2.0, SHAPE)
        ages = np.sort(r.uniform(60.0, 80.0, int(r.integers(2, 7))))
        lats = [z0 + true_beta * (a - ages[0]) for a in ages]
        est = compute_beta(lats, ages)
        assert np.abs(est - true_beta).max() < 1e-9


# criterion 2: the posterior matches the closed form


def test_criterion_2_posterior_closed_form():
    # no observations: the prior passes through untouched
    prior = GaussianBelief(mean=grid(0.4), variance=grid(2.0))
    noise = ObservationNoise(variance=grid(1.0))
    post = posterior_update(prior, (grid(0.0), 70.0), [], noise)
    assert np.array_equal(post.mean, prior.mean)
    assert np.array_equal(post.variance, prior.variance)

    # hand-computed single-observation case
    prior = GaussianBelief(mean=grid(0.0), variance=grid(1.0))
    post = posterior_update(prior, (grid(0.0), 70.0), [(grid(1.0), 72.0)], noise)
    assert np.abs(post.mean - 0.4).max() < 1e-12
    assert np.abs(post.variance - 0.2).max() < 1e-12

    # random instances against the scalar reference
    rng = np.random.default_rng(7)
    prior = GaussianBelief(
        mean=rng.normal(0.0, 1.0, SHAPE), variance=rng.uniform(0.5, 2.0, SHAPE)
    )
    noise_arr = rng.uniform(0.2, 1.5, SHAPE)
    anchor = (rng.normal(0.0, 1.0, SHAPE), 70.0)
    obs = [(rng.normal(0.0, 1.0, SHAPE), 70.0 + d) for d in (1.0, 2.5, 4.0)]
    post = posterior_update(prior, anchor, obs, ObservationNoise(variance=noise_arr))
    for k in range(prior.mean.size):
        mu, var = oracles.posterior_scalar(
            prior.mean.ravel()[k],
            prior.variance.ravel()[k],
            (anchor[0].ravel()[k], anchor[1]),
            [(z.ravel()[k], a) for z, a in obs],
            noise_arr.ravel()[k],
        )
        assert post.mean.ravel()[k] == pytest.approx(mu, abs=1e-12)
        assert post.variance.ravel()[k] == pytest.approx(var, abs=1e-12)

    # vanishing observation noise recovers anchored least squares
    anchor = (grid(0.0), 70.0)
    obs = [(grid(0.6), 72.0), (grid(1.5), 75.0)]
    tight = ObservationNoise(variance=grid(1e-12))
    for prior_mean in (0.0, 5.0, -3.0):
        post = posterior_update(
            GaussianBelief(mean=grid(prior_mean), variance=grid(1.0)),
            anchor, obs, tight,
        )
        assert np.abs(post.mean - 0.3).max() < 1e-6


# criterion 3: ancestral sampling reproduces a known Gaussian


def test_criterion_3_sampler_statistics():
    start = time.monotonic()
    sched = NoiseSchedule.linear()
    eps_ref = oracles.analytic_gaussian_denoiser(3.0, 0.25, sched.alpha_bars)
    samples = ancestral_sample(
        lambda x, z, a, t: eps_ref(x, t), sched, (np.zeros(10_000), 70.0), seed=0
    )
    assert samples.shape == (10_000,)
    assert abs(samples.mean() - 3.0) <= 0.05
    assert abs(samples.var() - 0.25) <= 0.2 * 0.25
    assert time.monotonic() - start < 120.0


# criterion 4: every hand-derived gradient matches finite differences


def smooth_volumes(rng, n, shape=(8, 8, 8)):
    vols = []
    for _ in range(n):
        freq = rng.normal(0.0, 1.0, (3, 3, 3))
        spec = np.zeros(shape, dtype=np.complex128)
        spec[:3, :3, :3] = freq
        v = np.fft.ifftn(spec).real
        v = (v - v.min()) / (v.max() - v.min() + 1e-12)
        vols.append(v)
    return vols


def _check_param_grads(params, grads, evaluate, h, rel=1e-3, atol=1e-7):
    for name in sorted(grads):
        flat = params[name].reshape(-1)
        for k in (0, flat.size // 2, flat.size - 1):
            orig = flat[k]
            flat[k] = orig + h
            up = evaluate()
            flat[k] = orig - h
            dn = evaluate()
            flat[k] = orig
            fd = (up - dn) / (2 * h)
            got = grads[name].reshape(-1)[k]
            assert got == pytest.approx(fd, rel=rel, abs=atol), f"{name}[{k}]"


def test_criterion_4_analytic_gradients():
    rng = np.random.default_rng(0)

    # autoencoder reconstruction + similarity + kl loss
    model = init_model(AEConfig(ssim_window=5, init="random", seed=2), (8, 8, 8))
    x = np.stack(smooth_volumes(rng, 2))
    eps = rng.normal(0.0, 1.0, (2, model.n_latent))
    _, grads = ae_loss_and_grads(model, x, eps)
    _check_param_grads(
        model.params, grads,
        lambda: ae_loss_and_grads(model, x, eps)[0].total, h=1e-5,
    )

    # amortized gaussian prior, l1 + weighted nll
    rows = [
        (rng.normal(0.0, 1.0, SHAPE), float(rng.uniform(55.0, 90.0)), rng.normal(0.0, 0.5, SHAPE))
        for _ in range(4)
    ]
    trips = build_triplets(  # one single-scan subject per row
        [LatentSequence(f"s{i}", [a], z[None]) for i, (z, a, _) in enumerate(rows)],
        {f"s{i}": b for i, (_, _, b) in enumerate(rows)},
    )
    net = train_gaussian_prior(trips, GaussianPriorConfig(hidden_width=8, epochs=0))
    for k in net.params:
        net.params[k] = net.params[k] + rng.normal(0.0, 0.1, net.params[k].shape)
    latents, ages, betas = trips.latents, trips.ages, trips.betas
    _, grads = gaussian_loss_and_grads(net, latents, ages, betas)
    _check_param_grads(
        net.params, grads,
        lambda: gaussian_loss_and_grads(net, latents, ages, betas)[0], h=1e-6,
        atol=1e-8,
    )

    # denoiser mse
    den = train_diffusion_prior(trips, DiffusionConfig(hidden_width=6, epochs=0, timesteps=12))
    for k in den.params:
        den.params[k] = den.params[k] + rng.normal(0.0, 0.1, den.params[k].shape)
    x_std = rng.normal(0.0, 1.0, (4, 16))
    t = np.array([2, 5, 9, 12])
    eps = rng.normal(0.0, 1.0, (4, 16))
    _, grads = diffusion_loss_and_grads(den, x_std, latents, ages, t, eps)
    _check_param_grads(
        den.params, grads,
        lambda: diffusion_loss_and_grads(den, x_std, latents, ages, t, eps)[0],
        h=1e-6, atol=1e-8,
    )


# criterion 5: the autoencoder reconstructs held-out anatomy


def test_criterion_5_reconstruction_quality(model60, cohort60, spec32):
    assert model60.train_seconds < 600.0
    assert model60.loss_curve[-1] < model60.loss_curve[0]

    ssims, dices = [], []
    for subject in cohort60.split("test").subjects:
        for scan in subject.scans:
            rec = oracles.reconstruct(model60, scan.volume)
            ssims.append(ssim3d(scan.volume, rec))
            seg_actual = phantom.segment_oracle(spec32, subject.rate_multipliers, scan.age)
            seg_pred = phantom.segment_by_intensity(rec, spec32)
            dices.append(generalized_dice(seg_actual, seg_pred))
    print(f"held-out ssim mean {np.mean(ssims):.4f}, dice mean {np.mean(dices):.4f}")
    assert np.mean(ssims) >= 0.90
    assert np.mean(dices) >= 0.90


# criterion 6: aging trajectories are lines in latent space


def test_criterion_6_latent_geometry(model60):
    spec0 = phantom.default_spec(noise_sigma=0.0)
    diag = phantom.generate_cohort(
        spec0, 8, seed=21, scans_per_subject=(5, 5), age_spacing=(2.5, 3.5),
        baseline_age_range=(60.0, 70.0), split_fractions=(0.0, 0.0, 1.0),
    )
    for subject in diag.subjects:
        lats = [encode(model60, s.volume).mean for s in subject.scans]
        assert latent_collinearity(lats) >= 0.95, subject.subject_id

    # interpolation between a young and an old scan of one anatomy stays
    # linear in every region's volume
    mult = {r.region_id: 2.2 for r in spec0.regions}
    v_lo = phantom.render_volume(spec0, mult, 55.0, seed=0)
    v_hi = phantom.render_volume(spec0, mult, 95.0, seed=0)
    report = interpolation_linearity(
        model60, encode(model60, v_hi).mean, encode(model60, v_lo).mean, spec0
    )
    print("interpolation r2:", {k: round(v, 4) for k, v in report.r2.items()})
    for name, r2 in report.r2.items():
        assert r2 >= 0.98, name


# criterion 7: adding scans tightens the forecast


def test_criterion_7_conditioning_curve(model60, cohort60):
    train_subj = cohort60.split("train").subjects
    test_subj = cohort60.split("test").subjects

    # population rate direction estimated from training scans, scaled up so
    # the forecast horizon separates belief qualities
    beta_pool = []
    for subject in train_subj[:20]:
        lats = [encode(model60, s.volume).mean for s in subject.scans]
        beta_pool.append(compute_beta(lats, subject.ages()))
    beta_unit = 3.0 * np.mean(beta_pool, axis=0)

    age_grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 12.0, 16.0])

    def linear_latents(z0, c, a0):
        ages = a0 + age_grid
        lats = np.stack([z0 + c * beta_unit * (a - a0) for a in ages])
        return ages, lats

    # synthetic cohort whose latent trajectories are exact lines
    sequences = []
    for i, c in enumerate(np.linspace(0.3, 1.7, 12)):
        z0 = encode(model60, train_subj[i].scans[0].volume).mean
        ages, lats = linear_latents(z0, c, 60.0 + (i % 5))
        sequences.append(LatentSequence(subject_id=f"lin{i}", ages=ages, latents=lats))
    betas = {s.subject_id: compute_beta(s.latents, s.ages) for s in sequences}
    prior = build_global_prior(build_triplets(sequences, betas).betas)
    obs_noise = ObservationNoise(variance=4.0 * prior.variance)

    spec = cohort60.spec
    test_cs = np.array([0.3, 0.45, 0.6, 0.75, 0.7, 1.25, 1.3, 1.45, 1.6, 1.7])
    per_subject = []
    for k, c in enumerate(test_cs):
        z0 = encode(model60, test_subj[k % len(test_subj)].scans[0].volume).mean
        ages, lats = linear_latents(z0, c, 62.0 + (k % 4))
        vols = [decode(model60, z) for z in lats]
        tbv_first = region_volumes(
            phantom.segment_by_intensity(vols[0], spec), spec
        ).tbv

        beliefs = [("global_prior", 0, prior.mean)]
        for n in (1, 2, 3):
            post = posterior_update(
                prior, (lats[0], ages[0]),
                [(lats[j], ages[j]) for j in range(1, n + 1)], obs_noise,
            )
            beliefs.append(("posterior", n, post.mean))
        beliefs.append(("regression", 5, compute_beta(list(lats[:5]), ages[:5])))

        maes = {}
        for target in (5, 6):
            vols_actual = region_volumes(
                phantom.segment_by_intensity(vols[target], spec), spec
            )
            for source, n, beta in beliefs:
                pred = decode(model60, extrapolate(lats[4], ages[4], beta, ages[target]))
                vols_pred = region_volumes(
                    phantom.segment_by_intensity(pred, spec), spec
                )
                m = float(np.mean(list(mae_tbv(vols_pred, vols_actual, tbv_first).values())))
                maes.setdefault((source, n), []).append(m)
        per_subject.append({key: float(np.mean(v)) for key, v in maes.items()})

    curve = [
        float(np.mean([subj[("global_prior", 0)] for subj in per_subject])),
        float(np.mean([subj[("posterior", 1)] for subj in per_subject])),
        float(np.mean([subj[("posterior", 2)] for subj in per_subject])),
        float(np.mean([subj[("posterior", 3)] for subj in per_subject])),
    ]
    print("mae curve n=0..3:", [round(v, 4) for v in curve])
    for prev, nxt in zip(curve, curve[1:]):
        assert nxt <= prev + 1e-9

    wins = sum(
        subj[("regression", 5)] < subj[("global_prior", 0)] for subj in per_subject
    )
    print(f"regression beats global prior for {wins}/{len(per_subject)} subjects")
    assert wins >= 0.8 * len(per_subject)


# criterion 8: estimated rates sort the diagnoses within age bins


def test_criterion_8_rate_norm_ordering(model60, spec32):
    cohort = phantom.generate_cohort(
        spec32, 150, seed=13,
        diagnosis_mix={"healthy": 1 / 3, "mci": 1 / 3, "dementia": 1 / 3},
        scans_per_subject=(5, 8), age_spacing=(1.0, 1.5),
        baseline_age_range=(60.0, 84.0),
    )
    entries = []
    for subject in cohort.subjects:
        lats = [encode(model60, s.volume).mean for s in subject.scans]
        entries.append(
            (compute_beta(lats, subject.ages()), subject.diagnosis,
             float(subject.ages()[0]))
        )
    table = beta_norm_analysis(entries)

    overall = table.overall
    assert overall["dementia"].mean > overall["mci"].mean > overall["healthy"].mean

    full_bins = 0
    for label in oracles.bin_labels(table):
        cells = {d: table.cells.get((d, label)) for d in ("healthy", "mci", "dementia")}
        if any(c is None for c in cells.values()):
            continue
        full_bins += 1
        for lo, hi in (("healthy", "mci"), ("mci", "dementia")):
            diff = cells[hi].mean - cells[lo].mean
            margin = 2.0 * float(np.hypot(cells[lo].se, cells[hi].se))
            assert diff > margin, (label, lo, hi, diff, margin)
    assert full_bins >= 4


# criterion 9: storage and the pipeline are bit-reproducible


SMOKE_CONFIG = {
    "seed": 5,
    "cohort": {"n_subjects": 10},
    "autoencoder": {"epochs": 6},
    "gaussian_prior": {"epochs": 40},
    "diffusion": {"epochs": 20},
}

ALL_STAGES = (
    "generate-cohort", "train-ae", "encode", "fit-betas", "fit-global-prior",
    "fit-gaussian-prior", "fit-diffusion-prior", "predict", "evaluate",
    "analyze-beta",
)


def _tree_digests(root):
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir():
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith("runs/") or rel == ".lock":
            continue  # run records carry wall times
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_criterion_9_reproducibility(tmp_path):
    # float32 tensors survive a write/read cycle bit for bit
    rng = np.random.default_rng(3)
    arr = (rng.normal(0.0, 1.0, (5, 7, 3)) * 10.0 ** rng.integers(-6, 7, (5, 7, 3))).astype(np.float32)
    write_tensor(tmp_path / "t.mrxt", arr)
    back = read_tensor(tmp_path / "t.mrxt")
    assert np.array_equal(back.view(np.uint32), arr.view(np.uint32))

    cfg_path = tmp_path / "smoke.json"
    cfg_path.write_text(json.dumps(SMOKE_CONFIG))
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        start = time.monotonic()
        for stage in ALL_STAGES:
            rc = cli_main([stage, "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0, stage
        elapsed = time.monotonic() - start
        print(f"smoke run {run}: {elapsed:.1f}s")
        assert elapsed < 300.0
        digests.append(_tree_digests(out))

    assert digests[0].keys() == digests[1].keys()
    mismatched = [rel for rel in digests[0] if digests[0][rel] != digests[1][rel]]
    assert mismatched == []
    # the metric tables actually exist and were compared
    for rel in ("metrics/rows.csv", "metrics/summary.json", "analysis/beta_norms.csv",
                "cohort/manifest.json"):
        assert rel in digests[0], rel
