"""CLI staging: artifacts, run records, locking, and error reporting."""

import csv
import hashlib
import inspect
import json
import os
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

from latprog import diffusion, phantom, pipeline
from latprog.autoencoder import decode, load_model
from latprog.cli import main
from latprog.config import SEED_OFFSETS, load_config
from latprog.diffusion import load_denoiser, sample_betas
from latprog.gaussian_prior import load_gaussian_prior
from latprog.manifest import load_subjects
from latprog.progression import (
    BELIEF_SOURCES,
    GaussianBelief,
    ObservationNoise,
    compute_beta,
    extrapolate,
    posterior_update,
    resolve_beta,
)
from latprog.stages import BETAS, FORECASTS, MODEL, PREDICTIONS, PRIOR_FILES, STAGES
from latprog.tensorfile import read_tensors, write_tensors

MINI_CONFIG = {
    "seed": 5,
    "cohort": {"n_subjects": 6, "scans_per_subject": [3, 4]},
    "autoencoder": {"epochs": 2},
}

CHAIN = ("generate-cohort", "train-ae", "encode", "fit-betas", "fit-global-prior")

# All ten stages with every belief source, as small as the phantom grid allows.
ALL_SOURCES_CONFIG = {
    **MINI_CONFIG,
    "autoencoder": {"epochs": 1},
    "gaussian_prior": {"epochs": 2},
    "diffusion": {"epochs": 2, "k_samples": 2, "timesteps": 20},
    "evaluation": {
        "predict_sources": ["global_prior", "gaussian_net", "diffusion", "regression", "posterior"]
    },
}


# Every subject spans the multi-scan protocol: seven scans 1.0-1.1 years
# apart put the anchor (nearest first + 4 years) on scan 4, leave scans 1-3
# as the 1-, 2- and 3-year lags and scans 5 and 6 as targets.
MULTISCAN_CONFIG = {
    "seed": 3,
    "cohort": {"n_subjects": 10, "scans_per_subject": [7, 7], "age_spacing": [1.0, 1.1],
               "baseline_age_range": [62, 70]},
    "autoencoder": {"epochs": 0},
}


class ReadAudit:
    """Audit hook that collects the paths opened for reading while `paths` is a list."""

    def __init__(self):
        self.paths = None

    def __call__(self, event, args):
        if event != "open" or self.paths is None:
            return
        path, mode, flags = args
        if not isinstance(path, (str, bytes, os.PathLike)):
            return  # an already open file descriptor
        if mode is None:  # os.open
            reading = flags & os.O_ACCMODE == os.O_RDONLY
        else:
            reading = not any(c in mode for c in "wax+")
        if reading:
            self.paths.append(os.path.realpath(os.fsdecode(path)))


@pytest.fixture(scope="session")
def read_audit():
    audit = ReadAudit()
    sys.addaudithook(audit)  # hooks cannot be removed; this one is idle unless recording
    return audit


@pytest.fixture(scope="module")
def chain_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    out = root / "out"
    for stage in CHAIN:
        rc = main([stage, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0, stage
    return out, cfg_path


@pytest.fixture(scope="module")
def all_sources_run(tmp_path_factory):
    """Every stage through predict under ALL_SOURCES_CONFIG."""
    root = tmp_path_factory.mktemp("all-sources")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(ALL_SOURCES_CONFIG))
    out = root / "out"
    stages = list(STAGES)
    for stage in stages[: stages.index("predict") + 1]:
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage
    return out, cfg_path


@pytest.fixture(scope="module")
def multiscan_run(tmp_path_factory):
    """Every stage through evaluate under MULTISCAN_CONFIG."""
    root = tmp_path_factory.mktemp("multiscan")
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(MULTISCAN_CONFIG))
    out = root / "out"
    for stage in (*CHAIN, "predict", "evaluate"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage
    return out, cfg_path


def test_evaluate_writes_the_multiscan_curve(multiscan_run):
    out, _ = multiscan_run
    manifest = json.loads((out / "cohort/manifest.json").read_text())
    n_test = sum(s["split"] == "test" for s in manifest["subjects"])
    with open(out / "metrics/multiscan.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert n_test >= 1
    # two targets each, forecast by the global prior, posteriors of 1-3 lags and regression
    assert len(rows) == n_test * 2 * 5
    assert {int(r["n_conditioning_scans"]) for r in rows} == {0, 1, 2, 3, 5}
    summary = json.loads((out / "metrics/summary.json").read_text())
    assert sum(group["rows"] for group in summary["multiscan"].values()) == len(rows)


def test_multiscan_forecasts_extrapolate_the_anchor_latent(multiscan_run):
    """Each stored multi-scan forecast decodes the anchor scan's latent moved
    to the target age along the global prior's mean, the posterior of its
    lag scans given the first, or the regression of its scans."""
    out, _ = multiscan_run
    model = load_model(out / "ae" / "model.mrxt", out / "ae" / "model.json")
    latents = read_tensors(out / "latents" / "latents.mrxt")
    prior = GaussianBelief(**read_tensors(out / "priors" / "global.mrxt"))
    noise = ObservationNoise(
        read_tensors(out / "priors" / "obs_noise.mrxt")["variance"].astype(np.float64)
    )
    subjects = {s.subject_id: s for s in load_subjects(out / "cohort")}
    index = json.loads((out / PREDICTIONS).read_text())
    forecasts = read_tensors(out / FORECASTS)
    cases = {key: case for key, case in index.items() if case["protocol"] == "multiscan"}
    assert cases
    for key, case in cases.items():
        sid, ages = case["subject_id"], subjects[case["subject_id"]].ages()

        def scan(i):
            return latents[f"{sid}/{i}"].astype(np.float64), ages[i]

        first, *lags = case["conditioning"]
        assert first == 0 and case["anchor"] == 4 and case["target"] in (5, 6)
        if case["source"] == "global_prior":
            beta = prior.mean
        elif case["source"] == "posterior":
            beta = posterior_update(prior, scan(first), [scan(i) for i in lags], noise).mean
        else:
            assert case["source"] == "regression"
            beta = compute_beta(*zip(*(scan(i) for i in case["conditioning"])))
        expect = decode(model, extrapolate(*scan(case["anchor"]), beta, ages[case["target"]]))
        np.testing.assert_array_equal(forecasts[key], expect.astype(np.float32), err_msg=key)


def test_evaluate_reads_no_prior_file(multiscan_run):
    out, _ = multiscan_run
    inputs = json.loads((out / "runs" / "evaluate.json").read_text())["inputs"]
    assert (out / "priors" / "global.mrxt").exists()
    assert not [rel for rel in inputs if rel.startswith("priors/")]


def test_chain_writes_expected_artifacts(chain_run):
    out, _ = chain_run
    for rel in (
        "cohort/manifest.json",
        "ae/model.mrxt",
        "ae/model.json",
        "latents/latents.mrxt",
        "betas/betas.mrxt",
        "priors/global.mrxt",
        "priors/obs_noise.mrxt",
    ):
        assert (out / rel).exists(), rel
    # everything these sidecars held is in cohort/manifest.json or read by no one
    for rel in ("latents/latents.json", "betas/betas.json", "priors/global.json",
                "priors/obs_noise.json"):
        assert not (out / rel).exists(), rel
    assert not (out / ".lock").exists()  # released after every stage


def test_chain_run_records(chain_run):
    out, cfg_path = chain_run
    expect_hash = load_config(cfg_path).config_hash()
    for stage in CHAIN:
        record = json.loads((out / "runs" / f"{stage}.json").read_text())
        assert record["stage"] == stage
        assert record["seed"] == 5
        assert record["config_hash"] == expect_hash
        assert record["wall_time_s"] >= 0.0
        assert record["outputs"] == sorted(record["outputs"])
        for rel in record["outputs"]:
            assert (out / rel).exists(), rel

    # dependency hashes are of the actual input files
    train_record = json.loads((out / "runs" / "train-ae.json").read_text())
    manifest_sha = hashlib.sha256((out / "cohort/manifest.json").read_bytes()).hexdigest()
    assert train_record["inputs"]["cohort/manifest.json"] == manifest_sha


@pytest.mark.parametrize("threads", [None, 1])
def test_run_record_says_how_the_process_ran(tmp_path, monkeypatch, threads):
    # --threads sets these in the environment; monkeypatch restores them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    out = tmp_path / "out"
    extra = [] if threads is None else ["--threads", str(threads)]
    assert main(["generate-cohort", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
    record = json.loads((out / "runs" / "generate-cohort.json").read_text())
    assert record["blas_threads"] == (None if threads is None else str(threads))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert record["blas"] == {"name": blas["name"], "version": blas["version"]}
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0 < record["peak_rss_mib"] <= peak_mib + 0.1


@pytest.mark.parametrize("show_config", [lambda mode: {}, lambda: None],
                         ids=["no-build-dependencies", "no-dicts-mode"])
def test_run_record_blas_is_null_where_numpy_cannot_say(monkeypatch, show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    assert pipeline._blas_build() is None


def test_latents_cover_every_scan(chain_run):
    out, _ = chain_run
    manifest = json.loads((out / "cohort/manifest.json").read_text())
    scans = {f"{s['subject_id']}/{i}" for s in manifest["subjects"] for i in range(len(s["scans"]))}
    assert read_tensors(out / "latents/latents.mrxt").keys() == scans


def test_generate_cohort_validates_the_phantom_at_most_twice(tmp_path, monkeypatch):
    """Once as the config loads and once in generate_cohort: the stage does
    not validate again the phantom it builds from a checked config."""
    calls = []
    validate = phantom.validate_spec

    def counting(spec):
        calls.append(spec)
        validate(spec)

    monkeypatch.setattr(phantom, "validate_spec", counting)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"cohort": {"n_subjects": 1, "scans_per_subject": [1, 1]}}))
    assert main(["generate-cohort", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert 1 <= len(calls) <= 2


def test_predict_names_missing_stage(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    out = tmp_path / "out"
    assert main(["generate-cohort", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()

    rc = main(["predict", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "train-ae" in err


def test_latents_of_another_cohort_are_refused(tmp_path, capsys):
    """A cohort regenerated after encode, with other scans, is not forecast
    from the old latents: each latents reader names encode."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**MINI_CONFIG, "autoencoder": {"epochs": 0},
                                    "evaluation": {"predict_sources": ["regression"]}}))
    out = tmp_path / "out"

    def run(stage, *extra):
        return main([stage, "--config", str(cfg_path), "--out", str(out), *extra])

    def n_scans():
        manifest = json.loads((out / "cohort/manifest.json").read_text())
        return sum(len(s["scans"]) for s in manifest["subjects"])

    for stage in ("generate-cohort", "train-ae", "encode"):
        assert run(stage) == 0, stage
    encoded = n_scans()
    assert run("generate-cohort", "--seed", "6") == 0
    assert n_scans() != encoded
    capsys.readouterr()

    for stage in ("fit-betas", "predict"):
        rc = run(stage)
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1, stage
        assert len(lines) == 1, stage
        assert lines[0].startswith("error: missing dependency: run stage 'encode' first"), stage


def test_rates_of_another_cohort_are_refused(tmp_path, capsys):
    """Rates fit before the cohort was regenerated with fewer subjects are a
    one-line error naming fit-betas, for analyze-beta and the prior fits alike."""
    config = {"cohort": {"n_subjects": 6, "scans_per_subject": [3, 4]}, "autoencoder": {"epochs": 0}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"

    def run(stage):
        return main([stage, "--config", str(cfg_path), "--out", str(out)])

    for stage in ("generate-cohort", "train-ae", "encode", "fit-betas"):
        assert run(stage) == 0, stage
    cfg_path.write_text(json.dumps({**config, "cohort": {**config["cohort"], "n_subjects": 4}}))
    assert run("generate-cohort") == 0
    capsys.readouterr()

    for stage in ("analyze-beta", "fit-global-prior"):
        rc = run(stage)
        lines = capsys.readouterr().err.splitlines()
        assert rc == 1, stage
        assert len(lines) == 1, stage
        assert lines[0].startswith("error: missing dependency: run stage 'fit-betas' first"), stage


def test_pipeline_takes_the_stage_files_from_the_stage_table():
    """pipeline.py names the model, rate and prior files only through stages.py."""
    source = inspect.getsource(pipeline)
    for rel in (*MODEL, BETAS, *(rel for files in PRIOR_FILES.values() for rel in files)):
        assert rel.rsplit("/", 1)[1] not in source, rel


@pytest.mark.parametrize("change", ["missing", "extra"])
def test_encode_refuses_volumes_of_another_cohort(change, tmp_path, capsys):
    """encode streams volumes.mrxt: a container that lacks a manifest scan or
    holds one more is a one-line error naming generate-cohort, and the
    latents are left as they were."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**MINI_CONFIG, "autoencoder": {"epochs": 0}}))
    out = tmp_path / "out"

    def run(stage):
        return main([stage, "--config", str(cfg_path), "--out", str(out)])

    for stage in ("generate-cohort", "train-ae", "encode"):
        assert run(stage) == 0, stage
    latents = (out / "latents/latents.mrxt").read_bytes()
    volumes = read_tensors(out / "cohort/volumes.mrxt")
    first = next(iter(volumes))
    if change == "missing":
        del volumes[first]
    else:
        volumes["extra/0"] = volumes[first]
    write_tensors(out / "cohort/volumes.mrxt", volumes)
    capsys.readouterr()
    assert run("encode") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: missing dependency: run stage 'generate-cohort' first")
    assert (out / "latents/latents.mrxt").read_bytes() == latents


def test_stages_read_only_their_split_of_the_cohort_volumes(tmp_path, capsys):
    """train-ae reads the train split's volumes and evaluate the test split's:
    scans of other splits missing from volumes.mrxt do not stop them, and one
    of their own missing is a one-line error naming generate-cohort."""
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**MINI_CONFIG, "autoencoder": {"epochs": 0},
                                    "evaluation": {"predict_sources": ["regression"]}}))
    out = tmp_path / "out"

    def run(stage):
        return main([stage, "--config", str(cfg_path), "--out", str(out)])

    for stage in ("generate-cohort", "train-ae", "encode", "fit-betas", "predict"):
        assert run(stage) == 0, stage
    manifest = json.loads((out / "cohort/manifest.json").read_text())
    volumes_path = out / "cohort/volumes.mrxt"
    volumes = read_tensors(volumes_path)

    def keep_split(split):
        write_tensors(volumes_path, {
            f"{s['subject_id']}/{i}": volumes[f"{s['subject_id']}/{i}"]
            for s in manifest["subjects"] if s["split"] == split for i in range(len(s["scans"]))
        })

    for split, stage in (("train", "train-ae"), ("test", "evaluate")):
        keep_split(split)
        assert run(stage) == 0, stage
        keep_split({"train": "test", "test": "train"}[split])
        capsys.readouterr()
        assert run(stage) == 1, stage
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, stage
        assert lines[0].startswith("error: missing dependency: run stage 'generate-cohort' first")

    # a forecast case of a subject outside the test split, or of a scan its
    # subject lacks, names predict
    write_tensors(volumes_path, volumes)
    index_path = out / PREDICTIONS
    index = json.loads(index_path.read_text())
    case = next(iter(index.values()))
    n_scans = len(next(s for s in manifest["subjects"] if s["subject_id"] == case["subject_id"])["scans"])
    train_sid = next(s["subject_id"] for s in manifest["subjects"] if s["split"] == "train")
    for bad in ({**case, "subject_id": train_sid}, {**case, "target": n_scans}):
        index_path.write_text(json.dumps({**index, "injected": bad}))
        capsys.readouterr()
        assert run("evaluate") == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: missing dependency: run stage 'predict' first")
        assert bad["subject_id"] in lines[0]


def test_evaluate_before_predict_names_predict(chain_run, capsys):
    out, cfg_path = chain_run
    rc = main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "run stage 'predict' first" in err
    assert not (out / "metrics").exists()


def test_deterministic_forecasts_extrapolate_the_stored_latents(all_sources_run):
    """Each forecast decodes its anchor latent moved along the source's rate
    to the target age.  Diffusion rates come from predict's one
    batched sampling call; here they are re-sampled one case at a time, which
    ties the batched stage path to resolve_beta's, up to matmul summation order."""
    out, cfg_path = all_sources_run
    cfg = load_config(cfg_path)
    model = load_model(out / "ae" / "model.mrxt", out / "ae" / "model.json")
    latents = read_tensors(out / "latents" / "latents.mrxt")
    beliefs = {
        "global_prior": GaussianBelief(**read_tensors(out / "priors" / "global.mrxt")),
        "obs_noise": ObservationNoise(
            read_tensors(out / "priors" / "obs_noise.mrxt")["variance"].astype(np.float64)
        ),
        "gaussian_net": load_gaussian_prior(
            out / "priors" / "gaussian_net.mrxt", out / "priors" / "gaussian_net.json"
        ),
        "denoiser": load_denoiser(
            out / "priors" / "diffusion.mrxt", out / "priors" / "diffusion.json"
        ),
        "k_samples": cfg.diffusion.k_samples,
    }
    sampling_seed = cfg.seed + SEED_OFFSETS["sampling"]
    subjects = {s.subject_id: s for s in load_subjects(out / "cohort")}
    index = json.loads((out / PREDICTIONS).read_text())
    forecasts = read_tensors(out / FORECASTS)
    assert forecasts.keys() == index.keys()
    assert {case["source"] for case in index.values()} == set(BELIEF_SOURCES)
    n_diffusion = 0  # predict numbers its diffusion cases in index order
    for key, case in index.items():
        sid, ages = case["subject_id"], subjects[case["subject_id"]].ages()

        def scan(i):
            return latents[f"{sid}/{i}"].astype(np.float64), ages[i]

        seed = sampling_seed + cfg.diffusion.k_samples * n_diffusion
        [beta] = resolve_beta([(case["source"], [scan(i) for i in case["conditioning"]], seed)],
                              **beliefs)
        expect = decode(model, extrapolate(*scan(case["anchor"]), beta, ages[case["target"]]))
        if case["source"] == "diffusion":
            np.testing.assert_allclose(forecasts[key], expect, rtol=1e-6, err_msg=key)
            n_diffusion += 1
        else:
            np.testing.assert_array_equal(forecasts[key], expect.astype(np.float32), err_msg=key)
    assert len(index) >= 5


def test_predict_samples_with_the_schedule_the_denoiser_was_trained_with(
    all_sources_run, tmp_path
):
    """A changed noise schedule in the config does not reach a fitted denoiser."""
    first = all_sources_run[0]
    out = tmp_path / "out"
    shutil.copytree(first, out)
    diffusion = {**ALL_SOURCES_CONFIG["diffusion"], "timesteps": 40}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**ALL_SOURCES_CONFIG, "diffusion": diffusion}))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0

    def diffusion_forecasts(root):
        return {k: v for k, v in read_tensors(root / FORECASTS).items() if "/diffusion/" in k}

    before, after = diffusion_forecasts(first), diffusion_forecasts(out)
    assert before and before.keys() == after.keys()
    for key in before:
        np.testing.assert_array_equal(after[key], before[key], err_msg=key)


def test_diffusion_chains_of_different_cases_draw_different_noise(tmp_path, monkeypatch):
    """Each of a predict run's n*k diffusion chains has a seed of its own."""
    config = {
        **MINI_CONFIG,
        "cohort": {**MINI_CONFIG["cohort"], "split_fractions": [0.5, 0.0, 0.5]},
        "autoencoder": {"epochs": 0},
        "diffusion": {"epochs": 1, "k_samples": 3, "timesteps": 10},
        "evaluation": {"predict_sources": ["diffusion"]},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config))
    calls = []

    def recording(denoiser, latents, ages, seeds, k):
        calls.append((list(seeds), k))
        return sample_betas(denoiser, latents, ages, seeds, k)

    monkeypatch.setattr(diffusion, "sample_betas", recording)
    for stage in ("generate-cohort", "train-ae", "encode", "fit-betas",
                  "fit-diffusion-prior", "predict"):
        assert main([stage, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0, stage

    [(seeds, k)] = calls
    chain_seeds = [seed + j for seed in seeds for j in range(k)]
    assert len(seeds) >= 2 and k == 3
    assert len(set(chain_seeds)) == len(chain_seeds)


def test_run_records_hash_exactly_the_files_each_stage_reads(
    tmp_path, monkeypatch, read_audit
):
    """A record's inputs are the files under --out its stage function opened.

    Only opens made while the stage function runs count, so the hashing of
    the inputs by run_stage itself is not mistaken for a read.  Evaluate
    runs again with fewer sources than predict forecast.
    """
    read: list[str] = []
    for stage in STAGES:
        name = f"stage_{stage.replace('-', '_')}"

        def recorded(cfg, out, _fn=getattr(pipeline, name)):
            read_audit.paths = read
            try:
                return _fn(cfg, out)
            finally:
                read_audit.paths = None

        monkeypatch.setattr(pipeline, name, recorded)

    out = tmp_path / "out"
    root = os.path.realpath(out)

    def run_and_check(stage, config) -> dict:
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        read.clear()
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage
        opened = {os.path.relpath(p, root) for p in read if p.startswith(root + os.sep)}
        inputs = json.loads((out / "runs" / f"{stage}.json").read_text())["inputs"]
        assert set(inputs) == opened, stage
        return inputs

    inputs = {stage: run_and_check(stage, ALL_SOURCES_CONFIG) for stage in STAGES}
    assert {"cohort/volumes.mrxt", FORECASTS} <= set(inputs["evaluate"])
    assert "priors/diffusion.json" in inputs["predict"]

    narrowed = {**ALL_SOURCES_CONFIG, "evaluation": {"predict_sources": ["posterior"]}}
    assert {"cohort/volumes.mrxt", FORECASTS} <= set(run_and_check("evaluate", narrowed))


def test_every_file_a_run_leaves_is_listed_in_a_run_record(all_sources_run, tmp_path):
    """Apart from the lock and the records themselves, a stage writes only
    files its record lists as outputs."""
    out = tmp_path / "out"
    shutil.copytree(all_sources_run[0], out)
    cfg_path = all_sources_run[1]
    for stage in ("evaluate", "analyze-beta"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage

    records = [json.loads(path.read_text()) for path in (out / "runs").iterdir()]
    assert {record["stage"] for record in records} == set(STAGES)
    listed = {rel for record in records for rel in record["outputs"]}
    left = {
        path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file()
    }
    unlisted = {rel for rel in left - listed if rel != ".lock" and not rel.startswith("runs/")}
    assert not unlisted


def test_evaluate_of_a_source_predict_did_not_forecast_names_predict(chain_run, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(chain_run[0], out)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**MINI_CONFIG, "evaluation": {"predict_sources": ["posterior"]}}))
    assert main(["predict", "--config", str(cfg_path), "--out", str(out)]) == 0
    both = ["posterior", "global_prior"]
    cfg_path.write_text(json.dumps({**MINI_CONFIG, "evaluation": {"predict_sources": both}}))
    capsys.readouterr()

    rc = main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith("error: missing dependency: run stage 'predict' first")
    assert "no global_prior forecast for" in lines[0]


def test_cli_parser_loads_no_numpy():
    """--threads must be applied before numpy loads, so the parser may not load it."""
    code = (
        "import sys, latprog.cli\n"
        "latprog.cli.build_parser()\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_package_loads_no_scipy():
    """The package needs numpy alone."""
    code = (
        "import sys, latprog.cli, latprog.pipeline\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_train_ae_loads_numpy_random_before_the_volumes():
    """numpy loads its random module at the first draw.  Loaded after
    train-ae has read the volumes, its long-lived objects land in the heap
    above them, and the freed heap under them is never returned; so the
    stage loads it first.  Importing the package does not load it."""
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import latprog.pipeline as p\n"
        "print('numpy.random.mtrand' in sys.modules)\n"
        "def probe(*args, **kwargs):\n"
        "    print('numpy.random.mtrand' in sys.modules)\n"
        "    raise SystemExit(0)\n"
        "p.load_cohort = probe\n"
        "p.stage_train_ae(None, Path('.'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_lock_conflict_reported(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(os.getpid()))  # a live process
    rc = main(["generate-cohort", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "locked" in err
    assert (out / ".lock").exists()  # a foreign lock is never cleaned up


def test_lock_without_a_pid_reported(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text("not a pid")
    rc = main(["generate-cohort", "--out", str(out)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err
    assert (out / ".lock").read_text() == "not a pid"


def test_lock_of_a_dead_process_is_broken(tmp_path, caplog):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # exited and reaped: its pid names no process
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(str(child.pid))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(MINI_CONFIG))
    assert main(["generate-cohort", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert f"breaking stale lock {out / '.lock'}: process {child.pid} no longer exists" in caplog.text
    assert (out / "cohort" / "manifest.json").exists()
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("meta, stage, consumer, source, dropped", [
    ("ae/model.json", "train-ae", "encode", "regression", None),
    ("priors/gaussian_net.json", "fit-gaussian-prior", "predict", "gaussian_net", None),
    ("priors/diffusion.json", "fit-diffusion-prior", "predict", "diffusion", None),
    ("ae/model.json", "train-ae", "encode", "regression", ("ssim_window",)),
    ("priors/gaussian_net.json", "fit-gaussian-prior", "predict", "gaussian_net", ("hidden_width",)),
    ("priors/diffusion.json", "fit-diffusion-prior", "predict", "diffusion", ("k_samples",)),
    # a denoiser saved without the length of its noise schedule
    ("priors/diffusion.json", "fit-diffusion-prior", "predict", "diffusion", ("timesteps",)),
], ids=["autoencoder", "gaussian-prior", "diffusion-prior",
        "autoencoder-missing-key", "gaussian-prior-missing-key", "diffusion-prior-missing-key",
        "diffusion-prior-missing-schedule"])
def test_model_meta_from_another_version_names_the_stage_to_rerun(
    chain_run, tmp_path, capsys, meta, stage, consumer, source, dropped
):
    """A model whose meta holds a config key this version lacks, or lacks one
    it has, is refused, not crashed on or filled with today's default."""
    out = tmp_path / "out"
    shutil.copytree(chain_run[0], out)
    cfg_path = tmp_path / "run.json"
    config = {**ALL_SOURCES_CONFIG, "evaluation": {"predict_sources": [source]}}
    cfg_path.write_text(json.dumps(config))
    if stage != "train-ae":
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / meta).read_text())
    if dropped is None:
        doc["config"]["architecture"] = "mlp"
        problem = "unknown config key 'architecture'"
    else:
        for key in dropped:
            del doc["config"][key]
        problem = f"missing config key {', '.join(map(repr, dropped))}"
    (out / meta).write_text(json.dumps(doc))
    capsys.readouterr()

    rc = main([consumer, "--config", str(cfg_path), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"error: missing dependency: run stage '{stage}' first")
    assert problem in lines[0]


def test_unknown_config_key_reported(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"autoencoder": {"bogus": 1}}))
    rc = main(["generate-cohort", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown config key: autoencoder.bogus" in err


# Former config keys that are module constants now, each with a value to set
# it to; the rows below cover embed_width, beta_start and beta_end.  While
# they were keys, n_alphas 0 crashed evaluate and bin_width 0 analyze-beta.
REMOVED_KEYS = [
    ("autoencoder", "gamma_kl", 1e-5),
    ("autoencoder", "ssim_weight", 1.0),
    ("autoencoder", "rmsprop_decay", 0.99),
    ("gaussian_prior", "nll_weight", 1e-3),
    ("gaussian_prior", "rmsprop_decay", 0.99),
    ("diffusion", "ema_decay", 0.99),
    ("diffusion", "rmsprop_decay", 0.99),
    ("evaluation", "anchor_year", 4.0),
    ("evaluation", "lag_years", [1, 2, 3]),
    ("evaluation", "min_span_years", 6.0),
    ("evaluation", "n_alphas", 0),
    ("evaluation", "bin_width", 0),
    ("evaluation", "bin_start", 60.0),
]


@pytest.mark.parametrize("doc, message", [
    ({"cohort": {"n_subjects": "4"}}, "error: cohort.n_subjects must be an integer, got '4'"),
    ({"cohort": {"grid_size": 16}}, "error: cohort.grid_size: geometry overflow"),
    ({"cohort": {"noise_sigma": 0.1}}, "error: cohort.noise_sigma: intensity gap"),
    ({"cohort": {"noise_sigma": -0.1}}, "error: cohort.noise_sigma: noise_sigma -0.1 < 0"),
    ({"cohort": {"grid_size": 16, "noise_sigma": 0.1}}, "error: cohort.grid_size: geometry overflow"),
    ({"autoencoder": {"architecture": "mlp"}}, "error: unknown config key: autoencoder.architecture"),
    ({"autoencoder": {"init": "kaiming"}}, "error: autoencoder.init: 'kaiming' is not one of"),
    ({"autoencoder": {"ssim_window": 4}}, "error: autoencoder.ssim_window: window must be odd"),
    ({"autoencoder": {"ssim_window": 1}}, "error: autoencoder.ssim_window: window must be odd"),
    ({"cohort": {"grid_size": 20}, "autoencoder": {"ssim_window": 21}},
     "error: autoencoder.ssim_window: window 21 larger than volume (20, 20, 20)"),
    # the embedding width and the schedule's betas are constants, not keys
    ({"diffusion": {"embed_width": 5}}, "error: unknown config key: diffusion.embed_width"),
    ({"diffusion": {"embed_width": -2}}, "error: unknown config key: diffusion.embed_width"),
    ({"diffusion": {"beta_end": 1.5}}, "error: unknown config key: diffusion.beta_end"),
    ({"diffusion": {"beta_start": 0.0}}, "error: unknown config key: diffusion.beta_start"),
    ({"diffusion": {"beta_start": 0.05}}, "error: unknown config key: diffusion.beta_start"),
    ({"diffusion": {"timesteps": 0}}, "error: diffusion.timesteps must be at least 1, got 0"),
    ({"diffusion": {"timesteps": 100000}},
     "error: diffusion.timesteps: invalid schedule: at 100000 steps alpha_bars does not"),
    ({"evaluation": {"predict_sources": ["global_prior", "oracle"]}},
     "error: evaluation.predict_sources: 'oracle' is not one of"),
    ({"cohort": {"baseline_age_range": [40, 50]}},
     "error: cohort.baseline_age_range: need 55.0 <= low <= high, got (40, 50)"),
    ({"cohort": {"baseline_age_range": [60, 90]}},
     "error: cohort.baseline_age_range: the oldest possible scan, 90 + 5 gaps of 1.3, is at 96.5"),
    ({"cohort": {"scans_per_subject": [4, 2]}},
     "error: cohort.scans_per_subject: need 1 <= low <= high, got (4, 2)"),
    ({"cohort": {"scans_per_subject": [0, 1]}},
     "error: cohort.scans_per_subject: need 1 <= low <= high, got (0, 1)"),
    ({"cohort": {"age_spacing": [-1, -0.5]}},
     "error: cohort.age_spacing: need 0 < low <= high, got (-1, -0.5)"),
    ({"cohort": {"split_fractions": [0.8, 0.3, 0.2]}},
     "error: cohort.split_fractions: bad split fractions (0.8, 0.3, 0.2)"),
    ({"cohort": {"diagnosis_mix": {"healthy": 0.5}}},
     "error: cohort.diagnosis_mix: {'healthy': 0.5} must be >= 0 and sum to 1"),
    ({"cohort": {"diagnosis_mix": {"healthy": 1.0, "dementa": 0.5}}},
     "error: cohort.diagnosis_mix: unknown diagnosis 'dementa'"),
] + [
    ({section: {key: value}}, f"error: unknown config key: {section}.{key}")
    for section, key, value in REMOVED_KEYS
], ids=["wrong-type", "grid-16", "noise-0.1", "negative-noise", "grid-16-noise-0.1",
        "mlp", "init-kaiming", "even-window", "window-1", "window-above-grid", "odd-embed-width",
        "negative-embed-width", "beta-end-1.5", "beta-start-0", "beta-start-above-end",
        "zero-timesteps", "timesteps-past-strict-decrease", "unknown-source", "baseline-below-age-min",
        "oldest-scan-past-age-max", "scans-low-above-high", "zero-scans", "negative-spacing",
        "split-above-one", "mix-below-one", "mix-unknown-diagnosis",
        *(f"removed-{section}.{key}" for section, key, _ in REMOVED_KEYS)])
def test_bad_config_value_rejected_before_any_work(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["generate-cohort", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not (tmp_path / "o").exists()


def test_grid_not_a_multiple_of_eight_runs_end_to_end(tmp_path):
    cfg_path = tmp_path / "grid20.json"
    cfg_path.write_text(json.dumps({
        "seed": 2,
        "cohort": {"n_subjects": 4, "grid_size": 20, "scans_per_subject": [2, 3]},
        "autoencoder": {"epochs": 0},
    }))
    out = tmp_path / "out"
    for stage in ("generate-cohort", "train-ae", "encode"):
        assert main([stage, "--config", str(cfg_path), "--out", str(out)]) == 0, stage

    from latprog.autoencoder import LATENT_DIM
    from latprog.tensorfile import read_tensors

    latents = read_tensors(out / "latents/latents.mrxt")
    assert latents and all(z.shape == (LATENT_DIM,) for z in latents.values())


def test_threads_must_be_positive(tmp_path, capsys):
    rc = main(["generate-cohort", "--out", str(tmp_path / "o"), "--threads", "0"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--threads" in err
    assert not (tmp_path / "o").exists()  # rejected before any work


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "latprog", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    for stage in CHAIN + ("predict", "evaluate", "analyze-beta"):
        assert stage in proc.stdout


def test_module_entrypoint_rejects_unknown_stage():
    proc = subprocess.run(
        [sys.executable, "-m", "latprog", "frobnicate", "--out", "/tmp/x"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
