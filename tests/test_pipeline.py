"""CLI staging: artifacts, run records, locking, and error reporting."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

from latprog import pipeline
from latprog.cli import main
from latprog.config import load_config
from latprog.stages import STAGES

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
    "diffusion": {"epochs": 2, "k_samples": 2},
    "schedule": {"timesteps": 20},
    "evaluation": {
        "predict_sources": ["global_prior", "gaussian_net", "diffusion", "regression", "posterior"]
    },
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


def test_chain_writes_expected_artifacts(chain_run):
    out, _ = chain_run
    for rel in (
        "cohort/manifest.json",
        "ae/model.mrxt",
        "ae/model.json",
        "latents/latents.mrxt",
        "latents/latents.json",
        "betas/betas.mrxt",
        "priors/global.mrxt",
        "priors/obs_noise.mrxt",
    ):
        assert (out / rel).exists(), rel
    # everything these sidecars held is in latents/latents.json or read by no one
    for rel in ("betas/betas.json", "priors/global.json", "priors/obs_noise.json"):
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


def test_latents_cover_every_scan(chain_run):
    out, _ = chain_run
    manifest = json.loads((out / "cohort/manifest.json").read_text())
    meta = json.loads((out / "latents/latents.json").read_text())
    assert set(meta["subjects"]) == {s["subject_id"] for s in manifest["subjects"]}
    n_scans = sum(len(s["scans"]) for s in manifest["subjects"])

    from latprog.tensorfile import read_tensors

    latents = read_tensors(out / "latents/latents.mrxt")
    assert len(latents) == n_scans


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


def test_evaluate_before_predict_names_predict(chain_run, capsys):
    out, cfg_path = chain_run
    rc = main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "run stage 'predict' first" in err
    assert not (out / "metrics").exists()


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
    assert any(rel.startswith("cohort/volumes/") for rel in inputs["evaluate"])
    assert any(rel.startswith("predictions/diffusion/") for rel in inputs["evaluate"])
    assert "priors/diffusion.json" in inputs["predict"]

    narrowed = {**ALL_SOURCES_CONFIG, "evaluation": {"predict_sources": ["posterior"]}}
    forecasts = {
        rel for rel in run_and_check("evaluate", narrowed) if rel.startswith("predictions/")
    }
    assert forecasts and all(
        rel.startswith("predictions/posterior/") or rel == "predictions/predictions.json"
        for rel in forecasts
    )


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
    ("ae/model.json", "train-ae", "encode", "regression", "gamma_kl"),
    ("priors/gaussian_net.json", "fit-gaussian-prior", "predict", "gaussian_net", "nll_weight"),
    ("priors/diffusion.json", "fit-diffusion-prior", "predict", "diffusion", "ema_decay"),
], ids=["autoencoder", "gaussian-prior", "diffusion-prior",
        "autoencoder-missing-key", "gaussian-prior-missing-key", "diffusion-prior-missing-key"])
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
        del doc["config"][dropped]
        problem = f"missing config key {dropped!r}"
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
    ({"diffusion": {"embed_width": 5}}, "error: diffusion.embed_width: embedding width must be even"),
    ({"diffusion": {"embed_width": -2}}, "error: diffusion.embed_width must be at least 0"),
    ({"schedule": {"beta_end": 1.5}}, "error: schedule: invalid schedule: step betas"),
    ({"schedule": {"beta_start": 0.0}}, "error: schedule: invalid schedule: step betas"),
    ({"schedule": {"beta_start": 0.05}}, "error: schedule: invalid schedule: betas must be non-decreasing"),
    ({"evaluation": {"predict_sources": ["global_prior", "oracle"]}},
     "error: evaluation.predict_sources: 'oracle' is not one of"),
], ids=["wrong-type", "grid-16", "noise-0.1", "negative-noise", "grid-16-noise-0.1",
        "mlp", "init-kaiming", "even-window", "window-1", "window-above-grid", "odd-embed-width",
        "negative-embed-width", "beta-end-1.5", "beta-start-0", "beta-start-above-end",
        "unknown-source"])
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
