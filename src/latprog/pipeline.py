"""Stage orchestration over a single output directory.

Every stage writes its artifacts plus a JSON run record under runs/ with
the resolved config hash, the seed, input file hashes, and wall time.
A lock file serializes pipelines per output directory.  Metric CSVs are
deterministic functions of (config, seed).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from pathlib import Path

import numpy as np

from . import evaluation, phantom
from .autoencoder import decode, encode, load_model, save_model, train_autoencoder
from .config import SEED_OFFSETS, RunConfig
from .diffusion import NoiseSchedule, load_denoiser, save_denoiser, train_diffusion_prior
from .errors import MissingDependencyError
from .evaluation import write_csv, write_metrics_csv
from .gaussian_prior import load_gaussian_prior, save_gaussian_prior, train_gaussian_prior
from .manifest import load_cohort, save_cohort
from .progression import (
    GaussianBelief,
    LatentSequence,
    ObservationNoise,
    build_global_prior,
    build_triplets,
    compute_beta,
    estimate_obs_noise,
    extrapolate,
    resolve_beta,
)
from .stages import GLOBAL_PRIOR_SOURCES, PREDICTIONS, STAGES, producer
from .tensorfile import canonical_json, read_tensor, read_tensors, write_tensor, write_tensors

log = logging.getLogger(__name__)


class OutputLock:
    """One pipeline process at a time per output directory.

    A lock whose pid names a process that no longer exists was left by a
    killed run: it is broken with a warning.  A lock held by a live process,
    or one that holds no pid, is an error.
    """

    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            self._break_if_stale()
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:  # another run took it after the break
                raise self._locked() from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False

    def _break_if_stale(self) -> None:
        try:
            pid = int(self.path.read_text())
        except FileNotFoundError:
            return  # released meanwhile
        except ValueError:
            raise self._locked() from None
        if pid <= 0:
            raise self._locked()
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            log.warning("breaking stale lock %s: process %d no longer exists", self.path, pid)
            self.path.unlink(missing_ok=True)
            return
        except (PermissionError, OverflowError):
            pass  # alive but another user's, or too large to be a pid
        raise self._locked()

    def _locked(self) -> RuntimeError:
        return RuntimeError(
            f"output directory is locked by another run ({self.path}); "
            "remove the lock file if it is stale"
        )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_record(out: Path, stage: str, cfg: RunConfig, inputs: dict[str, str],
                  outputs: list[str], wall_time: float) -> None:
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {
        "stage": stage,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "wall_time_s": round(wall_time, 3),
        "inputs": inputs,
        "outputs": outputs,
    }
    (runs / f"{stage}.json").write_text(canonical_json(record))


# ---------------------------------------------------------------- stages
#
# Each stage reads the inputs the stage table declares for it and writes at
# least the outputs declared there, whose directories exist when it starts;
# it returns any further files it wrote.


def stage_generate_cohort(cfg: RunConfig, out: Path) -> None:
    cp = cfg.cohort
    spec = phantom.default_spec(grid_size=cp.grid_size, noise_sigma=cp.noise_sigma)
    cohort = phantom.generate_cohort(
        spec,
        cp.n_subjects,
        scans_per_subject=cp.scans_per_subject,
        age_spacing=cp.age_spacing,
        baseline_age_range=cp.baseline_age_range,
        diagnosis_mix=cp.diagnosis_mix,
        split_fractions=cp.split_fractions,
        seed=cfg.seed + SEED_OFFSETS["cohort"],
    )
    cohort_id = f"cohort-{cp.n_subjects}x{cp.grid_size}-seed{cfg.seed}"
    save_cohort(cohort, out / "cohort", cohort_id)


def stage_train_ae(cfg: RunConfig, out: Path) -> None:
    cohort = load_cohort(out / "cohort")
    model = train_autoencoder(cohort.split("train").volumes(), cfg.autoencoder)
    save_model(model, out / "ae" / "model.mrxt", out / "ae" / "model.json")


def _load_model(out: Path):
    return load_model(out / "ae" / "model.mrxt", out / "ae" / "model.json")


def _load_latents(out: Path):
    tensors = read_tensors(out / "latents" / "latents.mrxt")
    meta = json.loads((out / "latents" / "latents.json").read_text())
    return tensors, meta


def _sequences_from_latents(tensors, meta, split=None) -> list[LatentSequence]:
    sequences = []
    for sid in sorted(meta["subjects"]):
        info = meta["subjects"][sid]
        if split is not None and info["split"] != split:
            continue
        ages = np.array(info["ages"], dtype=np.float64)
        lat = np.stack(
            [tensors[f"{sid}/{i}"].astype(np.float64) for i in range(len(ages))]
        )
        sequences.append(LatentSequence(subject_id=sid, ages=ages, latents=lat))
    return sequences


def stage_encode(cfg: RunConfig, out: Path) -> None:
    model = _load_model(out)
    cohort = load_cohort(out / "cohort")
    named: dict[str, np.ndarray] = {}
    subjects_meta = {}
    for subject in cohort.subjects:
        for idx, scan in enumerate(subject.scans):
            named[f"{subject.subject_id}/{idx}"] = encode(model, scan.volume).mean
        subjects_meta[subject.subject_id] = {
            "split": subject.split,
            "diagnosis": subject.diagnosis,
            "ages": list(subject.ages()),
        }
    write_tensors(out / "latents" / "latents.mrxt", named)
    (out / "latents" / "latents.json").write_text(canonical_json({"subjects": subjects_meta}))


def stage_fit_betas(cfg: RunConfig, out: Path) -> None:
    betas = {
        seq.subject_id: compute_beta(list(seq.latents), seq.ages)
        for seq in _sequences_from_latents(*_load_latents(out))
        if len(seq.ages) >= 2
    }
    if not betas:
        raise ValueError("no subject has two or more scans")
    write_tensors(out / "betas" / "betas.mrxt", betas)


def _load_train_set(out: Path):
    """Train-split sequences of the subjects fit-betas rated, and their stored rates."""
    stored = read_tensors(out / "betas" / "betas.mrxt")
    sequences = [
        s for s in _sequences_from_latents(*_load_latents(out), split="train")
        if s.subject_id in stored
    ]
    return sequences, {s.subject_id: stored[s.subject_id].astype(np.float64) for s in sequences}


def stage_fit_global_prior(cfg: RunConfig, out: Path) -> None:
    sequences, betas = _load_train_set(out)
    prior = build_global_prior(build_triplets(sequences, betas).betas)
    noise = estimate_obs_noise(sequences, betas)
    write_tensors(out / "priors" / "global.mrxt", {"mean": prior.mean, "variance": prior.variance})
    write_tensors(out / "priors" / "obs_noise.mrxt", {"variance": noise.variance})


def stage_fit_gaussian_prior(cfg: RunConfig, out: Path) -> None:
    net = train_gaussian_prior(build_triplets(*_load_train_set(out)), cfg.gaussian_prior)
    save_gaussian_prior(
        net, out / "priors" / "gaussian_net.mrxt", out / "priors" / "gaussian_net.json"
    )


def stage_fit_diffusion_prior(cfg: RunConfig, out: Path) -> None:
    schedule = NoiseSchedule.linear(
        cfg.schedule.timesteps, cfg.schedule.beta_start, cfg.schedule.beta_end
    )
    denoiser = train_diffusion_prior(build_triplets(*_load_train_set(out)), schedule, cfg.diffusion)
    save_denoiser(
        denoiser, out / "priors" / "diffusion.mrxt", out / "priors" / "diffusion.json"
    )


def _load_beliefs(out: Path, sources, cfg: RunConfig) -> dict:
    """Belief-source keyword arguments for resolve_beta, per configured sources."""
    kwargs: dict = {}
    if set(GLOBAL_PRIOR_SOURCES) & set(sources):
        kwargs["global_prior"] = GaussianBelief(**read_tensors(out / "priors" / "global.mrxt"))
        noise = read_tensors(out / "priors" / "obs_noise.mrxt")
        kwargs["obs_noise"] = ObservationNoise(
            variance=noise["variance"].astype(np.float64)
        )
    if "gaussian_net" in sources:
        kwargs["gaussian_net"] = load_gaussian_prior(
            out / "priors" / "gaussian_net.mrxt", out / "priors" / "gaussian_net.json"
        )
    if "diffusion" in sources:
        kwargs["denoiser"] = load_denoiser(
            out / "priors" / "diffusion.mrxt", out / "priors" / "diffusion.json"
        )
        kwargs["schedule"] = NoiseSchedule.linear(
            cfg.schedule.timesteps, cfg.schedule.beta_start, cfg.schedule.beta_end
        )
        kwargs["k_samples"] = cfg.diffusion.k_samples
    return kwargs


def _forecast_sources(sources, n_conditioning: int) -> list[str]:
    """The configured sources, in order, that forecast a case; regression needs two scans."""
    return [s for s in sources if s != "regression" or n_conditioning >= 2]


def stage_predict(cfg: RunConfig, out: Path) -> list[str]:
    """Decode one forecast volume per (test subject, source).

    Each test subject with two or more scans is conditioned on all but its
    last scan and forecast at the last scan's age.
    """
    model = _load_model(out)
    tensors, meta = _load_latents(out)
    sources = cfg.evaluation.predict_sources
    beliefs = _load_beliefs(out, sources, cfg)
    sampling_seed = cfg.seed + SEED_OFFSETS["sampling"]
    seqs = [s for s in _sequences_from_latents(tensors, meta, split="test") if len(s.ages) >= 2]
    volumes = []
    index = {}
    for case_idx, seq in enumerate(seqs):
        cond = [(seq.latents[i], float(seq.ages[i])) for i in range(len(seq.ages) - 1)]
        target_age = float(seq.ages[-1])
        entry = {"target_age": target_age, "conditioning_ages": [a for _, a in cond],
                 "sources": {}}
        for source in _forecast_sources(sources, len(cond)):
            kw = dict(beliefs)
            if source == "diffusion":
                kw["seed"] = sampling_seed + case_idx
            beta = resolve_beta(cond, source, **kw)
            z_star = extrapolate(cond[-1][0], cond[-1][1], beta, target_age)
            rel = f"predictions/{source}/{seq.subject_id}.mrxt"
            (out / "predictions" / source).mkdir(parents=True, exist_ok=True)
            write_tensor(out / rel, decode(model, z_star))
            entry["sources"][source] = rel
            volumes.append(rel)
        index[seq.subject_id] = entry
    (out / PREDICTIONS).write_text(canonical_json(index))
    return volumes


def stage_evaluate(cfg: RunConfig, out: Path) -> list[str]:
    """Score predict's forecast volumes and write the latent diagnostics."""
    model = _load_model(out)
    cohort = load_cohort(out / "cohort")
    spec = cohort.spec
    tensors, meta = _load_latents(out)
    index = json.loads((out / PREDICTIONS).read_text())
    sources = cfg.evaluation.predict_sources
    subjects = {s.subject_id: s for s in cohort.subjects}
    region_names = [r.name for r in spec.regions]

    rows = []
    for sid, case in index.items():
        subject = subjects[sid]
        n_cond = len(case["conditioning_ages"])
        target_idx = int(np.argmin(np.abs(np.array(subject.ages()) - case["target_age"])))
        forecasts = []
        for source in _forecast_sources(sources, n_cond):
            if source not in case["sources"]:
                raise MissingDependencyError(
                    producer(PREDICTIONS), f"no {source} forecast for {sid}"
                )
            forecasts.append((source, n_cond, read_tensor(out / case["sources"][source])))
        rows += evaluation.score_forecasts(spec, subject, target_idx, forecasts)
    write_metrics_csv(rows, out / "metrics" / "rows.csv", region_names)
    summary: dict = {"holdout": evaluation.summarize_rows(rows)}
    outputs = []
    test_seqs = _sequences_from_latents(tensors, meta, split="test")

    beliefs = _load_beliefs(out, [s for s in sources if s in GLOBAL_PRIOR_SOURCES], cfg)
    if beliefs:
        try:
            ms_rows, ms_summary = evaluation.multiscan_curve(
                model,
                cohort.split("test"),
                {seq.subject_id: seq.latents for seq in test_seqs},
                beliefs["global_prior"],
                beliefs["obs_noise"],
                anchor_year=cfg.evaluation.anchor_year,
                lag_years=cfg.evaluation.lag_years,
                min_span_years=cfg.evaluation.min_span_years,
                include_regression=cfg.evaluation.include_regression,
            )
            write_metrics_csv(ms_rows, out / "metrics" / "multiscan.csv", region_names)
            summary["multiscan"] = ms_summary
            outputs.append("metrics/multiscan.csv")
        except ValueError:
            summary["multiscan"] = "skipped: no eligible subjects"

    if index:
        sid = next(iter(index))
        last = len(meta["subjects"][sid]["ages"]) - 1
        report = evaluation.interpolation_linearity(
            model, tensors[f"{sid}/{last}"], tensors[f"{sid}/0"], spec, cfg.evaluation.n_alphas
        )
        write_csv(
            out / "metrics" / "interpolation.csv",
            ["alpha", "region", "count"],
            (
                [format(alpha, ".10g"), name, format(count, ".10g")]
                for name in region_names
                for alpha, count in zip(report.alphas, report.counts[name])
            ),
        )
        summary["interpolation"] = {
            "subject_id": sid,
            "r2": report.r2,
            "max_chord_dev": report.max_chord_dev,
        }
        outputs.append("metrics/interpolation.csv")

    collinearity = {}
    for seq in test_seqs:
        if len(seq.ages) >= 3:
            collinearity[seq.subject_id] = evaluation.latent_collinearity(
                list(seq.latents)
            )
    if collinearity:
        write_csv(
            out / "metrics" / "collinearity.csv",
            ["subject_id", "first_pc_ratio"],
            ([sid, format(collinearity[sid], ".10g")] for sid in sorted(collinearity)),
        )
        summary["collinearity"] = {
            "mean": float(np.mean(list(collinearity.values()))),
            "min": float(np.min(list(collinearity.values()))),
            "subjects": len(collinearity),
        }
        outputs.append("metrics/collinearity.csv")

    (out / "metrics" / "summary.json").write_text(canonical_json(summary))
    return outputs


def stage_analyze_beta(cfg: RunConfig, out: Path) -> None:
    beta_tensors = read_tensors(out / "betas" / "betas.mrxt")
    info = json.loads((out / "latents" / "latents.json").read_text())["subjects"]
    entries = [
        (beta_tensors[sid], info[sid]["diagnosis"], min(info[sid]["ages"]))
        for sid in sorted(beta_tensors)
    ]
    table = evaluation.beta_norm_analysis(
        entries, bin_width=cfg.evaluation.bin_width, bin_start=cfg.evaluation.bin_start
    )
    cells = [(diag, "all", table.overall[diag]) for diag in sorted(table.overall)]
    cells += [(diag, label, table.cells[(diag, label)]) for diag, label in sorted(table.cells)]
    write_csv(
        out / "analysis" / "beta_norms.csv",
        ["diagnosis", "age_bin", "mean_l1", "count", "se"],
        (
            [diag, label, format(cell.mean, ".10g"), cell.count, format(cell.se, ".10g")]
            for diag, label, cell in cells
        ),
    )


def run_stage(stage: str, cfg: RunConfig, out_dir) -> list[str]:
    """Run one pipeline stage under the output-directory lock.

    The stage's inputs, as the stage table declares them, are checked and
    hashed before it runs; returns the sorted files it wrote.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; one of {', '.join(STAGES)}")
    declared = STAGES[stage]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with OutputLock(out):
        inputs = {
            rel: _sha256(out / rel)
            for rel in declared.input_files(out, cfg.evaluation.predict_sources)
        }
        for rel in declared.outputs:
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
        start = time.monotonic()
        written = globals()[f"stage_{stage.replace('-', '_')}"](cfg, out) or []
        outputs = sorted({*declared.outputs, *written})
        _write_record(out, stage, cfg, inputs, outputs, time.monotonic() - start)
    return outputs
