"""Stage orchestration over a single output directory.

Every stage writes its artifacts plus a JSON run record under runs/ with
the resolved config hash, the seed, input file hashes, wall time, and how
the process ran: its BLAS thread setting, numpy's BLAS build, and its peak
RSS.
A lock file serializes pipelines per output directory.  Metric CSVs are
deterministic functions of (config, seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import resource
import time
from pathlib import Path

import numpy as np

from . import evaluation, phantom
from .autoencoder import decode, encode, load_model, save_model, train_autoencoder
from .config import SEED_OFFSETS, RunConfig
from .diffusion import load_denoiser, save_denoiser, train_diffusion_prior
from .errors import MissingDependencyError
from .evaluation import write_csv, write_metrics_csv
from .gaussian_prior import load_gaussian_prior, save_gaussian_prior, train_gaussian_prior
from .manifest import load_cohort, load_subjects, save_cohort
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
from .stages import (
    FORECASTS,
    GLOBAL_PRIOR_SOURCES,
    LATENTS,
    MANIFEST,
    PREDICTIONS,
    STAGES,
    VOLUMES,
    producer,
)
from .tensorfile import iter_tensors, read_tensors, write_json, write_tensors

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


def _blas_build() -> dict | None:
    """Name and version of the BLAS numpy was built with, or None where numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):
        return None


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
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": _blas_build(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    write_json(runs / f"{stage}.json", record)


# ---------------------------------------------------------------- stages
#
# Each stage reads the inputs the stage table declares for it and writes at
# least the outputs declared there, whose directories exist when it starts;
# it returns any further files it wrote.


def stage_generate_cohort(cfg: RunConfig, out: Path) -> None:
    cp = cfg.cohort
    spec = phantom.default_spec(grid_size=cp.grid_size, noise_sigma=cp.noise_sigma)
    cohort = phantom.sample_cohort(
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
    # numpy loads its random module at the first draw, and what that makes
    # (the module's code, its global RandomState) lives as long as the
    # process.  Loaded after the volumes are read, it lands in the heap above
    # them, and glibc cannot return their pages once they are freed (about
    # 45 MiB kept after a grid-32 train-ae), so it is loaded first.
    import numpy.random  # noqa: F401

    cohort = load_cohort(out / "cohort", split="train")
    model = train_autoencoder(cohort.volumes(), cfg.autoencoder)
    save_model(model, out / "ae" / "model.mrxt", out / "ae" / "model.json")


def _load_model(out: Path):
    return load_model(out / "ae" / "model.mrxt", out / "ae" / "model.json")


def _latent_sequences(out: Path, split=None) -> list[LatentSequence]:
    """Encoded latents of each subject's scans, at the manifest's ages, by subject id.

    A latents container whose keys are not exactly the manifest's
    ``<subject_id>/<scan index>`` set was encoded from another cohort:
    MissingDependencyError names encode.
    """
    subjects = load_subjects(out / "cohort")
    tensors = read_tensors(out / LATENTS)
    scans = {f"{s.subject_id}/{i}" for s in subjects for i in range(len(s.scans))}
    if tensors.keys() != scans:
        raise MissingDependencyError(
            producer(LATENTS), f"{LATENTS} was encoded from another cohort: its "
            f"{len(tensors)} scans are not the {len(scans)} of {MANIFEST}"
        )
    return [
        LatentSequence(
            subject_id=s.subject_id,
            ages=s.ages(),
            latents=np.stack([tensors[f"{s.subject_id}/{i}"].astype(np.float64)
                              for i in range(len(s.scans))]),
        )
        for s in sorted(subjects, key=lambda s: s.subject_id)
        if split is None or s.split == split
    ]


def stage_encode(cfg: RunConfig, out: Path) -> None:
    """Encode each cohort volume as it is read, never holding the whole cohort.

    A volumes container whose keys are not exactly the manifest's
    ``<subject_id>/<scan index>`` set raises MissingDependencyError naming
    generate-cohort.  The latents are written in manifest order.
    """
    model = _load_model(out)
    subjects = load_subjects(out / "cohort")
    scans = [f"{s.subject_id}/{i}" for s in subjects for i in range(len(s.scans))]
    means = {name: encode(model, volume).mean for name, volume in iter_tensors(out / VOLUMES)}
    if means.keys() != set(scans):
        raise MissingDependencyError(
            producer(VOLUMES), f"{VOLUMES} was written for another cohort: its "
            f"{len(means)} scans are not the {len(scans)} of {MANIFEST}"
        )
    write_tensors(out / LATENTS, {name: means[name] for name in scans})


def stage_fit_betas(cfg: RunConfig, out: Path) -> None:
    betas = {
        seq.subject_id: compute_beta(list(seq.latents), seq.ages)
        for seq in _latent_sequences(out)
        if len(seq.ages) >= 2
    }
    if not betas:
        raise ValueError("no subject has two or more scans")
    write_tensors(out / "betas" / "betas.mrxt", betas)


def _load_train_set(out: Path):
    """Train-split sequences of the subjects fit-betas rated, and their stored rates."""
    stored = read_tensors(out / "betas" / "betas.mrxt")
    sequences = [
        s for s in _latent_sequences(out, split="train") if s.subject_id in stored
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
    denoiser = train_diffusion_prior(build_triplets(*_load_train_set(out)), cfg.diffusion)
    save_denoiser(
        denoiser, out / "priors" / "diffusion.mrxt", out / "priors" / "diffusion.json"
    )


def _load_beliefs(out: Path, cfg: RunConfig) -> dict:
    """resolve_beta's belief-source keyword arguments for the configured sources."""
    sources = cfg.evaluation.predict_sources
    kwargs: dict = {"k_samples": cfg.diffusion.k_samples}
    if set(GLOBAL_PRIOR_SOURCES) & set(sources):
        kwargs["global_prior"] = GaussianBelief(**read_tensors(out / "priors" / "global.mrxt"))
        noise = read_tensors(out / "priors" / "obs_noise.mrxt")["variance"]
        kwargs["obs_noise"] = ObservationNoise(variance=noise.astype(np.float64))
    if "gaussian_net" in sources:
        kwargs["gaussian_net"] = load_gaussian_prior(
            out / "priors" / "gaussian_net.mrxt", out / "priors" / "gaussian_net.json"
        )
    if "diffusion" in sources:
        kwargs["denoiser"] = load_denoiser(
            out / "priors" / "diffusion.mrxt", out / "priors" / "diffusion.json"
        )
    return kwargs


def _cases(cfg: RunConfig, sequences) -> list[evaluation.Case]:
    """The subjects' last-scan cases for the configured sources, then, when a
    population-prior source is configured, their multi-scan cases."""
    sources = cfg.evaluation.predict_sources
    ages = {seq.subject_id: seq.ages for seq in sequences}
    cases = evaluation.last_scan(ages, sources)
    if set(GLOBAL_PRIOR_SOURCES) & set(sources):
        try:
            cases += evaluation.multiscan_curve(ages)
        except ValueError:
            pass  # no subject spans the protocol
    return cases


def stage_predict(cfg: RunConfig, out: Path) -> None:
    """Forecast every case of the test subjects.

    Each case goes to the index and its decoded volume to the forecasts
    container, both under the case's key.
    """
    model = _load_model(out)
    beliefs = _load_beliefs(out, cfg)
    seqs = {s.subject_id: s for s in _latent_sequences(out, split="test")}
    cases = _cases(cfg, seqs.values())
    # The i-th diffusion case's k chains are seeded sampling_seed + k*i
    # onwards: no two chains share noise.
    sampling_seed = cfg.seed + SEED_OFFSETS["sampling"]
    requests, n_diffusion = [], 0
    for case in cases:
        seq = seqs[case.subject_id]
        requests.append((case.source, [(seq.latents[i], seq.ages[i]) for i in case.conditioning],
                         sampling_seed + cfg.diffusion.k_samples * n_diffusion))
        n_diffusion += case.source == "diffusion"
    forecasts = {}
    for case, beta in zip(cases, resolve_beta(requests, **beliefs)):
        seq = seqs[case.subject_id]
        z_star = extrapolate(seq.latents[case.anchor], seq.ages[case.anchor], beta,
                             seq.ages[case.target])
        forecasts[case.key] = decode(model, z_star).astype(np.float32)
    write_tensors(out / FORECASTS, forecasts)
    write_json(out / PREDICTIONS, {case.key: dataclasses.asdict(case) for case in cases})


def stage_evaluate(cfg: RunConfig, out: Path) -> list[str]:
    """Score predict's forecast volumes and write the latent diagnostics.

    The configured protocols name the cases to score; each is read from
    predict's index and container under its key.  Every index entry must
    name a scan of a test subject as its target.
    """
    model = _load_model(out)
    cohort = load_cohort(out / "cohort", split="test")
    spec = cohort.spec
    subjects = {s.subject_id: s for s in cohort.subjects}
    region_names = [r.name for r in spec.regions]
    test_seqs = _latent_sequences(out, split="test")
    index = json.loads((out / PREDICTIONS).read_text())
    for key, entry in index.items():
        subject = subjects.get(entry["subject_id"])
        if subject is None or not 0 <= entry["target"] < len(subject.scans):
            raise MissingDependencyError(producer(PREDICTIONS), (
                f"{key} targets scan {entry['target']} of {entry['subject_id']}, "
                f"not a test scan of {MANIFEST}"
            ))
    cases = _cases(cfg, test_seqs)
    stored = read_tensors(out / FORECASTS, keys=[case.key for case in cases])
    groups: dict[tuple, list] = {}
    for case in cases:
        if case.key not in index or case.key not in stored:
            raise MissingDependencyError(
                producer(FORECASTS), f"no {case.source} forecast for {case.subject_id}"
            )
        groups.setdefault((case.protocol, case.subject_id, case.target), []).append(
            (case.source, case.n, stored[case.key])
        )
    rows: dict[str, list] = {evaluation.LAST_SCAN: [], evaluation.MULTISCAN: []}
    for (protocol, sid, target), forecasts in groups.items():
        rows[protocol] += evaluation.score_forecasts(spec, subjects[sid], target, forecasts)
    write_metrics_csv(rows[evaluation.LAST_SCAN], out / "metrics" / "rows.csv", region_names)
    summary: dict = {"holdout": evaluation.summarize_rows(rows[evaluation.LAST_SCAN])}
    outputs = []
    if rows[evaluation.MULTISCAN]:
        write_metrics_csv(rows[evaluation.MULTISCAN], out / "metrics" / "multiscan.csv", region_names)
        summary["multiscan"] = evaluation.summarize_rows(rows[evaluation.MULTISCAN])
        outputs.append("metrics/multiscan.csv")
    elif set(GLOBAL_PRIOR_SOURCES) & set(cfg.evaluation.predict_sources):
        summary["multiscan"] = "skipped: no eligible subjects"

    # between the last and first latents of the first test subject with two scans
    interpolated = next((seq for seq in test_seqs if len(seq.ages) >= 2), None)
    if interpolated is not None:
        report = evaluation.interpolation_linearity(
            model, interpolated.latents[-1], interpolated.latents[0], spec
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
            "subject_id": interpolated.subject_id,
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

    write_json(out / "metrics" / "summary.json", summary)
    return outputs


def stage_analyze_beta(cfg: RunConfig, out: Path) -> None:
    beta_tensors = read_tensors(out / "betas" / "betas.mrxt")
    subjects = {s.subject_id: s for s in load_subjects(out / "cohort")}
    entries = [
        (beta_tensors[sid], subjects[sid].diagnosis, min(subjects[sid].ages()))
        for sid in sorted(beta_tensors)
    ]
    table = evaluation.beta_norm_analysis(entries)
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
