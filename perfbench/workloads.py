"""Workload definitions: the config keys each workload sets and its stages.

A workload config sets only the keys that define it; every other value
follows the package defaults, so a changed default is measured the way a
user would see it and a deleted unused key does not break the benchmark.
This module imports nothing heavy: the orchestrator uses it before any
process has pinned its BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass

# The master seed of the ROADMAP baseline; the benchmark's --seed overrides it.
DEFAULT_SEED = 3

# Training epochs of the `train` workload.  One epoch is the shortest run
# that exercises every training layer; it is not chosen to hide the
# optimizer's damage to the PCA start (recon_ssim reports it).
TRAIN_EPOCHS = 1

ALL_SOURCES = ["global_prior", "gaussian_net", "diffusion", "regression", "posterior"]

INFERENCE_STAGES = (
    "encode",
    "fit-betas",
    "fit-global-prior",
    "fit-gaussian-prior",
    "fit-diffusion-prior",
    "predict",
    "evaluate",
    "analyze-beta",
)

STAGES = ("generate-cohort", "train-ae", *INFERENCE_STAGES)

_INFERENCE_ARTIFACTS = (
    "latents/latents.mrxt",
    "betas/betas.mrxt",
    "priors/global.mrxt",
    "priors/obs_noise.mrxt",
    "priors/gaussian_net.mrxt",
    "priors/diffusion.mrxt",
    "predictions/predictions.json",
    "metrics/rows.csv",
    "metrics/summary.json",
    "analysis/beta_norms.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    artifacts: tuple[str, ...]  # files the timed stages must leave behind
    quality: tuple[str, ...]  # end-to-end quality figures that must be finite


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train",
            why="autoencoder training alone: optimizer update, matmuls, SSIM gradient, SVD init;"
                " no inference layer runs",
            config={"autoencoder": {"epochs": TRAIN_EPOCHS}},
            setup=("generate-cohort",),
            timed=("train-ae",),
            artifacts=("ae/model.mrxt", "ae/model.json"),
            quality=("recon_ssim", "recon_dice"),
        ),
        Workload(
            name="forecast",
            why="inference on the default 2-6 scan cohort with all five belief sources:"
                " encode, DDPM chains, decode; no training",
            config={
                "autoencoder": {"epochs": 0},
                "evaluation": {"predict_sources": ALL_SOURCES},
            },
            setup=("generate-cohort", "train-ae"),
            timed=INFERENCE_STAGES,
            artifacts=_INFERENCE_ARTIFACTS,
            quality=("forecast_mae_pct",),
        ),
    )
}
