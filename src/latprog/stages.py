"""The pipeline's stages, declared once: the files each reads and writes.

``pipeline.run_stage`` takes a stage's inputs from this table: it checks
that each exists, names the stage that writes a missing one, and hashes
them into the run record before the stage runs.  The stage itself is
``pipeline.stage_<name>``, dashes read as underscores.  This module imports
no numpy, so the CLI builds its parser from it before ``--threads`` pins
the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import MissingDependencyError

MANIFEST = "cohort/manifest.json"
VOLUMES = "cohort/volumes.mrxt"
COHORT = (MANIFEST, VOLUMES)
MODEL = ("ae/model.mrxt", "ae/model.json")
LATENTS = "latents/latents.mrxt"
# Latent sequences: each subject's scans and ages from the manifest, its latents from encode.
SEQUENCES = (MANIFEST, LATENTS)
BETAS = "betas/betas.mrxt"
PREDICTIONS = "predictions/predictions.json"
FORECASTS = "predictions/forecasts.mrxt"

# Belief sources that use the population prior: both read the global prior's files.
GLOBAL_PRIOR_SOURCES = ("global_prior", "posterior")

# Prior files each belief source reads; regression reads none.
PRIOR_FILES = {
    **dict.fromkeys(GLOBAL_PRIOR_SOURCES, ("priors/global.mrxt", "priors/obs_noise.mrxt")),
    "gaussian_net": ("priors/gaussian_net.mrxt", "priors/gaussian_net.json"),
    "diffusion": ("priors/diffusion.mrxt", "priors/diffusion.json"),
}


@dataclass(frozen=True)
class Stage:
    name: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()  # the files it always writes
    reads_priors: bool = False  # and the prior files of the configured belief sources

    def input_files(self, out: Path, sources) -> list[str]:
        """Every file the stage reads, for the configured belief sources.

        Raises MissingDependencyError, naming the stage to run first, if
        one of them does not exist.
        """
        declared = list(self.inputs)
        if self.reads_priors:
            declared += [rel for source in sources for rel in PRIOR_FILES.get(source, ())]
        files = list(dict.fromkeys(declared))
        for rel in files:
            if not (out / rel).is_file():
                raise MissingDependencyError(producer(rel), f"{rel} not found")
        return files


STAGES = {
    stage.name: stage
    for stage in (
        Stage("generate-cohort", outputs=COHORT),
        Stage("train-ae", inputs=COHORT, outputs=MODEL),
        Stage("encode", inputs=(*MODEL, *COHORT), outputs=(LATENTS,)),
        Stage("fit-betas", inputs=SEQUENCES, outputs=(BETAS,)),
        Stage("fit-global-prior", inputs=(*SEQUENCES, BETAS), outputs=PRIOR_FILES["global_prior"]),
        Stage("fit-gaussian-prior", inputs=(*SEQUENCES, BETAS), outputs=PRIOR_FILES["gaussian_net"]),
        Stage("fit-diffusion-prior", inputs=(*SEQUENCES, BETAS), outputs=PRIOR_FILES["diffusion"]),
        Stage(
            "predict",
            inputs=(*MODEL, *SEQUENCES),
            outputs=(PREDICTIONS, FORECASTS),
            reads_priors=True,
        ),
        Stage(
            "evaluate",
            inputs=(*MODEL, *COHORT, LATENTS, PREDICTIONS, FORECASTS),
            outputs=("metrics/rows.csv", "metrics/summary.json"),
        ),
        Stage("analyze-beta", inputs=(BETAS, MANIFEST), outputs=("analysis/beta_norms.csv",)),
    )
}


def producer(rel: str) -> str:
    """Name of the stage that writes rel."""
    return next(stage.name for stage in STAGES.values() if rel in stage.outputs)
