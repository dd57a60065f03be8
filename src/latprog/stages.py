"""The pipeline's stages, declared once: the files each reads and writes.

``pipeline.run_stage`` takes a stage's inputs from this table: it checks
that each exists, names the stage that writes a missing one, and hashes
them into the run record before the stage runs.  The stage itself is
``pipeline.stage_<name>``, dashes read as underscores.  This module imports
no numpy, so the CLI builds its parser from it before ``--threads`` pins
the BLAS thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import MissingDependencyError

COHORT = "cohort/manifest.json"
MODEL = ("ae/model.mrxt", "ae/model.json")
LATENTS = ("latents/latents.mrxt", "latents/latents.json")
BETAS = "betas/betas.mrxt"
PREDICTIONS = "predictions/predictions.json"

# Belief sources that use the population prior; evaluate draws the
# multi-scan conditioning curve when one of them is configured.
GLOBAL_PRIOR_SOURCES = ("global_prior", "posterior")

# Prior files each belief source reads; regression reads none.
PRIOR_FILES = {
    **dict.fromkeys(GLOBAL_PRIOR_SOURCES, ("priors/global.mrxt", "priors/obs_noise.mrxt")),
    "gaussian_net": ("priors/gaussian_net.mrxt", "priors/gaussian_net.json"),
    "diffusion": ("priors/diffusion.mrxt", "priors/diffusion.json"),
}


# Index files whose readers also read the files they list: every cohort
# volume, and the forecasts of the configured belief sources.
_LISTED_BY = {
    COHORT: lambda manifest, sources: [
        f"cohort/{scan['volume_path']}" for subject in manifest["subjects"] for scan in subject["scans"]
    ],
    PREDICTIONS: lambda index, sources: [
        case["sources"][s] for case in index.values() for s in sources if s in case["sources"]
    ],
}


@dataclass(frozen=True)
class Stage:
    name: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()  # the files it always writes
    # Belief sources whose prior files the stage reads when they are configured.
    prior_sources: tuple[str, ...] = ()

    def input_files(self, out: Path, sources) -> list[str]:
        """Every file the stage reads, for the configured belief sources.

        Raises MissingDependencyError, naming the stage to run first, if
        one of them does not exist.
        """
        declared = list(self.inputs)
        for source in sources:
            if source in self.prior_sources:
                declared.extend(PRIOR_FILES[source])
        files = []
        for rel in dict.fromkeys(declared):
            _require(out, rel, rel)
            files.append(rel)
            if rel in _LISTED_BY:
                listed = _LISTED_BY[rel](json.loads((out / rel).read_text()), sources)
                for item in listed:
                    _require(out, item, rel)
                files.extend(listed)
        return files


STAGES = {
    stage.name: stage
    for stage in (
        Stage("generate-cohort", outputs=(COHORT,)),
        Stage("train-ae", inputs=(COHORT,), outputs=MODEL),
        Stage("encode", inputs=(*MODEL, COHORT), outputs=LATENTS),
        Stage("fit-betas", inputs=LATENTS, outputs=(BETAS, "betas/betas.json")),
        Stage(
            "fit-global-prior",
            inputs=(*LATENTS, BETAS),
            outputs=(*PRIOR_FILES["global_prior"], "priors/global.json", "priors/obs_noise.json"),
        ),
        Stage("fit-gaussian-prior", inputs=(*LATENTS, BETAS), outputs=PRIOR_FILES["gaussian_net"]),
        Stage("fit-diffusion-prior", inputs=(*LATENTS, BETAS), outputs=PRIOR_FILES["diffusion"]),
        Stage(
            "predict",
            inputs=(*MODEL, *LATENTS),
            outputs=(PREDICTIONS,),
            prior_sources=tuple(PRIOR_FILES),
        ),
        Stage(
            "evaluate",
            inputs=(*MODEL, COHORT, *LATENTS, PREDICTIONS),
            outputs=("metrics/rows.csv", "metrics/summary.json"),
            prior_sources=GLOBAL_PRIOR_SOURCES,
        ),
        Stage("analyze-beta", inputs=(BETAS, "betas/betas.json"), outputs=("analysis/beta_norms.csv",)),
    )
}


def producer(rel: str) -> str:
    """Name of the stage that writes rel."""
    return next(stage.name for stage in STAGES.values() if rel in stage.outputs)


def _require(out: Path, rel: str, written_with: str) -> None:
    if not (out / rel).is_file():
        raise MissingDependencyError(producer(written_with), f"{rel} not found")
