"""Cohort persistence: JSON manifest plus one tensor container of scan volumes.

The manifest is the pipeline's one subject table: each subject's split,
diagnosis, true rates and scans (age, per-scan diagnosis, seed), and the
phantom spec.  Stages that need no volumes read it alone through
:func:`load_subjects`.  It is written with sorted keys and fixed
indentation so that load -> dump round-trips byte-stably; the volumes are
float32 entries of volumes.mrxt keyed ``<subject_id>/<scan index>``, which
makes the whole cohort bit-reproducible from (spec, seed).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import phantom
from .errors import MissingDependencyError
from .stages import MANIFEST, VOLUMES, producer
# canonical_json is re-exported for callers that format manifest dicts.
from .tensorfile import canonical_json, read_tensors, write_json, write_tensors  # noqa: F401


def geometry_to_dict(geom) -> dict:
    if isinstance(geom, phantom.Ellipsoid):
        return {
            "type": "ellipsoid",
            "center": list(geom.center),
            "radii": list(geom.radii),
        }
    if isinstance(geom, phantom.SpherePair):
        return {
            "type": "sphere_pair",
            "centers": [list(c) for c in geom.centers],
            "radius": geom.radius,
        }
    raise ValueError(f"unknown geometry type {type(geom).__name__}")


def geometry_from_dict(data: dict):
    kind = data.get("type")
    if kind == "ellipsoid":
        return phantom.Ellipsoid(
            center=tuple(data["center"]), radii=tuple(data["radii"])
        )
    if kind == "sphere_pair":
        return phantom.SpherePair(
            centers=tuple(tuple(c) for c in data["centers"]), radius=data["radius"]
        )
    raise ValueError(f"unknown geometry type {kind!r}")


def spec_to_dict(spec: phantom.PhantomSpec) -> dict:
    return {
        "grid_size": spec.grid_size,
        "noise_sigma": spec.noise_sigma,
        "max_multiplier": spec.max_multiplier,
        "regions": [
            {
                "region_id": r.region_id,
                "name": r.name,
                "geometry": geometry_to_dict(r.geometry),
                "intensity": r.intensity,
                "volume_rate": r.volume_rate,
            }
            for r in spec.regions
        ],
    }


def spec_from_dict(data: dict) -> phantom.PhantomSpec:
    regions = tuple(
        phantom.RegionSpec(
            region_id=r["region_id"],
            name=r["name"],
            geometry=geometry_from_dict(r["geometry"]),
            intensity=r["intensity"],
            volume_rate=r["volume_rate"],
        )
        for r in data["regions"]
    )
    spec = phantom.PhantomSpec(
        grid_size=data["grid_size"],
        regions=regions,
        noise_sigma=data["noise_sigma"],
        max_multiplier=data["max_multiplier"],
    )
    phantom.validate_spec(spec)
    return spec


def save_cohort(cohort: phantom.Cohort, out_dir, cohort_id: str) -> Path:
    """Write manifest.json and volumes.mrxt under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    volumes: dict[str, np.ndarray] = {}
    subjects = []
    for subject in cohort.subjects:
        scans = []
        for idx, scan in enumerate(subject.scans):
            if scan.volume is None:
                raise ValueError(f"scan {subject.subject_id}/{idx} has no volume")
            volumes[f"{subject.subject_id}/{idx}"] = scan.volume
            scans.append(
                {
                    "age": scan.age,
                    "diagnosis_at_scan": scan.diagnosis_at_scan,
                    "seed": scan.seed,
                }
            )
        subjects.append(
            {
                "subject_id": subject.subject_id,
                "diagnosis": subject.diagnosis,
                "split": subject.split,
                "true_rates": {str(k): v for k, v in subject.rate_multipliers.items()},
                "scans": scans,
            }
        )
    manifest = {
        "cohort_id": cohort_id,
        "spec": spec_to_dict(cohort.spec),
        "subjects": subjects,
    }
    write_tensors(out / "volumes.mrxt", volumes)
    path = out / "manifest.json"
    write_json(path, manifest)
    return path


def _subjects(manifest: dict) -> list[phantom.SubjectRecord]:
    return [
        phantom.SubjectRecord(
            subject_id=entry["subject_id"],
            diagnosis=entry["diagnosis"],
            rate_multipliers={int(k): v for k, v in entry["true_rates"].items()},
            scans=[
                phantom.ScanRecord(
                    subject_id=entry["subject_id"],
                    age=scan["age"],
                    diagnosis_at_scan=scan["diagnosis_at_scan"],
                    seed=scan["seed"],
                )
                for scan in entry["scans"]
            ],
            split=entry["split"],
        )
        for entry in manifest["subjects"]
    ]


def load_subjects(cohort_dir) -> list[phantom.SubjectRecord]:
    """The manifest's subjects, in manifest order, with no volumes.

    Reads manifest.json alone; the spec is neither built nor validated.
    """
    return _subjects(json.loads((Path(cohort_dir) / "manifest.json").read_text()))


def load_cohort(cohort_dir, split: str | None = None) -> phantom.Cohort:
    """The manifest's subjects with their scan volumes, and the validated spec.

    With ``split``, only that split's subjects, in manifest order, and only
    their volumes are read from volumes.mrxt.  A scan the container lacks
    raises MissingDependencyError naming generate-cohort.
    """
    root = Path(cohort_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    spec = spec_from_dict(manifest["spec"])
    subjects = [s for s in _subjects(manifest) if split is None or s.split == split]
    keys = [f"{s.subject_id}/{idx}" for s in subjects for idx in range(len(s.scans))]
    volumes = read_tensors(root / "volumes.mrxt", keys)
    missing = [key for key in keys if key not in volumes]
    if missing:
        raise MissingDependencyError(
            producer(VOLUMES), f"{VOLUMES} lacks {len(missing)} scan(s) of "
            f"{MANIFEST}, the first {missing[0]!r}"
        )
    for subject in subjects:
        for idx, scan in enumerate(subject.scans):
            scan.volume = volumes[f"{subject.subject_id}/{idx}"]
    return phantom.Cohort(spec=spec, subjects=subjects)
