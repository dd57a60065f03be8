"""Cohort persistence: JSON manifest plus one tensor file per scan volume.

The manifest is written with sorted keys and fixed indentation so that
load -> dump round-trips byte-stably; volumes are float32 tensor files,
which makes the whole cohort bit-reproducible from (spec, seed).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import phantom
from .tensorfile import canonical_json, read_tensor, write_tensor


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


def _volume_filename(subject_id: str, scan_idx: int) -> str:
    return f"volumes/{subject_id}_s{scan_idx}.mrxt"


def save_cohort(cohort: phantom.Cohort, out_dir, cohort_id: str) -> Path:
    """Write manifest.json and per-scan volume tensors under out_dir."""
    out = Path(out_dir)
    (out / "volumes").mkdir(parents=True, exist_ok=True)
    subjects = []
    split_assignment: dict[str, list[str]] = {}
    for subject in cohort.subjects:
        split_assignment.setdefault(subject.split, []).append(subject.subject_id)
        scans = []
        for idx, scan in enumerate(subject.scans):
            rel = _volume_filename(subject.subject_id, idx)
            if scan.volume is None:
                raise ValueError(f"scan {subject.subject_id}/{idx} has no volume")
            write_tensor(out / rel, scan.volume)
            scans.append(
                {
                    "age": scan.age,
                    "diagnosis_at_scan": scan.diagnosis_at_scan,
                    "seed": scan.seed,
                    "volume_path": rel,
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
        "split_assignment": {k: sorted(v) for k, v in sorted(split_assignment.items())},
    }
    path = out / "manifest.json"
    path.write_text(canonical_json(manifest))
    return path


def load_cohort(cohort_dir) -> phantom.Cohort:
    root = Path(cohort_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    spec = spec_from_dict(manifest["spec"])
    subjects = []
    for entry in manifest["subjects"]:
        scans = [
            phantom.ScanRecord(
                subject_id=entry["subject_id"],
                age=scan["age"],
                diagnosis_at_scan=scan["diagnosis_at_scan"],
                seed=scan["seed"],
                volume=read_tensor(root / scan["volume_path"]),
            )
            for scan in entry["scans"]
        ]
        subjects.append(
            phantom.SubjectRecord(
                subject_id=entry["subject_id"],
                diagnosis=entry["diagnosis"],
                rate_multipliers={int(k): v for k, v in entry["true_rates"].items()},
                scans=scans,
                split=entry["split"],
            )
        )
    return phantom.Cohort(spec=spec, subjects=subjects)
