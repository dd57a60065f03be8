"""Cohort-level analyses: forecast protocols, volume errors, latent
diagnostics, rate norms.

A protocol maps subjects' scan ages to the forecast cases of the configured
belief sources, none when no subject is eligible; predict forecasts them and
evaluate scores the stored volumes here.

Region volumes of predictions are measured by nearest-intensity
segmentation of the decoded volume; ground truth for rendered scans comes
from the generator's crisp oracle segmentation.  Volume errors are
reported as a percentage of the subject's first-scan total brain volume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import phantom
from .autoencoder import AEModel, decode, principal_components
from .ssim import ssim3d
from .tensorfile import replacing


@dataclass(frozen=True)
class RegionVolumes:
    counts: dict[int, int]  # region id -> voxel count
    tbv: int  # non-background voxels

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()) or self.tbv < 0:
            raise ValueError("negative voxel count")


@dataclass
class MetricsRow:
    subject_id: str
    source: str
    n_conditioning_scans: int
    target_age: float
    mae: dict[str, float]  # region name -> % of first-scan TBV
    ssim: float
    dice: float

    def __post_init__(self):
        if any(v < 0 for v in self.mae.values()):
            raise ValueError("negative MAE")
        if not 0.0 <= self.dice <= 1.0:
            raise ValueError("dice outside [0, 1]")


def _labels(seg) -> np.ndarray:
    """A label map as a flat integer array; ValueError if a label is not integral."""
    flat = np.asarray(seg).ravel()
    if flat.dtype.kind in "biu" and np.can_cast(flat.dtype, np.intp):
        return flat
    if not (np.isfinite(flat).all() and np.array_equal(np.floor(flat), flat)):
        raise ValueError("label maps must hold integral labels")
    return flat.astype(np.int64)


def region_volumes(seg: np.ndarray, spec: phantom.PhantomSpec) -> RegionVolumes:
    """Voxel counts per region id; tbv counts all non-background voxels."""
    flat = _labels(seg)
    ids = spec.region_ids()
    top = max(ids)
    if flat.size and (flat.min() < 0 or flat.max() > top):
        # A label outside 0..top is unknown: find every unknown label
        # without a count array as long as the largest one.
        present = np.unique(flat)
    else:
        counts = np.bincount(flat, minlength=top + 1)
        present = np.flatnonzero(counts)
    unknown = set(present.tolist()) - set(ids) - {0}
    if unknown:
        raise ValueError(f"unknown segmentation labels {sorted(unknown)}")
    return RegionVolumes(
        counts={rid: int(counts[rid]) for rid in ids}, tbv=int(flat.size - counts[0])
    )


def mae_tbv(
    predicted: RegionVolumes, actual: RegionVolumes, tbv_first_scan: float
) -> dict[int, float]:
    """100 * |v_pred - v_actual| / tbv_first_scan, per region."""
    if tbv_first_scan <= 0:
        raise ValueError("first-scan TBV must be positive")
    if set(predicted.counts) != set(actual.counts):
        raise ValueError("region sets differ")
    return {
        rid: 100.0 * abs(predicted.counts[rid] - actual.counts[rid]) / tbv_first_scan
        for rid in predicted.counts
    }


def generalized_dice(a: np.ndarray, b: np.ndarray) -> float:
    """Region-weighted Dice with reference weighting w_r = 1/|A_r|^2.

    Labels are non-negative integers (ValueError otherwise); background 0 is
    not a region, and labels absent from both maps are excluded.  A region
    absent only from the reference gets weight 1 (count clamp).  The counts
    come from one joint count of (a, b) label pairs, whose table is square in
    the largest label.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = _labels(a), _labels(b)
    if a.size == 0:
        return 1.0
    if min(a.min(), b.min()) < 0:
        raise ValueError("label maps must hold non-negative labels")
    n = int(max(a.max(), b.max())) + 1
    joint = np.bincount(a.astype(np.intp) * n + b, minlength=n * n).reshape(n, n)
    size_a = joint.sum(axis=1).tolist()
    size_b = joint.sum(axis=0).tolist()
    overlap = joint.diagonal().tolist()
    labels = [lab for lab in range(1, n) if size_a[lab] or size_b[lab]]
    if not labels:
        return 1.0
    num = 0.0
    den = 0.0
    for lab in labels:
        w = 1.0 / max(size_a[lab], 1) ** 2
        num += w * 2.0 * overlap[lab]
        den += w * (size_a[lab] + size_b[lab])
    return num / den


def latent_collinearity(subject_latents) -> float:
    """Share of the total variance of a subject's latent trajectory along its
    first principal component; ValueError for fewer than three scans or one point."""
    if len(subject_latents) < 3:
        raise ValueError("need at least three scans")
    pts = np.stack([np.asarray(p, dtype=np.float64).ravel() for p in subject_latents])
    n = pts.shape[0]
    mean, _, variances = principal_components(pts, 1)
    centered = pts - mean
    total = float(np.sum(centered * centered)) / n
    if total == 0.0:
        raise ValueError("degenerate input: fewer than two distinct points")
    return float((variances[0] / n) / total)


@dataclass
class InterpolationReport:
    alphas: np.ndarray
    counts: dict[str, np.ndarray]  # region name -> counts per alpha
    r2: dict[str, float]
    max_chord_dev: dict[str, float]  # voxels


# Points on the latent segment interpolation_linearity decodes, ends included.
N_ALPHAS = 11


def interpolation_linearity(
    model: AEModel, z1: np.ndarray, z2: np.ndarray, spec: phantom.PhantomSpec
) -> InterpolationReport:
    """Region volumes along the latent segment alpha*z1 + (1-alpha)*z2, at
    N_ALPHAS evenly spaced alphas from 0 to 1.

    Fits counts against alpha by least squares (R^2 = 1 for a constant
    series) and reports the worst deviation from the endpoint chord.
    """
    alphas = np.linspace(0.0, 1.0, N_ALPHAS)
    names = [r.name for r in spec.regions]
    counts = {name: np.empty(N_ALPHAS) for name in names}
    for i, alpha in enumerate(alphas):
        z = alpha * np.asarray(z1, dtype=np.float64) + (1.0 - alpha) * np.asarray(z2, dtype=np.float64)
        seg = phantom.segment_by_intensity(decode(model, z), spec)
        vols = region_volumes(seg, spec)
        for region in spec.regions:
            counts[region.name][i] = vols.counts[region.region_id]

    r2: dict[str, float] = {}
    chord_dev: dict[str, float] = {}
    for name in names:
        y = counts[name]
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            r2[name] = 1.0
        else:
            coef = np.polyfit(alphas, y, 1)
            resid = y - np.polyval(coef, alphas)
            r2[name] = 1.0 - float(np.sum(resid**2)) / ss_tot
        chord = alphas * y[-1] + (1.0 - alphas) * y[0]
        chord_dev[name] = float(np.max(np.abs(y - chord)))
    return InterpolationReport(alphas=alphas, counts=counts, r2=r2, max_chord_dev=chord_dev)


@dataclass
class BetaNormCell:
    mean: float
    count: int
    se: float


@dataclass
class BetaNormTable:
    cells: dict[tuple[str, str], BetaNormCell]  # (diagnosis, bin label)
    overall: dict[str, BetaNormCell]  # diagnosis -> cell


# Width and one left edge, in years, of the rate-norm table's first-scan-age bins.
AGE_BIN_WIDTH = 5.0
AGE_BIN_START = 60.0


def _age_bin(age: float) -> str:
    lo = AGE_BIN_START + int(np.floor((age - AGE_BIN_START) / AGE_BIN_WIDTH)) * AGE_BIN_WIDTH
    return f"[{lo:g},{lo + AGE_BIN_WIDTH:g})"


def _mean_se(values) -> tuple[float, float]:
    """Mean and standard error of a non-empty sequence; the error of one value is 0."""
    arr = np.asarray(values, dtype=np.float64)
    se = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


def _cell(values: list[float]) -> BetaNormCell:
    mean, se = _mean_se(values)
    return BetaNormCell(mean=mean, count=len(values), se=se)


def beta_norm_analysis(subject_betas: list[tuple[np.ndarray, str, float]]) -> BetaNormTable:
    """Mean L1 norm of beta by diagnosis and first-scan-age bin."""
    by_cell: dict[tuple[str, str], list[float]] = {}
    by_diag: dict[str, list[float]] = {}
    for beta, diagnosis, first_age in subject_betas:
        norm = float(np.sum(np.abs(np.asarray(beta, dtype=np.float64))))
        label = _age_bin(first_age)
        by_cell.setdefault((diagnosis, label), []).append(norm)
        by_diag.setdefault(diagnosis, []).append(norm)
    return BetaNormTable(
        cells={key: _cell(vals) for key, vals in by_cell.items()},
        overall={diag: _cell(vals) for diag, vals in by_diag.items()},
    )


def score_forecasts(
    spec: phantom.PhantomSpec, subject: phantom.SubjectRecord, target_idx: int, forecasts
) -> list[MetricsRow]:
    """One row per forecast of a subject's scan, scored against that scan.

    ``forecasts`` is a non-empty list of (source, n_conditioning_scans,
    volume) triples.  The target's segmentation, region volumes and SSIM
    statistics are computed once for all of them.
    """
    ages = subject.ages()
    seg_actual = phantom.segment_oracle(spec, subject.rate_multipliers, ages[target_idx])
    vols_actual = region_volumes(seg_actual, spec)
    first_seg = phantom.segment_oracle(spec, subject.rate_multipliers, ages[0])
    tbv_first = region_volumes(first_seg, spec).tbv
    ssims = ssim3d(subject.scans[target_idx].volume, np.stack([v for _, _, v in forecasts]))
    rows = []
    for (source, n, pred_vol), ssim in zip(forecasts, ssims):
        seg_pred = phantom.segment_by_intensity(pred_vol, spec)
        mae_ids = mae_tbv(region_volumes(seg_pred, spec), vols_actual, tbv_first)
        rows.append(
            MetricsRow(
                subject_id=subject.subject_id,
                source=source,
                n_conditioning_scans=n,
                target_age=float(ages[target_idx]),
                mae={spec.region_by_id(rid).name: val for rid, val in mae_ids.items()},
                ssim=float(ssim),
                dice=float(generalized_dice(seg_actual, seg_pred)),
            )
        )
    return rows


LAST_SCAN = "last-scan"
MULTISCAN = "multiscan"


@dataclass(frozen=True)
class Case:
    """One forecast: a rate from the conditioning scans under one belief
    source, extrapolated from the anchor scan to the target scan's age.

    Scans are indices into the subject's scans, conditioning ones in scan
    order; ``n`` is the number of conditioning scans its row reports.
    """

    protocol: str
    subject_id: str
    target: int
    source: str
    n: int
    conditioning: tuple[int, ...]
    anchor: int

    @property
    def key(self) -> str:
        """``<protocol>/<subject>/<target scan>/<source>/<n>``, its name in predict's files."""
        return f"{self.protocol}/{self.subject_id}/{self.target}/{self.source}/{self.n}"


def last_scan(ages: dict[str, np.ndarray], sources) -> list[Case]:
    """Each subject with two or more scans, conditioned on all but its last
    scan and forecast at the last from the one before, by every source in
    order; regression needs two conditioning scans.  ``ages`` maps each
    subject id to its scan ages."""
    return [
        Case(LAST_SCAN, sid, len(a) - 1, source, len(a) - 1, tuple(range(len(a) - 1)), len(a) - 2)
        for sid, a in ages.items()
        for source in sources
        if len(a) >= 2 and (source != "regression" or len(a) >= 3)
    ]


def _nearest_scan(ages: np.ndarray, target_age: float, candidates) -> int:
    return min(candidates, key=lambda i: abs(ages[i] - target_age))


# The multi-scan protocol's years, counted from a subject's first scan.
ANCHOR_YEAR = 4.0
LAG_YEARS = (1.0, 2.0, 3.0)
MIN_SPAN_YEARS = 6.0


def multiscan_curve(ages: dict[str, np.ndarray], sources) -> list[Case]:
    """Forecasts as intermediate scans are added to the belief.

    Protocol per eligible subject (scan span >= MIN_SPAN_YEARS): the scan
    nearest first + ANCHOR_YEAR anchors every extrapolation; the belief at
    n = 0 is the global prior, and at n >= 1 the posterior conditioned on
    the scans nearest first + 1, 2, ... years, with the likelihood anchored
    at the first scan (the global prior's one conditioning scan).  Regression
    fits the first scan, the lag scans and the anchor.  Targets are all scans
    after the anchor.  Only the cases of ``sources`` are listed, in the
    protocol's order; gaussian_net and diffusion have none.  ``ages`` maps
    each subject id to its scan ages; with no eligible subject the list is
    empty.
    """
    cases: list[Case] = []
    for sid, a in ages.items():
        n_scans = len(a)
        if n_scans < 2 or a[-1] - a[0] < MIN_SPAN_YEARS:
            continue
        anchor = _nearest_scan(a, a[0] + ANCHOR_YEAR, range(1, n_scans))
        if anchor - 1 < len(LAG_YEARS) or anchor == n_scans - 1:
            continue  # too few scans between first and anchor, or no target
        lags: list[int] = []
        for lag in LAG_YEARS:
            lags.append(_nearest_scan(a, a[0] + lag, [i for i in range(1, anchor) if i not in lags]))
        beliefs = [("global_prior", 0, (0,))]
        beliefs += [("posterior", n, (0, *sorted(lags[:n]))) for n in range(1, len(lags) + 1)]
        beliefs.append(("regression", len(lags) + 2, (0, *sorted(lags), anchor)))
        cases += [
            Case(MULTISCAN, sid, target, source, n, conditioning, anchor)
            for target in range(anchor + 1, n_scans)
            for source, n, conditioning in beliefs
            if source in sources
        ]
    return cases


def summarize_rows(rows: list[MetricsRow]) -> dict:
    """Mean and standard error of the overall MAE, grouped by source and n."""
    groups: dict[tuple[str, int], list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.source, row.n_conditioning_scans), []).append(row)
    summary = {}
    for (source, n), members in sorted(groups.items()):
        mean, se = _mean_se([np.mean(list(r.mae.values())) for r in members])
        per_region: dict[str, float] = {}
        for name in members[0].mae:
            per_region[name] = float(np.mean([r.mae[name] for r in members]))
        summary[f"{source}/n={n}"] = {
            "mean_mae": mean,
            "se_mae": se,
            "per_region_mae": per_region,
            "mean_ssim": float(np.mean([r.ssim for r in members])),
            "mean_dice": float(np.mean([r.dice for r in members])),
            "rows": len(members),
        }
    return summary


def write_csv(path, header: list[str], rows) -> None:
    """RFC 4180 CSV (CRLF line endings) with a header row; path is replaced only when complete."""
    with replacing(path, "w", newline="") as fh:
        writer = csv.writer(fh, dialect="excel")
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(rows: list[MetricsRow], path, region_names: list[str]) -> None:
    """One CSV row per (subject, source, n, target age)."""
    header = (
        ["subject_id", "source", "n_conditioning_scans", "target_age"]
        + [f"mae_{name}" for name in region_names]
        + ["ssim", "dice"]
    )
    write_csv(path, header, (
        [row.subject_id, row.source, row.n_conditioning_scans, format(row.target_age, ".10g")]
        + [format(row.mae[name], ".10g") for name in region_names]
        + [format(row.ssim, ".10g"), format(row.dice, ".10g")]
        for row in rows
    ))
