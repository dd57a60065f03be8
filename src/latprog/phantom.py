"""Synthetic 3D phantom cohorts with linear-in-age region volumes.

A phantom is a stack of nested geometric primitives painted into a cubic
grid.  Each region's *visible* volume (voxels it keeps after inner regions
are carved out) follows ``base + rate * multiplier * (age - 70)``, so region
volumes are exactly linear in age by construction; the renderer solves for
primitive sizes that realize those targets and scales radii by the cube root
of the volume ratio.

Region nesting is deliberately a chain (shell > interior > ventricle >
hippocampus pair) with canonical intensities in the same order.  Every
geometric boundary therefore sits between two *adjacent* intensity levels,
so partial-volume voxels - in raw renders, reconstructions, and latent
interpolations alike - always blend between the correct pair of regions and
nearest-intensity segmentation never leaks a third label into the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

HEALTHY = "healthy"
MCI = "mci"
DEMENTIA = "dementia"
DIAGNOSES = (HEALTHY, MCI, DEMENTIA)

# Subject rate multipliers by diagnosis, before per-region jitter.
DIAGNOSIS_RATE_SCALE = {HEALTHY: 1.0, MCI: 1.5, DEMENTIA: 2.0}
RATE_JITTER = 0.10

AGE_MIN, AGE_MAX = 55.0, 95.0
AGE_CENTER = 70.0

# Half-width of the linear partial-volume ramp at region boundaries, voxels.
_EDGE_WIDTH = 1.0
# Primitives must keep this margin to the grid faces (soft edge + 1 voxel).
_GRID_MARGIN = 1.5


@dataclass(frozen=True)
class Ellipsoid:
    center: tuple[float, float, float]
    radii: tuple[float, float, float]

    def volume(self) -> float:
        rx, ry, rz = self.radii
        return 4.0 / 3.0 * math.pi * rx * ry * rz

    def scaled(self, factor: float) -> "Ellipsoid":
        return Ellipsoid(self.center, tuple(r * factor for r in self.radii))

    def _signed_distance(self, coords: np.ndarray) -> np.ndarray:
        # Normalized radius, converted to an approximate voxel distance via
        # the mean radius; exact enough for a one-voxel ramp.
        c = np.asarray(self.center).reshape(3, 1, 1, 1)
        r = np.asarray(self.radii).reshape(3, 1, 1, 1)
        rho = np.sqrt(np.sum(((coords - c) / r) ** 2, axis=0))
        r_eff = float(np.cbrt(self.radii[0] * self.radii[1] * self.radii[2]))
        return (rho - 1.0) * r_eff

    def coverage(self, coords: np.ndarray) -> np.ndarray:
        d = self._signed_distance(coords)
        return np.clip(0.5 - d / _EDGE_WIDTH, 0.0, 1.0)

    def contains(self, coords: np.ndarray) -> np.ndarray:
        return self._signed_distance(coords) <= 0.0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c, r = np.asarray(self.center), np.asarray(self.radii)
        return c - r, c + r


@dataclass(frozen=True)
class SpherePair:
    centers: tuple[tuple[float, float, float], tuple[float, float, float]]
    radius: float

    def volume(self) -> float:
        return 2.0 * 4.0 / 3.0 * math.pi * self.radius**3

    def scaled(self, factor: float) -> "SpherePair":
        return SpherePair(self.centers, self.radius * factor)

    def _signed_distance(self, coords: np.ndarray) -> np.ndarray:
        dists = []
        for center in self.centers:
            c = np.asarray(center).reshape(3, 1, 1, 1)
            dists.append(np.sqrt(np.sum((coords - c) ** 2, axis=0)))
        return np.minimum(*dists) - self.radius

    def coverage(self, coords: np.ndarray) -> np.ndarray:
        d = self._signed_distance(coords)
        return np.clip(0.5 - d / _EDGE_WIDTH, 0.0, 1.0)

    def contains(self, coords: np.ndarray) -> np.ndarray:
        return self._signed_distance(coords) <= 0.0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        cs = np.asarray(self.centers)
        return cs.min(axis=0) - self.radius, cs.max(axis=0) + self.radius


Geometry = Ellipsoid | SpherePair


@dataclass(frozen=True)
class RegionSpec:
    region_id: int
    name: str
    geometry: Geometry
    intensity: float  # arbitrary units, background is 0
    volume_rate: float  # visible-volume change per year at multiplier 1


@dataclass(frozen=True)
class PhantomSpec:
    grid_size: int = 32
    regions: tuple[RegionSpec, ...] = ()
    noise_sigma: float = 0.005
    # Worst-case subject multiplier the geometry must survive; used by
    # validate() to probe the age extremes.
    max_multiplier: float = DIAGNOSIS_RATE_SCALE[DEMENTIA] * (1.0 + RATE_JITTER)

    def region_ids(self) -> tuple[int, ...]:
        return tuple(r.region_id for r in self.regions)

    def region_by_id(self, region_id: int) -> RegionSpec:
        for r in self.regions:
            if r.region_id == region_id:
                return r
        raise KeyError(f"no region with id {region_id}")


def default_spec(grid_size: int = 32, noise_sigma: float = 0.005) -> PhantomSpec:
    """Standard four-region phantom sized for a cubic grid.

    Radii scale linearly with the grid; rates scale with its cube so the
    relative volume change per year is grid-independent.  Centers sit off the
    lattice symmetry points and radii are pairwise unequal: a symmetric
    phantom flips whole rings of voxels at once as it scales, which wrecks
    the linearity of voxel counts in age.
    """
    s = grid_size / 32.0
    c = (grid_size - 1) / 2.0
    center = (c + 0.23 * s, c - 0.11 * s, c - 0.17 * s)
    vcenter = (c + 0.41 * s, c - 0.29 * s, c + 0.07 * s)
    v = s**3
    regions = (
        RegionSpec(1, "grey_matter",
                   Ellipsoid(center, (12.53 * s, 13.21 * s, 12.41 * s)),
                   intensity=0.25, volume_rate=-5.0 * v),
        RegionSpec(2, "white_matter",
                   Ellipsoid(center, (9.83 * s, 10.76 * s, 9.72 * s)),
                   intensity=0.50, volume_rate=-6.0 * v),
        RegionSpec(3, "ventricle",
                   Ellipsoid(vcenter, (5.5 * s, 6.1 * s, 5.35 * s)),
                   intensity=0.75, volume_rate=2.5 * v),
        RegionSpec(4, "hippocampus",
                   SpherePair(
                       (
                           (vcenter[0] - 2.6 * s, vcenter[1] + 0.3 * s, vcenter[2] - 0.22 * s),
                           (vcenter[0] + 2.6 * s, vcenter[1] - 0.3 * s, vcenter[2] + 0.22 * s),
                       ),
                       2.35 * s),
                   intensity=1.00, volume_rate=-0.9 * v),
    )
    spec = PhantomSpec(grid_size=grid_size, regions=regions, noise_sigma=noise_sigma)
    validate_spec(spec)
    return spec


@functools.lru_cache(maxsize=8)
def _grid_coords(grid_size: int) -> np.ndarray:
    return np.indices((grid_size,) * 3, dtype=np.float64)


@functools.lru_cache(maxsize=32)
def _parent_indices(spec: PhantomSpec) -> tuple[int, ...]:
    """Immediate parent of each region (index into spec.regions, -1 = background).

    Region order is paint order; a region's parent is the most recent earlier
    region whose primitive contains it, determined on the base geometry.
    """
    coords = _grid_coords(spec.grid_size)
    masks = [r.geometry.contains(coords) for r in spec.regions]
    parents = []
    for i in range(len(spec.regions)):
        parent = -1
        for j in range(i - 1, -1, -1):
            if not np.any(masks[i] & ~masks[j]):
                parent = j
                break
        parents.append(parent)
    return tuple(parents)


def _visible_targets(spec: PhantomSpec, rate_multipliers, age: float) -> list[float]:
    parents = _parent_indices(spec)
    base_prim = [r.geometry.volume() for r in spec.regions]
    base_visible = list(base_prim)
    for i, p in enumerate(parents):
        if p >= 0:
            base_visible[p] -= base_prim[i]
    targets = []
    for r, base in zip(spec.regions, base_visible):
        mult = rate_multipliers[r.region_id]
        targets.append(base + r.volume_rate * mult * (age - AGE_CENTER))
    return targets


def _scaled_primitives(spec: PhantomSpec, rate_multipliers, age: float) -> list[Geometry]:
    """Primitive geometries realizing the visible-volume targets at ``age``."""
    if not (AGE_MIN <= age <= AGE_MAX):
        raise ValueError(f"age {age} outside supported range [{AGE_MIN}, {AGE_MAX}]")
    parents = _parent_indices(spec)
    targets = _visible_targets(spec, rate_multipliers, age)
    for r, t in zip(spec.regions, targets):
        if t <= 0:
            raise ValueError(
                f"region '{r.name}' visible volume {t:.1f} <= 0 at age {age}"
            )
    # Primitive volume = own visible volume + children's primitive volumes;
    # children paint later, so accumulate in reverse paint order.
    prim_vol = list(targets)
    for i in range(len(spec.regions) - 1, -1, -1):
        if parents[i] >= 0:
            prim_vol[parents[i]] += prim_vol[i]
    prims = []
    for r, v in zip(spec.regions, prim_vol):
        factor = (v / r.geometry.volume()) ** (1.0 / 3.0)
        geom = r.geometry.scaled(factor)
        lo, hi = geom.bounds()
        if np.any(lo < _GRID_MARGIN - 0.5) or np.any(hi > spec.grid_size - 0.5 - _GRID_MARGIN):
            raise ValueError(
                f"geometry overflow: region '{r.name}' exceeds grid bounds at age {age}"
            )
        prims.append(geom)
    return prims


def validate_spec(spec: PhantomSpec) -> None:
    """Check intensity separation and geometric consistency at the extremes."""
    if spec.grid_size < 16:
        raise ValueError(f"grid_size {spec.grid_size} < 16")
    if spec.noise_sigma < 0:
        raise ValueError(f"noise_sigma {spec.noise_sigma} < 0")
    if not spec.regions:
        raise ValueError("spec has no regions")
    ids = spec.region_ids()
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate region ids")
    intensities = [r.intensity for r in spec.regions]
    if min(intensities) <= 0:
        raise ValueError("region intensities must be positive (0 is background)")
    levels = sorted([0.0] + intensities)
    min_gap = min(b - a for a, b in zip(levels, levels[1:]))
    if min_gap < 4.0 * spec.noise_sigma:
        raise ValueError(
            f"intensity gap {min_gap:.4f} < 4 * noise_sigma ({4 * spec.noise_sigma:.4f})"
        )
    # Probe worst-case geometry: every region at the fastest rate, both age
    # extremes.  Children must stay inside parents and siblings disjoint.
    coords = _grid_coords(spec.grid_size)
    parents = _parent_indices(spec)
    mults = {r.region_id: spec.max_multiplier for r in spec.regions}
    for age in (AGE_MIN, AGE_MAX):
        prims = _scaled_primitives(spec, mults, age)
        masks = [g.contains(coords) for g in prims]
        for i, p in enumerate(parents):
            if p >= 0 and np.any(masks[i] & ~masks[p]):
                raise ValueError(
                    f"region '{spec.regions[i].name}' escapes its parent at age {age}"
                )
            for j in range(i):
                if parents[j] == p and j != p and np.any(masks[i] & masks[j]):
                    raise ValueError(
                        f"regions '{spec.regions[i].name}' and "
                        f"'{spec.regions[j].name}' overlap at age {age}"
                    )
        for geom in prims:
            if isinstance(geom, SpherePair):
                c0, c1 = np.asarray(geom.centers)
                if np.linalg.norm(c1 - c0) <= 2.0 * geom.radius:
                    raise ValueError(f"sphere pair overlaps itself at age {age}")


def render_volume(
    spec: PhantomSpec, rate_multipliers, age: float, seed
) -> np.ndarray:
    """Render one scan as float32 intensities with soft one-voxel boundaries.

    Deterministic given (spec, rate_multipliers, age, seed).  Painting is
    alpha compositing in region order, so boundary voxels blend between the
    two adjacent regions only.
    """
    coords = _grid_coords(spec.grid_size)
    prims = _scaled_primitives(spec, rate_multipliers, age)
    vol = np.zeros((spec.grid_size,) * 3, dtype=np.float64)
    for region, geom in zip(spec.regions, prims):
        cov = geom.coverage(coords)
        vol = vol * (1.0 - cov) + region.intensity * cov
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        vol = vol + rng.normal(0.0, spec.noise_sigma, vol.shape)
    return vol.astype(np.float32)


def segment_oracle(spec: PhantomSpec, rate_multipliers, age: float) -> np.ndarray:
    """Exact label map from the generating geometry (no intensities involved)."""
    coords = _grid_coords(spec.grid_size)
    prims = _scaled_primitives(spec, rate_multipliers, age)
    labels = np.zeros((spec.grid_size,) * 3, dtype=np.int32)
    for region, geom in zip(spec.regions, prims):
        labels[geom.contains(coords)] = region.region_id
    return labels


def segment_by_intensity(volume: np.ndarray, spec: PhantomSpec) -> np.ndarray:
    """Label each voxel by nearest canonical intensity.

    Voxels below half the minimum region intensity are background.  Intended
    for volumes whose generating geometry is unknown (model outputs).
    """
    if volume.ndim != 3:
        raise ValueError(f"expected a 3D volume, got shape {volume.shape}")
    intensities = np.array([r.intensity for r in spec.regions], dtype=np.float64)
    ids = np.array(spec.region_ids(), dtype=np.int32)
    order = np.argsort(intensities)
    intensities, ids = intensities[order], ids[order]
    vol = np.asarray(volume, dtype=np.float64)
    nearest = np.argmin(np.abs(vol[..., None] - intensities), axis=-1)
    labels = ids[nearest]
    labels[vol < intensities[0] / 2.0] = 0
    return labels.astype(np.int32)


def label_diagnosis(per_scan) -> str:
    """Subject-level diagnosis from per-scan labels.

    Dementia if any scan is dementia; healthy only if no scan is MCI or
    dementia; MCI otherwise.
    """
    per_scan = list(per_scan)
    if not per_scan:
        raise ValueError("empty diagnosis sequence")
    for d in per_scan:
        if d not in DIAGNOSES:
            raise ValueError(f"unknown diagnosis label {d!r}")
    if DEMENTIA in per_scan:
        return DEMENTIA
    if MCI in per_scan:
        return MCI
    return HEALTHY


@dataclass
class ScanRecord:
    subject_id: str
    age: float
    diagnosis_at_scan: str
    seed: int
    volume: np.ndarray | None = None


@dataclass
class SubjectRecord:
    subject_id: str
    diagnosis: str
    rate_multipliers: dict[int, float]
    scans: list[ScanRecord]
    split: str = "train"

    def ages(self) -> np.ndarray:
        return np.array([s.age for s in self.scans], dtype=np.float64)


@dataclass
class Cohort:
    spec: PhantomSpec
    subjects: list[SubjectRecord] = field(default_factory=list)

    def split(self, name: str) -> "Cohort":
        return Cohort(self.spec, [s for s in self.subjects if s.split == name])

    def volumes(self) -> list[np.ndarray]:
        return [scan.volume for s in self.subjects for scan in s.scans]


def _scan_diagnoses(diagnosis: str, n: int, rng: np.random.Generator) -> list[str]:
    # Per-scan labels consistent with the subject label under label_diagnosis.
    if diagnosis == HEALTHY:
        return [HEALTHY] * n
    if diagnosis == MCI:
        m = int(rng.integers(0, n))
        return [HEALTHY] * m + [MCI] * (n - m)
    d = int(rng.integers(0, n))
    m = int(rng.integers(0, d + 1))
    return [HEALTHY] * m + [MCI] * (d - m) + [DEMENTIA] * (n - d)


def generate_cohort(
    spec: PhantomSpec,
    n_subjects: int,
    *,
    scans_per_subject: tuple[int, int] = (2, 6),
    age_spacing: tuple[float, float] = (0.8, 1.3),
    baseline_age_range: tuple[float, float] = (60.0, 85.0),
    diagnosis_mix: dict[str, float] | None = None,
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> Cohort:
    """Sample a longitudinal cohort; deterministic given the seed.

    Each subject gets a diagnosis from ``diagnosis_mix``, per-region rate
    multipliers (diagnosis scale with +-10% jitter), irregular scan ages, and
    rendered volumes.  Subjects are split train/val/test disjointly.
    """
    if diagnosis_mix is None:
        diagnosis_mix = {HEALTHY: 0.6, MCI: 0.25, DEMENTIA: 0.15}
    probs = np.array([diagnosis_mix.get(d, 0.0) for d in DIAGNOSES], dtype=np.float64)
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"diagnosis mix {diagnosis_mix} must be >= 0 and sum to 1")
    if sum(split_fractions) > 1.0 + 1e-9 or any(f < 0 for f in split_fractions):
        raise ValueError(f"bad split fractions {split_fractions}")
    validate_spec(spec)

    root = np.random.SeedSequence(seed)
    split_seq, *subject_seqs = root.spawn(n_subjects + 1)
    subjects = []
    for i, seq in enumerate(subject_seqs):
        rng = np.random.default_rng(seq)
        diagnosis = DIAGNOSES[rng.choice(len(DIAGNOSES), p=probs)]
        scale = DIAGNOSIS_RATE_SCALE[diagnosis]
        mults = {
            r.region_id: scale * rng.uniform(1.0 - RATE_JITTER, 1.0 + RATE_JITTER)
            for r in spec.regions
        }
        n_scans = int(rng.integers(scans_per_subject[0], scans_per_subject[1] + 1))
        baseline = rng.uniform(*baseline_age_range)
        gaps = rng.uniform(age_spacing[0], age_spacing[1], size=n_scans - 1)
        ages = baseline + np.concatenate([[0.0], np.cumsum(gaps)])
        labels = _scan_diagnoses(diagnosis, n_scans, rng)
        subject_id = f"sub-{i:04d}"
        scans = []
        for age, label in zip(ages, labels):
            scan_seed = int(rng.integers(0, 2**63 - 1))
            scans.append(
                ScanRecord(
                    subject_id=subject_id,
                    age=float(age),
                    diagnosis_at_scan=label,
                    seed=scan_seed,
                    volume=render_volume(spec, mults, float(age), scan_seed),
                )
            )
        subjects.append(
            SubjectRecord(
                subject_id=subject_id,
                diagnosis=diagnosis,
                rate_multipliers=mults,
                scans=scans,
            )
        )

    split_rng = np.random.default_rng(split_seq)
    order = split_rng.permutation(n_subjects)
    n_train = int(round(split_fractions[0] * n_subjects))
    n_val = int(round(split_fractions[1] * n_subjects))
    for rank, idx in enumerate(order):
        if rank < n_train:
            subjects[idx].split = "train"
        elif rank < n_train + n_val:
            subjects[idx].split = "val"
        else:
            subjects[idx].split = "test"
    return Cohort(spec=spec, subjects=subjects)
