"""Synthetic 3D phantom cohorts with linear-in-age region volumes.

A phantom is a stack of nested geometric primitives painted into a cubic
grid.  Each region's *visible* volume (voxels it keeps after inner regions
are carved out) follows ``base + rate * multiplier * (age - 70)``, so region
volumes are exactly linear in age by construction; the renderer solves for
primitive sizes that realize those targets and scales radii by the cube root
of the volume ratio.

Region nesting is deliberately a chain (shell > interior > ventricle >
hippocampus pair): region i lies inside region i-1, which is its only
parent, and ``validate_spec`` refuses a spec that breaks the chain.  The
canonical intensities rise in the same order.  Every
geometric boundary therefore sits between two *adjacent* intensity levels,
so partial-volume voxels - in raw renders, reconstructions, and latent
interpolations alike - always blend between the correct pair of regions and
nearest-intensity segmentation never leaks a third label into the boundary.
"""

from __future__ import annotations

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


def _norm(coords, center, scale) -> np.ndarray:
    """Euclidean norm of ``(coords - center) / scale``, adding the axes in order."""
    x, y, z = (((a - c) / s) ** 2 for a, c, s in zip(coords, center, scale))
    return np.sqrt(x + y + z)


class _Shape:
    """Soft and hard membership from a subclass's ``_signed_distance`` (voxels, < 0
    inside) at ``coords``, three broadcastable axis arrays (an open or a dense grid)."""

    def coverage(self, coords) -> np.ndarray:
        d = self._signed_distance(coords)
        return np.clip(0.5 - d / _EDGE_WIDTH, 0.0, 1.0)

    def contains(self, coords) -> np.ndarray:
        return self._signed_distance(coords) <= 0.0

    def box(self, grid_size: int) -> tuple[slice, slice, slice]:
        """Voxel slices, clipped to the grid, outside which coverage is exactly 0: it
        is 0 from ``_reach()`` past ``bounds()``, and rounding outwards spares a voxel.
        A shape wholly past a face gets an empty slice there, never a negative stop,
        which numpy would count from the end of the axis."""
        (lo, hi), reach = self.bounds(), self._reach()
        start = np.clip(np.floor(lo - reach), 0, grid_size).astype(int)
        stop = np.clip(np.ceil(hi + reach) + 1, start, grid_size).astype(int)
        return tuple(slice(a, b) for a, b in zip(start, stop))


@dataclass(frozen=True)
class Ellipsoid(_Shape):
    center: tuple[float, float, float]
    radii: tuple[float, float, float]

    def volume(self) -> float:
        rx, ry, rz = self.radii
        return 4.0 / 3.0 * math.pi * rx * ry * rz

    def scaled(self, factor: float) -> "Ellipsoid":
        return Ellipsoid(self.center, tuple(r * factor for r in self.radii))

    def _r_eff(self) -> float:
        return float(np.cbrt(self.radii[0] * self.radii[1] * self.radii[2]))

    def _signed_distance(self, coords) -> np.ndarray:
        # Normalized radius, converted to an approximate voxel distance via
        # the mean radius; exact enough for a one-voxel ramp.
        return (_norm(coords, self.center, self.radii) - 1.0) * self._r_eff()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c, r = np.asarray(self.center), np.asarray(self.radii)
        return c - r, c + r

    def _reach(self) -> np.ndarray:
        # Past r_i + reach_i along axis i the normalized radius exceeds
        # 1 + reach_i / r_i, so the distance exceeds half the edge width.
        return np.asarray(self.radii) * (0.5 * _EDGE_WIDTH / self._r_eff())


@dataclass(frozen=True)
class SpherePair(_Shape):
    centers: tuple[tuple[float, float, float], tuple[float, float, float]]
    radius: float

    def volume(self) -> float:
        return 2.0 * 4.0 / 3.0 * math.pi * self.radius**3

    def scaled(self, factor: float) -> "SpherePair":
        return SpherePair(self.centers, self.radius * factor)

    def _signed_distance(self, coords) -> np.ndarray:
        dists = [_norm(coords, center, (1.0, 1.0, 1.0)) for center in self.centers]
        return np.minimum(*dists) - self.radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        cs = np.asarray(self.centers)
        return cs.min(axis=0) - self.radius, cs.max(axis=0) + self.radius

    def _reach(self) -> float:
        return 0.5 * _EDGE_WIDTH


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
    the linearity of voxel counts in age.  The spec is not validated here:
    ``generate_cohort`` validates the spec it is given.
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
    return PhantomSpec(grid_size=grid_size, regions=regions, noise_sigma=noise_sigma)


def _grid_coords(box) -> tuple[np.ndarray, ...]:
    """The voxel coordinates of a box of slices as an open grid: three broadcastable axis arrays."""
    return np.ix_(*(np.arange(s.start, s.stop, dtype=np.float64) for s in box))


def _visible_targets(spec: PhantomSpec, rate_multipliers, age: float) -> list[float]:
    # A region's base visible volume is its primitive less the next region's.
    base_prim = [r.geometry.volume() for r in spec.regions]
    base_visible = [v - inner for v, inner in zip(base_prim, base_prim[1:])] + base_prim[-1:]
    targets = []
    for r, base in zip(spec.regions, base_visible):
        mult = rate_multipliers[r.region_id]
        targets.append(base + r.volume_rate * mult * (age - AGE_CENTER))
    return targets


def _scaled_primitives(spec: PhantomSpec, rate_multipliers, age: float) -> list[Geometry]:
    """Primitive geometries realizing the visible-volume targets at ``age``."""
    if not (AGE_MIN <= age <= AGE_MAX):
        raise ValueError(f"age {age} outside supported range [{AGE_MIN}, {AGE_MAX}]")
    targets = _visible_targets(spec, rate_multipliers, age)
    for r, t in zip(spec.regions, targets):
        if t <= 0:
            raise ValueError(
                f"region '{r.name}' visible volume {t:.1f} <= 0 at age {age}"
            )
    # Primitive volume = own visible volume + the next region's primitive
    # volume; accumulate from the innermost region outwards.
    prim_vol = list(targets)
    for i in range(len(spec.regions) - 1, 0, -1):
        prim_vol[i - 1] += prim_vol[i]
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
    # extremes.  Each region must stay inside the one before it.
    coords = _grid_coords((slice(0, spec.grid_size),) * 3)
    mults = {r.region_id: spec.max_multiplier for r in spec.regions}
    for age in (AGE_MIN, AGE_MAX):
        prims = _scaled_primitives(spec, mults, age)
        masks = [g.contains(coords) for g in prims]
        for i in range(1, len(masks)):
            if np.any(masks[i] & ~masks[i - 1]):
                raise ValueError(
                    f"region '{spec.regions[i].name}' escapes its parent at age {age}"
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
    two adjacent regions only.  Each region is painted inside its box only:
    outside it, coverage 0 would leave each voxel as it is.
    """
    prims = _scaled_primitives(spec, rate_multipliers, age)
    vol = np.zeros((spec.grid_size,) * 3, dtype=np.float64)
    for region, geom in zip(spec.regions, prims):
        box = geom.box(spec.grid_size)
        cov = geom.coverage(_grid_coords(box))
        vol[box] = vol[box] * (1.0 - cov) + region.intensity * cov
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        vol = vol + rng.normal(0.0, spec.noise_sigma, vol.shape)
    return vol.astype(np.float32)


def segment_oracle(spec: PhantomSpec, rate_multipliers, age: float) -> np.ndarray:
    """Exact label map from the generating geometry (no intensities involved)."""
    prims = _scaled_primitives(spec, rate_multipliers, age)
    labels = np.zeros((spec.grid_size,) * 3, dtype=np.int32)
    for region, geom in zip(spec.regions, prims):
        box = geom.box(spec.grid_size)
        labels[box][geom.contains(_grid_coords(box))] = region.region_id
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
    # Running first minimum over ascending intensities: a tie keeps the
    # lower intensity, as argmin over all distances would.
    labels = np.full(vol.shape, ids[0], dtype=np.int32)
    best = np.abs(vol - intensities[0])
    for intensity, rid in zip(intensities[1:], ids[1:]):
        dist = np.abs(vol - intensity)
        labels[dist < best] = rid
        np.minimum(best, dist, out=best)
    labels[vol < intensities[0] / 2.0] = 0
    return labels


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


DEFAULT_DIAGNOSIS_MIX = {HEALTHY: 0.6, MCI: 0.25, DEMENTIA: 0.15}


def _diagnosis_probs(diagnosis_mix: dict[str, float] | None) -> np.ndarray:
    mix = DEFAULT_DIAGNOSIS_MIX if diagnosis_mix is None else diagnosis_mix
    return np.array([mix.get(d, 0.0) for d in DIAGNOSES], dtype=np.float64)


def check_cohort_args(
    scans_per_subject: tuple[int, int],
    age_spacing: tuple[float, float],
    baseline_age_range: tuple[float, float],
    diagnosis_mix: dict[str, float] | None,
    split_fractions: tuple[float, float, float],
) -> None:
    """Raise ValueError unless ``generate_cohort`` can sample these arguments.

    The message starts with the argument's name.  Every scan must fall in
    [AGE_MIN, AGE_MAX], where the phantom renders: the oldest possible scan
    is the latest baseline plus the most gaps at the widest spacing.
    """
    (scans_lo, scans_hi), (gap_lo, gap_hi) = scans_per_subject, age_spacing
    base_lo, base_hi = baseline_age_range
    if not 1 <= scans_lo <= scans_hi:
        raise ValueError(f"scans_per_subject: need 1 <= low <= high, got {scans_per_subject}")
    if not 0 < gap_lo <= gap_hi:
        raise ValueError(f"age_spacing: need 0 < low <= high, got {age_spacing}")
    if not AGE_MIN <= base_lo <= base_hi:
        raise ValueError(
            f"baseline_age_range: need {AGE_MIN} <= low <= high, got {baseline_age_range}"
        )
    oldest = base_hi + (scans_hi - 1) * gap_hi
    if oldest > AGE_MAX:
        raise ValueError(
            f"baseline_age_range: the oldest possible scan, {base_hi} + {scans_hi - 1} gaps of "
            f"{gap_hi}, is at {oldest:g}, past {AGE_MAX}"
        )
    unknown = sorted(set(diagnosis_mix or ()) - set(DIAGNOSES))
    if unknown:
        raise ValueError(f"diagnosis_mix: unknown diagnosis {unknown[0]!r}; one of {DIAGNOSES}")
    probs = _diagnosis_probs(diagnosis_mix)
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"diagnosis_mix: {diagnosis_mix} must be >= 0 and sum to 1")
    if sum(split_fractions) > 1.0 + 1e-9 or any(f < 0 for f in split_fractions):
        raise ValueError(f"split_fractions: bad split fractions {split_fractions}")


def sample_cohort(
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
    """Sample a longitudinal cohort's subject table; deterministic given the seed.

    Each subject gets a diagnosis from ``diagnosis_mix``, per-region rate
    multipliers (diagnosis scale with +-10% jitter) and irregular scan ages;
    each scan gets a noise seed.  Subjects are split train/val/test
    disjointly.  No volume is rendered: each scan's is the pure function
    :func:`render_scan` of its row.  The arguments must pass
    :func:`check_cohort_args`, and the spec :func:`validate_spec`.
    """
    check_cohort_args(scans_per_subject, age_spacing, baseline_age_range, diagnosis_mix,
                      split_fractions)
    probs = _diagnosis_probs(diagnosis_mix)
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
        scans = [
            ScanRecord(
                subject_id=subject_id,
                age=float(age),
                diagnosis_at_scan=label,
                seed=int(rng.integers(0, 2**63 - 1)),
            )
            for age, label in zip(ages, labels)
        ]
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


def render_scan(spec: PhantomSpec, subject: SubjectRecord, scan: ScanRecord) -> np.ndarray:
    """The volume of one scan of a subject, rendered from its table row."""
    return render_volume(spec, subject.rate_multipliers, scan.age, scan.seed)


def generate_cohort(spec: PhantomSpec, n_subjects: int, **kwargs) -> Cohort:
    """:func:`sample_cohort` with every scan's volume rendered and held.

    Takes the same arguments.  The whole cohort is in memory at once; to
    write one to disk, ``manifest.save_cohort`` of the sampled table renders
    one scan at a time instead.
    """
    cohort = sample_cohort(spec, n_subjects, **kwargs)
    for subject in cohort.subjects:
        for scan in subject.scans:
            scan.volume = render_scan(spec, subject, scan)
    return cohort
