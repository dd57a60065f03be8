"""Geometry, rendering, labeling, and cohort sampling contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latprog import phantom
from latprog.phantom import (
    DEMENTIA,
    HEALTHY,
    MCI,
    Ellipsoid,
    SpherePair,
    default_spec,
    generate_cohort,
    label_diagnosis,
    render_volume,
    segment_by_intensity,
    segment_oracle,
    validate_spec,
)

import oracles


def unit_multipliers(spec):
    return {r.region_id: 1.0 for r in spec.regions}


def test_ellipsoid_count_matches_analytic_volume():
    # soft-edged coverage integrates to the continuous volume
    geom = Ellipsoid(center=(15.5, 15.5, 15.5), radii=(4.0, 5.0, 4.0))
    coords = np.stack(np.meshgrid(*[np.arange(32.0)] * 3, indexing="ij"), axis=0)
    count = geom.coverage(coords).sum()
    expected = oracles.ellipsoid_volume((4.0, 5.0, 4.0))
    assert abs(count - expected) / expected < 0.08


def _assert_matches_dense(spec, mult, age, seed):
    """Rendering and labels inside each shape's box are byte for byte the dense
    full-grid forms."""
    shapes = phantom._scaled_primitives(spec, mult, age)
    intensities = [r.intensity for r in spec.regions]
    want = oracles.render_dense(shapes, intensities, spec.grid_size, spec.noise_sigma, seed)
    assert render_volume(spec, mult, age, seed).tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        segment_oracle(spec, mult, age),
        oracles.segment_dense(shapes, spec.region_ids(), spec.grid_size),
    )


@pytest.mark.parametrize("noise_sigma", [0.005, 0.0])
def test_render_and_labels_equal_the_dense_oracle(noise_sigma):
    spec = default_spec(noise_sigma=noise_sigma)
    _assert_matches_dense(spec, unit_multipliers(spec), 70.0, seed=7)


@pytest.mark.parametrize("age", [55.0, 70.0, 95.0])
def test_render_and_labels_equal_the_dense_oracle_at_the_extremes(spec32, age):
    mult = {r.region_id: spec32.max_multiplier for r in spec32.regions}
    _assert_matches_dense(spec32, mult, age, seed=11)


@settings(max_examples=25, deadline=None)
@given(mults=st.lists(st.floats(0.9, 2.2), min_size=4, max_size=4), age=st.floats(55.0, 95.0),
       seed=st.integers(0, 2**63 - 1), noisy=st.booleans())
def test_render_and_labels_equal_the_dense_oracle_at_random(mults, age, seed, noisy):
    spec = default_spec(noise_sigma=0.005 if noisy else 0.0)
    _assert_matches_dense(spec, dict(zip(spec.region_ids(), mults)), age, seed)


def _assert_box_is_exact(shape, grid_size=32):
    """Dense coverage is exactly 0 outside the shape's box, and inside it the
    box's own coverage is byte for byte the dense one."""
    box = shape.box(grid_size)
    for s in box:
        assert 0 <= s.start and s.stop <= grid_size
    dense = oracles.phantom_coverage(shape, grid_size)
    outside = np.ones(dense.shape, dtype=bool)
    outside[box] = False
    assert not dense[outside].any()
    assert shape.coverage(phantom._grid_coords(box)).tobytes() == dense[box].tobytes()


_centers = st.tuples(*[st.floats(-3.0, 35.0)] * 3)


@settings(max_examples=25, deadline=None)
@given(center=_centers, radii=st.tuples(*[st.floats(0.5, 14.0)] * 3))
@example(center=(0.0, 0.0, -3.0), radii=(0.5, 0.5, 0.5))
def test_ellipsoid_coverage_is_zero_outside_its_box(center, radii):
    _assert_box_is_exact(Ellipsoid(center, radii))


@settings(max_examples=25, deadline=None)
@given(c0=_centers, c1=_centers, radius=st.floats(0.5, 6.0))
@example(c0=(0.0, 0.0, -3.0), c1=(0.0, 0.0, -3.0), radius=0.5)
def test_sphere_pair_coverage_is_zero_outside_its_box(c0, c1, radius):
    _assert_box_is_exact(SpherePair((c0, c1), radius))


@pytest.mark.parametrize("shape", [
    Ellipsoid((1.2, 15.5, 30.6), (4.0, 3.0, 5.0)),
    Ellipsoid((-2.0, 33.0, 15.5), (6.0, 6.5, 5.5)),
    SpherePair(((0.4, 10.0, 12.0), (31.3, 20.0, 12.0)), 2.5),
], ids=["ellipsoid-at-faces", "ellipsoid-past-faces", "sphere-pair-at-faces"])
def test_a_box_clipped_at_the_grid_faces_is_exact(shape):
    box = shape.box(32)
    assert any(s.start == 0 for s in box) and any(s.stop == 32 for s in box)
    _assert_box_is_exact(shape)


def test_a_shape_wholly_past_a_face_gets_an_empty_box():
    # Past the low face the box's stop would be negative, which numpy counts
    # from the end of the axis: the box must be empty there instead.
    shape = SpherePair(((0.0, 0.0, -3.0), (0.0, 0.0, -3.0)), 0.5)
    assert shape.box(32)[2] == slice(0, 0)
    assert Ellipsoid((40.0, 15.0, 15.0), (1.0, 1.0, 1.0)).box(32)[0] == slice(32, 32)


def test_an_elongated_ellipsoid_reaches_past_half_a_voxel():
    # The ramp scales with r_y / r_eff: along y coverage reaches
    # 12 * 0.5 / cbrt(0.8 * 12 * 0.8) = 3.0 voxels past the surface, so a box
    # widened by a flat half voxel, even with a voxel to spare, cuts it off.
    shape = Ellipsoid((15.0, 15.0, 15.0), (0.8, 12.0, 0.8))
    assert oracles.phantom_coverage(shape, 32)[15, 15 + 12 + 3, 15] > 0.0
    _assert_box_is_exact(shape)


def test_intensity_and_oracle_segmentations_agree(spec32):
    spec0 = default_spec(noise_sigma=0.0)
    mult = unit_multipliers(spec0)
    vol = render_volume(spec0, mult, 70.0, seed=0)
    by_int = segment_by_intensity(vol, spec0)
    by_geo = segment_oracle(spec0, mult, 70.0)
    agreement = (by_int == by_geo).mean()
    assert agreement >= 0.99


def test_all_zero_volume_is_background(spec32):
    seg = segment_by_intensity(np.zeros((32, 32, 32)), spec32)
    assert (seg == 0).all()


def _segment_oracle_args(spec):
    return [r.intensity for r in spec.regions], spec.region_ids()


def _edge_values(spec):
    """Each intensity, each midpoint between neighbouring intensities, half
    the lowest (the background threshold) and non-finite values."""
    levels = sorted(r.intensity for r in spec.regions)
    mids = [(lo + hi) / 2.0 for lo, hi in zip(levels, levels[1:])]
    return [*levels, *mids, levels[0] / 2.0, 0.0, np.inf, -np.inf, np.nan]


def test_segmentation_ties_and_threshold_match_argmin(spec32):
    values = np.array(_edge_values(spec32))
    for dtype in (np.float64, np.float32):
        vol = np.resize(values, (4, 4, 4)).astype(dtype)
        got = segment_by_intensity(vol, spec32)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, oracles.segment_argmin(vol, *_segment_oracle_args(spec32)))
    # a midpoint goes to the lower intensity; half the lowest is not background
    assert segment_by_intensity(np.full((1, 1, 1), 0.375), spec32).item() == 1
    assert segment_by_intensity(np.full((1, 1, 1), 0.125), spec32).item() == 1
    assert segment_by_intensity(np.full((1, 1, 1), np.nextafter(0.125, 0)), spec32).item() == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edge_share=st.floats(0.0, 1.0),
       float32=st.booleans())
def test_segmentation_equals_argmin_oracle(spec32, seed, edge_share, float32):
    r = np.random.default_rng(seed)
    vol = r.uniform(-0.2, 1.3, (5, 6, 7))
    edges = np.array(_edge_values(spec32))
    at_edge = r.random(vol.shape) < edge_share
    vol[at_edge] = r.choice(edges, size=int(at_edge.sum()))
    if float32:
        vol = vol.astype(np.float32)
    np.testing.assert_array_equal(
        segment_by_intensity(vol, spec32),
        oracles.segment_argmin(vol, *_segment_oracle_args(spec32)),
    )


def test_render_is_deterministic(spec32):
    mult = unit_multipliers(spec32)
    a = render_volume(spec32, mult, 70.0, seed=5)
    b = render_volume(spec32, mult, 70.0, seed=5)
    assert np.array_equal(a, b)
    c = render_volume(spec32, mult, 70.0, seed=6)
    assert not np.array_equal(a, c)


def test_render_rejects_out_of_range_ages(spec32):
    mult = unit_multipliers(spec32)
    for age in (54.0, 96.0):
        with pytest.raises(ValueError):
            render_volume(spec32, mult, age, seed=0)


def test_small_grid_geometry_overflows():
    # the default geometry needs headroom; 16 voxels is below the floor
    with pytest.raises(ValueError, match="geometry overflow"):
        validate_spec(default_spec(grid_size=16))


def test_region_counts_linear_in_age():
    """Rendered counts track the linear volume targets across a wide span."""
    spec0 = default_spec(noise_sigma=0.0)
    mult = {r.region_id: 2.0 for r in spec0.regions}
    ages = np.linspace(58.0, 88.0, 7)
    for region in spec0.regions:
        counts = []
        for age in ages:
            seg = segment_oracle(spec0, mult, age)
            counts.append((seg == region.region_id).sum())
        counts = np.asarray(counts, dtype=np.float64)
        fit = np.polyfit(ages, counts, 1)
        resid = counts - np.polyval(fit, ages)
        r2 = 1.0 - resid.var() / counts.var()
        assert r2 >= 0.99, f"{region.name}: R^2 = {r2:.4f}"


def test_diagnosis_sequence_labeling():
    assert label_diagnosis([HEALTHY, MCI, HEALTHY]) == MCI
    assert label_diagnosis([HEALTHY, HEALTHY]) == HEALTHY
    assert label_diagnosis([MCI, DEMENTIA]) == DEMENTIA
    assert label_diagnosis([DEMENTIA]) == DEMENTIA


def test_label_diagnosis_rejects_unknown():
    with pytest.raises(ValueError):
        label_diagnosis(["healthy", "unwell"])


class TestGenerateCohort:
    def test_pure_healthy_mix(self, spec32):
        cohort = generate_cohort(
            spec32, 10, seed=0, diagnosis_mix={HEALTHY: 1.0, MCI: 0.0, DEMENTIA: 0.0}
        )
        assert all(s.diagnosis == HEALTHY for s in cohort.subjects)

    def test_single_scan_bounds(self, spec32):
        cohort = generate_cohort(spec32, 6, seed=0, scans_per_subject=(1, 1))
        assert all(len(s.scans) == 1 for s in cohort.subjects)

    def test_subject_label_matches_scan_sequence(self, cohort60):
        for subj in cohort60.subjects:
            seq = [scan.diagnosis_at_scan for scan in subj.scans]
            assert label_diagnosis(seq) == subj.diagnosis

    def test_rate_multiplier_scaling(self, spec32):
        """Dementia multipliers average about twice the healthy ones."""
        cohort = generate_cohort(
            spec32, 100, seed=3,
            diagnosis_mix={HEALTHY: 0.5, MCI: 0.3, DEMENTIA: 0.2},
        )
        means = {}
        for diag in (HEALTHY, DEMENTIA):
            rows = [
                np.mean(list(s.rate_multipliers.values()))
                for s in cohort.subjects
                if s.diagnosis == diag
            ]
            means[diag] = np.mean(rows)
        ratio = means[DEMENTIA] / means[HEALTHY]
        assert abs(ratio - 2.0) / 2.0 < 0.15

    def test_deterministic_given_seed(self, spec32):
        a = generate_cohort(spec32, 4, seed=11)
        b = generate_cohort(spec32, 4, seed=11)
        assert [s.subject_id for s in a.subjects] == [s.subject_id for s in b.subjects]
        for sa, sb in zip(a.subjects, b.subjects):
            assert sa.diagnosis == sb.diagnosis
            assert np.array_equal(sa.ages(), sb.ages())
            for ca, cb in zip(sa.scans, sb.scans):
                assert np.array_equal(ca.volume, cb.volume)

    def test_splits_partition_subjects(self, cohort60):
        names = {s.subject_id for s in cohort60.subjects}
        parts = [
            {s.subject_id for s in cohort60.split(name).subjects}
            for name in ("train", "val", "test")
        ]
        assert set().union(*parts) == names
        assert sum(len(p) for p in parts) == len(names)
        # 0.7/0.1/0.2 of 60
        assert [len(p) for p in parts] == [42, 6, 12]

    def test_scan_ages_increase_within_render_range(self, cohort60):
        for subj in cohort60.subjects:
            ages = subj.ages()
            assert (np.diff(ages) > 0).all()
            assert ages[0] >= 55.0 and ages[-1] <= 95.0

    def test_bad_mix_rejected(self, spec32):
        with pytest.raises(ValueError):
            generate_cohort(spec32, 4, seed=0, diagnosis_mix={HEALTHY: 0.9, MCI: 0.3, DEMENTIA: 0.2})
        with pytest.raises(ValueError):
            generate_cohort(spec32, 4, seed=0, diagnosis_mix={HEALTHY: 1.2, MCI: -0.2, DEMENTIA: 0.0})

    def test_bad_split_fractions_rejected(self, spec32):
        with pytest.raises(ValueError):
            generate_cohort(spec32, 4, seed=0, split_fractions=(0.8, 0.3, 0.2))


def test_validate_spec_accepts_default(spec32):
    validate_spec(spec32)
