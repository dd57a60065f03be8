"""Geometry, rendering, labeling, and cohort sampling contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latprog import phantom
from latprog.phantom import (
    DEMENTIA,
    HEALTHY,
    MCI,
    Ellipsoid,
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
        default_spec(grid_size=16)


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
