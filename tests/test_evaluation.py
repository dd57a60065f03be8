"""Segmentation metrics, trajectory geometry, rate-norm tables, and the scan-count protocol."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from latprog import phantom
from latprog.autoencoder import AEConfig, decode, init_model
from latprog.evaluation import (
    N_ALPHAS,
    BetaNormTable,
    MetricsRow,
    RegionVolumes,
    beta_norm_analysis,
    generalized_dice,
    interpolation_linearity,
    last_scan,
    latent_collinearity,
    mae_tbv,
    multiscan_curve,
    region_volumes,
    score_forecasts,
    summarize_rows,
    write_metrics_csv,
)
from latprog.progression import BELIEF_SOURCES


# -------------------------------------------------------------- region counts


def test_region_volumes_all_background(spec32):
    vols = region_volumes(np.zeros((6, 6, 6), dtype=np.int32), spec32)
    assert vols.tbv == 0
    assert set(vols.counts) == set(spec32.region_ids())
    assert all(v == 0 for v in vols.counts.values())


def test_region_volumes_counts_labels(spec32):
    seg = np.zeros((4, 4, 4), dtype=np.int32)
    seg.ravel()[:10] = spec32.region_ids()[0]
    vols = region_volumes(seg, spec32)
    assert vols.counts[spec32.region_ids()[0]] == 10
    assert vols.tbv == 10
    assert sum(vols.counts.values()) == 10


def test_region_volumes_rejects_unknown_label(spec32):
    seg = np.zeros((3, 3, 3), dtype=np.int32)
    seg[0, 0, 0] = 9
    with pytest.raises(ValueError, match=r"unknown segmentation labels \[9\]"):
        region_volumes(seg, spec32)


def test_region_volumes_match_oracle_segmentation(spec32):
    mult = {rid: 1.0 for rid in spec32.region_ids()}
    seg = phantom.segment_oracle(spec32, mult, 70.0)
    vols = region_volumes(seg, spec32)
    for rid, count in vols.counts.items():
        assert count == int(np.count_nonzero(seg == rid))
    assert vols.tbv == sum(vols.counts.values())  # regions are disjoint


def test_region_volumes_rejects_negative_label(spec32):
    seg = np.zeros((3, 3, 3), dtype=np.int32)
    seg[1, 1, 1] = -1
    seg[2, 2, 2] = 9
    with pytest.raises(ValueError, match=r"unknown segmentation labels \[-1, 9\]"):
        region_volumes(seg, spec32)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), top=st.integers(0, 6), low=st.integers(-2, 0))
def test_region_volumes_equal_unique_oracle(spec32, seed, top, low):
    """Counts equal np.unique's and masks'; a map with labels outside the
    phantom's ids raises the oracle's message."""
    seg = np.random.default_rng(seed).integers(low, top + 1, (5, 6, 7)).astype(np.int32)
    try:
        want = oracles.region_counts_unique(seg, spec32.region_ids())
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            region_volumes(seg, spec32)
        return
    vols = region_volumes(seg, spec32)
    assert (vols.counts, vols.tbv) == want


# ---------------------------------------------------------------------- mae


def make_vols(counts):
    return RegionVolumes(counts=counts, tbv=sum(counts.values()))


def test_mae_zero_for_identical():
    vols = make_vols({1: 100, 2: 50})
    assert mae_tbv(vols, vols, 150.0) == {1: 0.0, 2: 0.0}


def test_mae_hand_values_and_symmetry():
    pred = make_vols({1: 110, 2: 240})
    act = make_vols({1: 100, 2: 250})
    out = mae_tbv(pred, act, 200.0)
    assert out == {1: 5.0, 2: 5.0}
    assert mae_tbv(act, pred, 200.0) == out


def test_mae_input_validation():
    with pytest.raises(ValueError, match="region sets"):
        mae_tbv(make_vols({1: 5}), make_vols({2: 5}), 10.0)
    with pytest.raises(ValueError, match="positive"):
        mae_tbv(make_vols({1: 5}), make_vols({1: 5}), 0.0)


# --------------------------------------------------------------------- dice


def test_dice_identical_maps():
    seg = np.array([[1, 1, 2], [0, 2, 2]])
    assert generalized_dice(seg, seg) == 1.0


def test_dice_disjoint_maps():
    a = np.array([1, 1, 0, 0])
    b = np.array([0, 0, 1, 1])
    assert generalized_dice(a, b) == 0.0


def test_dice_half_overlap():
    # equal-size single label sharing one of two voxels
    a = np.array([1, 1, 0, 0])
    b = np.array([1, 0, 1, 0])
    assert generalized_dice(a, b) == pytest.approx(0.5)


def test_dice_both_empty_is_one():
    assert generalized_dice(np.zeros((2, 2)), np.zeros((2, 2))) == 1.0


def test_dice_reference_weighting():
    # w = 1/|A_r|^2 makes the small region count as much as the large one
    a = np.array([1, 1, 1, 1, 2, 0, 0, 0, 0])
    b = np.array([1, 1, 0, 0, 0, 1, 1, 2, 0])
    # label 1: w=1/16, inter 2, sizes 4+4; label 2: w=1, inter 0, sizes 1+1
    expect = (2.0 * 2 / 16) / (8 / 16 + 2)
    assert generalized_dice(a, b) == pytest.approx(expect, rel=1e-12)


def test_dice_label_missing_from_reference():
    a = np.zeros(4, dtype=int)
    b = np.array([3, 0, 0, 0])
    assert generalized_dice(a, b) == 0.0


def test_dice_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        generalized_dice(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("a, b", [
    (np.array([1, -1, 0]), np.array([1, 1, 0])),
    (np.array([1, 1, 0]), np.array([0, -2, 0])),
    (np.array([1.0, 0.5, 0.0]), np.array([1.0, 1.0, 0.0])),
    (np.array([1.0, 1.0, 0.0]), np.array([np.nan, 1.0, 0.0])),
    (np.array([np.inf, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])),
], ids=["negative-reference", "negative-prediction", "non-integral", "nan", "inf"])
def test_dice_refuses_labels_that_are_not_non_negative_integers(a, b):
    with pytest.raises(ValueError, match="label"):
        generalized_dice(a, b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(1, 7),
       agree=st.floats(0.0, 1.0), as_float=st.booleans())
def test_dice_equals_mask_oracle(seed, n_labels, agree, as_float):
    """Bit-equal to the per-label mask loop, on maps that share a chosen share of voxels."""
    r = np.random.default_rng(seed)
    a = r.integers(0, n_labels, (4, 5, 6))
    b = np.where(r.random(a.shape) < agree, a, r.integers(0, n_labels, a.shape))
    if as_float:
        a, b = a.astype(np.float64), b.astype(np.float32)
    assert generalized_dice(a, b) == oracles.dice_masks(a, b)


# ------------------------------------------------------------- collinearity


def test_pca_line_explains_everything():
    t = np.linspace(-2.0, 3.0, 7)
    d = np.array([1.0, -2.0, 0.5])
    assert latent_collinearity([ti * d for ti in t]) == pytest.approx(1.0, abs=1e-9)


def test_pca_matches_eigensolver():
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 1.0, (50, 256)) * np.linspace(0.2, 3.0, 256)

    centered = pts - pts.mean(axis=0)
    w = np.linalg.eigvalsh(centered.T @ centered / pts.shape[0])
    assert latent_collinearity(list(pts)) == pytest.approx(w[-1] / w.sum(), rel=1e-9)


def test_pca_square_corners_split_evenly():
    pts = [np.array([x, y, 0.0]) for x in (-1.0, 1.0) for y in (-1.0, 1.0)]
    assert latent_collinearity(pts) == pytest.approx(0.5, abs=1e-12)


def test_pca_degenerate_inputs():
    with pytest.raises(ValueError, match="degenerate"):
        latent_collinearity([np.ones(3), np.ones(3), np.ones(3)])


def test_collinearity_exact_line():
    z0 = np.arange(16.0).reshape(2, 2, 2, 2)
    beta = np.full((2, 2, 2, 2), 0.3)
    lats = [z0 + beta * t for t in (0.0, 1.5, 2.0, 4.0)]
    assert latent_collinearity(lats) == pytest.approx(1.0, abs=1e-9)


def test_collinearity_needs_three_scans():
    with pytest.raises(ValueError, match="three"):
        latent_collinearity([np.zeros(4), np.ones(4)])


# ------------------------------------------------------------- interpolation


def test_interpolation_constant_series_convention(tiny_model, spec32):
    z = np.random.default_rng(3).normal(0.0, 1.0, tiny_model.n_latent)
    report = interpolation_linearity(tiny_model, z, z, spec32)
    np.testing.assert_allclose(report.alphas, np.linspace(0.0, 1.0, N_ALPHAS))
    for name in report.r2:
        assert report.r2[name] == 1.0
        # the chord at the interior alphas rounds, 11 points: 3.6e-15 voxels
        assert report.max_chord_dev[name] == pytest.approx(0.0, abs=1e-9)
        assert report.counts[name].shape == (N_ALPHAS,)
    assert set(report.r2) == {r.name for r in spec32.regions}


def test_interpolation_endpoints_match_direct_decode(tiny_model, spec32):
    rng = np.random.default_rng(8)
    z1 = rng.normal(0.0, 1.0, tiny_model.n_latent)
    z2 = rng.normal(0.0, 1.0, tiny_model.n_latent)
    report = interpolation_linearity(tiny_model, z1, z2, spec32)
    # alpha = 0 decodes z2, alpha = 1 decodes z1
    for z, pos in ((z2, 0), (z1, -1)):
        seg = phantom.segment_by_intensity(decode(tiny_model, z), spec32)
        vols = region_volumes(seg, spec32)
        for region in spec32.regions:
            assert report.counts[region.name][pos] == vols.counts[region.region_id]


# ----------------------------------------------------------- beta-norm table


def test_beta_norm_single_subject():
    table = beta_norm_analysis([(np.zeros((2, 2)), "healthy", 62.0)])
    cell = table.overall["healthy"]
    assert (cell.mean, cell.count, cell.se) == (0.0, 1, 0.0)
    assert list(table.cells) == [("healthy", "[60,65)")]


def test_beta_norm_bins_extend_below_start():
    table = beta_norm_analysis([(np.ones(2), "MCI", 57.0)])
    assert oracles.bin_labels(table) == ["[55,60)"]


def test_beta_norm_hand_stats():
    rows = [
        (np.array([1.0, 0.0]), "dementia", 61.0),
        (np.array([-3.0, 0.0]), "dementia", 63.0),
        (np.array([0.5, 0.5]), "healthy", 72.0),
    ]
    table = beta_norm_analysis(rows)
    cell = table.cells[("dementia", "[60,65)")]
    assert cell.mean == pytest.approx(2.0)
    assert cell.count == 2
    assert cell.se == pytest.approx(np.std([1.0, 3.0], ddof=1) / np.sqrt(2))
    assert table.cells[("healthy", "[70,75)")].count == 1
    assert table.overall["dementia"].mean == pytest.approx(2.0)
    assert oracles.bin_labels(table) == ["[60,65)", "[70,75)"]


# ----------------------------------------------------------------- summaries


def test_summarize_rows_hand_computation():
    def row(sid, source, n, mae):
        return MetricsRow(sid, source, n, 70.0, mae, ssim=0.9, dice=0.8)

    rows = [
        row("a", "posterior", 2, {"gm": 1.0, "wm": 3.0}),
        row("b", "posterior", 2, {"gm": 3.0, "wm": 5.0}),
        row("a", "global_prior", 0, {"gm": 2.0, "wm": 2.0}),
    ]
    summary = summarize_rows(rows)
    post = summary["posterior/n=2"]
    assert post["mean_mae"] == pytest.approx(3.0)
    assert post["se_mae"] == pytest.approx(1.0)
    assert post["per_region_mae"] == {"gm": 2.0, "wm": 4.0}
    assert post["rows"] == 2
    assert summary["global_prior/n=0"]["se_mae"] == 0.0


def test_metrics_row_validation():
    with pytest.raises(ValueError, match="negative"):
        MetricsRow("s", "posterior", 1, 70.0, {"gm": -0.1}, 0.9, 0.5)
    with pytest.raises(ValueError, match="dice"):
        MetricsRow("s", "posterior", 1, 70.0, {"gm": 0.1}, 0.9, 1.5)


def test_metrics_csv_golden_bytes(tmp_path):
    rows = [
        MetricsRow("s1", "posterior", 2, 74.5, {"gm": 0.5, "wm": 1.25}, 0.875, 0.9375),
        MetricsRow("s2", "global_prior", 0, 80.0, {"gm": 0.1015625, "wm": 2.0}, 0.5, 1.0),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path, ["gm", "wm"])
    expect = (
        b"subject_id,source,n_conditioning_scans,target_age,mae_gm,mae_wm,ssim,dice\r\n"
        b"s1,posterior,2,74.5,0.5,1.25,0.875,0.9375\r\n"
        b"s2,global_prior,0,80,0.1015625,2,0.5,1\r\n"
    )
    assert path.read_bytes() == expect


# ------------------------------------------------------- scan-count protocol


@pytest.fixture(scope="module")
def protocol_cohort(spec32):
    # seven scans a year-and-change apart: anchor lands on index 4, three
    # intermediate scans serve as lags, two scans remain as targets
    return phantom.generate_cohort(
        spec32,
        3,
        scans_per_subject=(7, 7),
        age_spacing=(1.0, 1.1),
        baseline_age_range=(62.0, 70.0),
        seed=19,
    )


@pytest.fixture(scope="module")
def flat_model(spec32):
    return init_model(AEConfig(init="zeros"), (spec32.grid_size,) * 3)


def _ages(cohort):
    return {s.subject_id: s.ages() for s in cohort.subjects}


def test_multiscan_curve_row_structure(protocol_cohort, flat_model):
    cases = multiscan_curve(_ages(protocol_cohort), BELIEF_SOURCES)
    # the all-zero model decodes every latent to one volume
    volume = decode(flat_model, np.zeros(flat_model.n_latent))
    rows = []
    for subject in protocol_cohort.subjects:
        for target in (5, 6):
            rows += score_forecasts(protocol_cohort.spec, subject, target, [
                (c.source, c.n, volume)
                for c in cases if (c.subject_id, c.target) == (subject.subject_id, target)
            ])
    summary = summarize_rows(rows)

    assert len(rows) == 3 * 2 * 5  # subjects x targets x sources
    assert {r.source for r in rows} == {"global_prior", "posterior", "regression"}
    assert {r.n_conditioning_scans for r in rows} == {0, 1, 2, 3, 5}
    region_names = {r.name for r in protocol_cohort.spec.regions}
    for row in rows:
        assert set(row.mae) == region_names

    # each subject's targets fall strictly after its anchor scan
    by_subject = {s.subject_id: s for s in protocol_cohort.subjects}
    for row in rows:
        assert row.target_age > by_subject[row.subject_id].ages()[4]

    for key in ("global_prior/n=0", "posterior/n=1", "posterior/n=2",
                "posterior/n=3", "regression/n=5"):
        assert summary[key]["rows"] == 6


def test_multiscan_cases_name_the_protocol_scans(protocol_cohort):
    """Lags 1-3 are scans 1-3, the anchor scan 4; the posterior anchors its
    likelihood at scan 0 and regression fits scans 0-4."""
    cases = multiscan_curve(_ages(protocol_cohort), BELIEF_SOURCES)
    sid = protocol_cohort.subjects[0].subject_id
    assert [(c.target, c.source, c.n, c.conditioning, c.anchor)
            for c in cases if c.subject_id == sid and c.target == 5] == [
        (5, "global_prior", 0, (0,), 4),
        (5, "posterior", 1, (0, 1), 4),
        (5, "posterior", 2, (0, 1, 2), 4),
        (5, "posterior", 3, (0, 1, 2, 3), 4),
        (5, "regression", 5, (0, 1, 2, 3, 4), 4),
    ]
    assert len({c.key for c in cases}) == len(cases)


def test_last_scan_cases():
    ages = {"a": np.array([70.0, 71.0, 72.5]), "b": np.array([60.0, 61.0]), "c": np.array([80.0])}
    cases = last_scan(ages, ("regression", "posterior"))
    assert [(c.subject_id, c.source, c.n, c.conditioning, c.anchor, c.target) for c in cases] == [
        ("a", "regression", 2, (0, 1), 1, 2),
        ("a", "posterior", 2, (0, 1), 1, 2),
        ("b", "posterior", 1, (0,), 0, 1),  # regression needs two conditioning scans
    ]
    assert cases[0].key == "last-scan/a/2/regression/2"


def test_multiscan_curve_requires_eligible_subjects(spec32):
    short = phantom.generate_cohort(
        spec32, 3, scans_per_subject=(2, 3), age_spacing=(0.8, 1.0), seed=2
    )
    assert multiscan_curve(_ages(short), BELIEF_SOURCES) == []


def test_multiscan_curve_lists_only_the_configured_sources(protocol_cohort):
    """The protocol's beliefs are the global prior, the posterior and
    regression; each source lists its own cases, in the protocol's order."""
    ages = _ages(protocol_cohort)
    every = multiscan_curve(ages, BELIEF_SOURCES)
    assert multiscan_curve(ages, ["posterior"]) == [c for c in every if c.source == "posterior"]
    assert multiscan_curve(ages, ["regression", "global_prior"]) == [
        c for c in every if c.source in ("global_prior", "regression")
    ]
    assert multiscan_curve(ages, ["gaussian_net", "diffusion"]) == []
