"""Cohort persistence and run-configuration parsing."""

import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latprog import phantom
from latprog.autoencoder import INITS
from latprog.config import (
    SEED_OFFSETS,
    RunConfig,
    config_from_dict,
    load_config,
)
from latprog.errors import ConfigError, MissingDependencyError
from latprog.manifest import (
    canonical_json,
    geometry_from_dict,
    geometry_to_dict,
    load_cohort,
    save_cohort,
    spec_from_dict,
    spec_to_dict,
)
from latprog.progression import BELIEF_SOURCES
from latprog.tensorfile import read_tensors, write_tensors

# ------------------------------------------------------------------ manifest


def test_canonical_json_frozen_form():
    assert canonical_json({"b": 1, "a": [1, 2]}) == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}'
    )


def test_geometry_roundtrip():
    ell = phantom.Ellipsoid(center=(16.0, 15.0, 17.0), radii=(8.0, 6.5, 7.0))
    pair = phantom.SpherePair(centers=((10.0, 10.0, 10.0), (20.0, 20.0, 20.0)),
                              radius=2.5)
    for geom in (ell, pair):
        assert geometry_from_dict(geometry_to_dict(geom)) == geom

    with pytest.raises(ValueError, match="unknown geometry"):
        geometry_to_dict(object())
    with pytest.raises(ValueError, match="unknown geometry"):
        geometry_from_dict({"type": "torus"})


def test_spec_roundtrip(spec32):
    assert spec_from_dict(spec_to_dict(spec32)) == spec32


def test_spec_dict_is_json_stable(spec32):
    text = canonical_json(spec_to_dict(spec32))
    assert canonical_json(json.loads(text)) == text


@pytest.fixture(scope="module")
def small_cohort(spec32):
    return phantom.generate_cohort(
        spec32, 4, scans_per_subject=(2, 3), age_spacing=(0.9, 1.2), seed=3
    )


def test_cohort_roundtrip_bit_exact(small_cohort, tmp_path):
    save_cohort(small_cohort, tmp_path, "cohort-test")
    loaded = load_cohort(tmp_path)

    assert loaded.spec == small_cohort.spec
    assert len(loaded.subjects) == len(small_cohort.subjects)
    for orig, back in zip(small_cohort.subjects, loaded.subjects):
        assert back.subject_id == orig.subject_id
        assert back.diagnosis == orig.diagnosis
        assert back.split == orig.split
        assert back.rate_multipliers == orig.rate_multipliers
        np.testing.assert_array_equal(back.ages(), orig.ages())
        for s_orig, s_back in zip(orig.scans, back.scans):
            assert s_back.seed == s_orig.seed
            assert s_back.diagnosis_at_scan == s_orig.diagnosis_at_scan
            assert s_back.volume.dtype == np.float32
            np.testing.assert_array_equal(s_back.volume, s_orig.volume)


def test_load_cohort_of_one_split_reads_its_volumes_only(spec32, tmp_path):
    cohort = phantom.generate_cohort(spec32, 10, scans_per_subject=(2, 3), seed=4)
    save_cohort(cohort, tmp_path, "split-test")
    splits = {s.split for s in cohort.subjects}
    assert len(splits) > 1
    for split in splits:
        # without the other splits' volumes in the container at all
        kept = {f"{s.subject_id}/{i}" for s in cohort.split(split).subjects
                for i in range(len(s.scans))}
        volumes = read_tensors(tmp_path / "volumes.mrxt")
        part_dir = tmp_path / split
        part_dir.mkdir()
        (part_dir / "manifest.json").write_bytes((tmp_path / "manifest.json").read_bytes())
        write_tensors(part_dir / "volumes.mrxt", {k: v for k, v in volumes.items() if k in kept})
        part = load_cohort(part_dir, split=split)
        want = cohort.split(split)
        assert [s.subject_id for s in part.subjects] == [s.subject_id for s in want.subjects]
        for got, ref in zip(part.volumes(), want.volumes()):
            np.testing.assert_array_equal(got, ref)


def test_cohort_scan_missing_from_volumes_names_generate_cohort(small_cohort, tmp_path):
    save_cohort(small_cohort, tmp_path, "missing-scan")
    volumes = read_tensors(tmp_path / "volumes.mrxt")
    lost = f"{small_cohort.subjects[-1].subject_id}/1"
    write_tensors(tmp_path / "volumes.mrxt", {k: v for k, v in volumes.items() if k != lost})
    with pytest.raises(MissingDependencyError) as err:
        load_cohort(tmp_path)
    assert err.value.required_stage == "generate-cohort"
    assert lost in str(err.value) and "\n" not in str(err.value)


def test_manifest_bytes_deterministic(small_cohort, tmp_path):
    p1 = save_cohort(small_cohort, tmp_path / "a", "same-id")
    p2 = save_cohort(small_cohort, tmp_path / "b", "same-id")
    assert p1.read_bytes() == p2.read_bytes()
    # the written document is already in canonical form
    text = p1.read_text()
    assert canonical_json(json.loads(text)) == text


def test_saved_table_is_byte_identical_to_saved_rendered_cohort(spec32, tmp_path):
    """A sampled table, saved, renders each scan from its row as it is
    written: the files are those of the same cohort rendered whole."""
    kwargs = dict(scans_per_subject=(2, 3), age_spacing=(0.9, 1.2), seed=3)
    table = phantom.sample_cohort(spec32, 4, **kwargs)
    assert all(scan.volume is None for s in table.subjects for scan in s.scans)
    save_cohort(table, tmp_path / "table", "same-id")
    save_cohort(phantom.generate_cohort(spec32, 4, **kwargs), tmp_path / "whole", "same-id")
    for name in ("volumes.mrxt", "manifest.json"):
        assert (tmp_path / "table" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_saving_a_table_holds_one_volume_at_a_time(spec32, tmp_path):
    """The peak allocation of saving 40 or more scans is that of rendering
    one (about 9 float32 volumes of temporaries), not the cohort's."""
    table = phantom.sample_cohort(spec32, 16, scans_per_subject=(3, 3), seed=5)
    save_cohort(phantom.sample_cohort(spec32, 1, seed=0), tmp_path / "warm", "warm")
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save_cohort(table, tmp_path / "c", "c")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 12 * spec32.grid_size**3 * 4


# -------------------------------------------------------------------- config


def test_seed_offsets_cover_stages():
    assert SEED_OFFSETS == {
        "cohort": 0,
        "autoencoder": 1,
        "gaussian_prior": 2,
        "diffusion": 3,
        "sampling": 4,
    }


def test_default_config_derives_stage_seeds():
    cfg = load_config(None)
    assert cfg.seed == 0
    assert cfg.autoencoder.seed == SEED_OFFSETS["autoencoder"]
    assert cfg.gaussian_prior.seed == SEED_OFFSETS["gaussian_prior"]
    assert cfg.diffusion.seed == SEED_OFFSETS["diffusion"]
    assert cfg.cohort.n_subjects == 60
    assert cfg.diffusion.timesteps == 500


def test_master_seed_shifts_stage_seeds():
    cfg = config_from_dict({"seed": 10})
    assert (cfg.autoencoder.seed, cfg.gaussian_prior.seed, cfg.diffusion.seed) == (
        11, 12, 13,
    )


def test_pinned_section_seed_wins():
    cfg = config_from_dict({"seed": 10, "diffusion": {"seed": 99}})
    assert cfg.diffusion.seed == 99
    assert cfg.autoencoder.seed == 11


def test_unknown_keys_fatal():
    with pytest.raises(ConfigError, match="unknown config key: bogus"):
        config_from_dict({"bogus": 1})
    for key in ("bogus", "architecture", "hidden_width"):
        with pytest.raises(ConfigError, match=f"unknown config key: autoencoder.{key}"):
            config_from_dict({"autoencoder": {key: 1}})


def test_seed_type_checked():
    with pytest.raises(ConfigError, match="seed must be an integer"):
        config_from_dict({"seed": True})
    with pytest.raises(ConfigError, match="seed must be an integer"):
        config_from_dict({"seed": "7"})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="must be an object"):
        config_from_dict({"cohort": 5})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        config_from_dict([1, 2])


def test_tuple_fields_coerced():
    cfg = config_from_dict({"cohort": {"scans_per_subject": [3, 4]}})
    assert cfg.cohort.scans_per_subject == (3, 4)
    with pytest.raises(ConfigError, match="must be a list"):
        config_from_dict({"cohort": {"scans_per_subject": 3}})


def test_values_checked_against_annotations():
    cfg = config_from_dict({"cohort": {"noise_sigma": 0, "diagnosis_mix": {"healthy": 1}}})
    assert cfg.cohort.noise_sigma == 0 and cfg.cohort.diagnosis_mix == {"healthy": 1}
    for doc, message in [
        ({"cohort": {"n_subjects": True}}, "cohort.n_subjects must be an integer"),
        ({"cohort": {"noise_sigma": False}}, "cohort.noise_sigma must be a number"),
        ({"autoencoder": {"sample_latent": 1}}, "autoencoder.sample_latent must be a boolean"),
        ({"autoencoder": {"init": None}}, "autoencoder.init must be a string"),
        ({"cohort": {"scans_per_subject": [2, 3, 4]}}, "must have 2 items"),
        ({"evaluation": {"predict_sources": ["posterior", 2]}},
         r"evaluation.predict_sources\[1\] must be a string, got 2"),
        ({"cohort": {"diagnosis_mix": {"mci": "x"}}}, "cohort.diagnosis_mix.mci must be a number"),
        ({"evaluation": {"predict_sources": ["posterior", "regression", "posterior"]}},
         "evaluation.predict_sources: 'posterior' is named twice"),
    ]:
        with pytest.raises(ConfigError, match=message):
            config_from_dict(doc)


@pytest.mark.parametrize("section, key, minimum", [
    ("cohort", "n_subjects", 1),
    ("cohort", "grid_size", 1),
    ("autoencoder", "batch_size", 1),
    ("autoencoder", "epochs", 0),
    ("gaussian_prior", "batch_size", 1),
    ("gaussian_prior", "hidden_width", 1),
    ("gaussian_prior", "epochs", 0),
    ("diffusion", "batch_size", 1),
    ("diffusion", "hidden_width", 1),
    ("diffusion", "epochs", 0),
    ("diffusion", "k_samples", 1),
    ("diffusion", "timesteps", 1),
])
def test_counts_below_their_minimum_rejected(section, key, minimum):
    cfg = config_from_dict({section: {key: minimum}})
    assert getattr(getattr(cfg, section), key) == minimum
    message = rf"^{section}\.{key} must be at least {minimum}, got {minimum - 1}$"
    with pytest.raises(ConfigError, match=message):
        config_from_dict({section: {key: minimum - 1}})


def test_every_listed_choice_accepted():
    for init in INITS:
        assert config_from_dict({"autoencoder": {"init": init}}).autoencoder.init == init
    cfg = config_from_dict({"evaluation": {"predict_sources": list(BELIEF_SOURCES)}})
    assert cfg.evaluation.predict_sources == BELIEF_SOURCES


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "example.json"
    path.write_text(blocks[0])
    assert load_config(path) == config_from_dict(json.loads(blocks[0]))


def test_config_hash_stable_and_sensitive():
    a = config_from_dict({"seed": 5})
    b = config_from_dict({"seed": 5})
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 64
    assert int(a.config_hash(), 16) >= 0

    c = config_from_dict({"seed": 5, "cohort": {"n_subjects": 12}})
    assert c.config_hash() != a.config_hash()


def test_to_dict_contains_all_sections():
    d = RunConfig().to_dict()
    assert set(d) == {
        "seed", "cohort", "autoencoder", "gaussian_prior",
        "diffusion", "evaluation",
    }
    assert d["cohort"]["grid_size"] == 32
    # the noise schedule is the denoiser's own: linear over its timesteps
    assert d["diffusion"]["timesteps"] == 500
    betas = RunConfig().diffusion.schedule().betas
    assert betas.tobytes() == np.concatenate([[0.0], np.linspace(1e-4, 0.02, 500)]).tobytes()


# Every value a config file may set.  Each is set by a workload or by tests
# that need small, fast runs; a new one is added here in plain view.
SETTABLE_KEYS = [
    "seed",
    "cohort.n_subjects", "cohort.grid_size", "cohort.noise_sigma",
    "cohort.scans_per_subject", "cohort.age_spacing", "cohort.baseline_age_range",
    "cohort.diagnosis_mix", "cohort.split_fractions",
    "autoencoder.ssim_window", "autoencoder.learning_rate", "autoencoder.epochs",
    "autoencoder.batch_size", "autoencoder.init", "autoencoder.sample_latent",
    "autoencoder.seed",
    "gaussian_prior.hidden_width", "gaussian_prior.learning_rate", "gaussian_prior.epochs",
    "gaussian_prior.batch_size", "gaussian_prior.seed",
    "diffusion.hidden_width", "diffusion.learning_rate", "diffusion.epochs",
    "diffusion.batch_size", "diffusion.k_samples", "diffusion.timesteps", "diffusion.seed",
    "evaluation.predict_sources",
]


def test_settable_keys_are_the_listed_ones():
    cfg = RunConfig()
    keys = []
    for top in dataclasses.fields(cfg):
        value = getattr(cfg, top.name)
        if dataclasses.is_dataclass(value):
            keys += [f"{top.name}.{f.name}" for f in dataclasses.fields(value)]
        else:
            keys.append(top.name)
    assert sorted(keys) == sorted(SETTABLE_KEYS)


def test_load_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 3, "autoencoder": {"epochs": 2}}))
    cfg = load_config(path)
    assert cfg.seed == 3
    assert cfg.autoencoder.epochs == 2
    assert cfg.autoencoder.seed == 4

    # an override reseeds every unpinned stage
    cfg2 = load_config(path, seed_override=20)
    assert cfg2.seed == 20
    assert cfg2.autoencoder.seed == 21
    assert cfg2.autoencoder.epochs == 2


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


def test_config_immutable():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1
