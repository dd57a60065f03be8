"""Tests of the benchmark itself: self time, wrapper removal, waste-ratio keys.

Run from the root of the repository: python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import TRACED, Span, Tracer, layer_metrics, merge, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, None, "r"),
        Span("b", 1.0, 4.0, 0, "r"),
        Span("c", 2.0, 3.0, 1, "r"),
        Span("d", 5.0, 9.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        Span("a", 0.0, 10.0, None, "r"),
        Span("b", 2.0, 6.0, 0, "r"),
        Span("c", 4.0, 8.0, 0, "r"),
        Span("d", 9.0, 12.0, 0, "r"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_merge_offsets_parents_and_layer_self_time():
    one = {"spans": [{"name": "pipeline.encode", "start": 0.0, "end": 2.0, "parent": None,
                      "run_id": "x"},
                     {"name": "autoencoder.encode", "start": 0.5, "end": 1.5, "parent": 0,
                      "run_id": "x"}],
           "keys": {}, "counters": {"autoencoder.encode.calls": 1}}
    merged = merge([one, one])
    assert [s["parent"] for s in merged["spans"]] == [None, 0, None, 2]
    m = layer_metrics(merged)
    assert m["autoencoder.encode.calls"] == (2, "count")
    assert m["autoencoder.encode.self_s"][0] == pytest.approx(2.0)
    assert m["pipeline.encode.wall_s"][0] == pytest.approx(4.0)
    assert m["pipeline.self_s"][0] == pytest.approx(2.0)


def _bindings():
    import importlib

    out = {}
    for module in (*TRACED, "pipeline", "evaluation", "config", "cli"):
        mod = importlib.import_module(f"latprog.{module}")
        out[module] = dict(vars(mod))
    return out


def test_wrappers_cover_every_binding_and_are_removed():
    from latprog import autoencoder, diffusion, evaluation, gaussian_prior, pipeline

    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        # Bound by name in other modules, so matched by identity.
        assert pipeline.encode is autoencoder.encode
        assert evaluation.decode is autoencoder.decode
        assert hasattr(autoencoder.encode, "__perfbench_original__")
        assert hasattr(autoencoder.ssim3d_with_grad, "__perfbench_original__")
        # Same name, different functions: only the autoencoder's is traced.
        assert hasattr(autoencoder.loss_and_grads, "__perfbench_original__")
        assert not hasattr(diffusion.loss_and_grads, "__perfbench_original__")
        assert not hasattr(gaussian_prior.loss_and_grads, "__perfbench_original__")
        assert not hasattr(diffusion.predict_noise, "__perfbench_original__")
    after = _bindings()
    for module, attrs in before.items():
        for name, value in attrs.items():
            assert after[module][name] is value, f"latprog.{module}.{name} still wrapped"
    for module in sys.modules.values():
        if getattr(module, "__name__", "").startswith("latprog"):
            for value in vars(module).values():
                assert not hasattr(value, "__perfbench_original__")


def test_waste_keys_and_counters():
    from latprog import autoencoder, diffusion
    from latprog.autoencoder import AEConfig

    model = autoencoder.init_model(AEConfig(init="zeros"), (8, 8, 8))
    vol = np.ones((8, 8, 8))
    schedule = diffusion.NoiseSchedule.linear(timesteps=5)
    z = np.zeros(3)

    def noise(x, z, a, t):
        return np.zeros_like(x)

    tracer = Tracer()
    with tracer.installed():
        autoencoder.encode(model, vol)
        autoencoder.encode(model, vol.copy())
        autoencoder.encode(model, vol * 2)
        lat = autoencoder.encode(model, vol).mean
        autoencoder.decode(model, lat)
        autoencoder.decode(model, latent=lat.copy())
        diffusion.ancestral_sample(noise, schedule, (z, 70.0), seed=1)
        diffusion.ancestral_sample(noise, schedule, (z.copy(), 70.0), seed=1)
        diffusion.ancestral_sample(noise, schedule, (z, 71.0), seed=1)
        diffusion.ancestral_sample(noise, schedule, (z + 1, 70.0), seed=1)
        diffusion.ancestral_sample(noise, schedule, (z, 70.0), 2)
        diffusion.sample_beta_averaged(noise, schedule, (z, 70.0), k=2, seed=1)
    m = layer_metrics(tracer.dump())
    assert m["autoencoder.encode.calls"][0] == 4
    assert m["autoencoder.encode.unique_ratio"][0] == pytest.approx(2 / 4)
    assert m["autoencoder.decode.unique_ratio"][0] == pytest.approx(1 / 2)
    # seeds 1 and 2 at (z, 70) recur inside sample_beta_averaged
    assert m["diffusion.ancestral_sample.calls"][0] == 7
    assert m["diffusion.unique_chain_ratio"][0] == pytest.approx(4 / 7)
    assert m["diffusion.chain_steps"][0] == 7 * 5
    assert m["diffusion.sample_beta_averaged.self_s"][0] >= 0.0
    assert m["progression.resolve_beta.calls"][0] == 0


def test_update_bytes_and_tensor_bytes(tmp_path):
    from latprog import autoencoder, tensorfile
    from latprog.autoencoder import AEConfig

    vols = np.random.default_rng(0).random((5, 8, 8, 8))
    cfg = AEConfig(epochs=2, batch_size=2, init="random")
    tracer = Tracer()
    with tracer.installed():
        model = autoencoder.train_autoencoder(list(vols), cfg)
        autoencoder.save_model(model, tmp_path / "m.mrxt", tmp_path / "m.json")
        tensorfile.read_tensors(tmp_path / "m.mrxt")
    m = layer_metrics(tracer.dump())
    n_params = sum(p.size for p in model.params.values())
    steps = 2 * 3  # epochs x ceil(5 / 2) batches
    assert m["autoencoder.loss_and_grads.calls"][0] == steps
    assert m["autoencoder.update_bytes"][0] == 5 * 8 * n_params * steps
    size = os.path.getsize(tmp_path / "m.mrxt")
    assert m["tensorfile.write_bytes"][0] == size
    assert m["tensorfile.read_bytes"][0] == size
    assert m["autoencoder.update_gbps"][0] > 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.REPORTED_UNITS[m["name"]] for m in bench["end_to_end"])
    layers = layer_metrics({"spans": [], "keys": {}, "counters": {}})
    expected = {name: unit for name, (_, unit) in layers.items()}
    expected["trace_overhead_pct"] = "%"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == expected
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_times_are_scaled_by_the_median_calibration():
    import child
    import run

    assert child.calibrate() > 0.0
    slow = [2 * run.CAL_REF_S, 3 * run.CAL_REF_S, 100 * run.CAL_REF_S]
    assert run.at_reference_speed(9.0, slow) == pytest.approx(3.0)
    assert run.at_reference_speed(9.0, [run.CAL_REF_S]) == pytest.approx(9.0)
