"""Span tracer that wraps latprog's public functions from outside the package.

`Tracer.installed()` rebinds every `latprog.*` module attribute that *is*
one of the traced function objects, so names imported with
`from .autoencoder import encode` are traced too, and the three different
`loss_and_grads` functions are told apart by identity rather than by name.
Spans are kept in memory and written out when the run ends.  The wrappers
also record the inputs whose repetition is wasted work and the bytes the
tensor container reads and writes.  `predict_noise` is not traced: it runs
once per chain step, so chain steps are counted instead.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from workloads import STAGES

TRACED = {
    "phantom": ("render_volume", "segment_oracle", "segment_by_intensity"),
    "ssim": ("ssim3d", "ssim3d_with_grad"),
    "autoencoder": (
        "init_model",
        "loss_and_grads",
        "train_autoencoder",
        "encode",
        "decode",
        "load_model",
        "save_model",
    ),
    "progression": ("compute_beta", "posterior_update", "resolve_beta"),
    "gaussian_prior": ("train_gaussian_prior", "predict_gaussian_prior"),
    "diffusion": ("train_diffusion_prior", "ancestral_sample", "sample_beta_averaged"),
    "evaluation": ("multiscan_curve", "interpolation_linearity", "generalized_dice"),
    "manifest": ("save_cohort", "load_cohort"),
    "tensorfile": ("read_tensor", "read_tensors", "write_tensor", "write_tensors"),
}

# Layers are the package modules; `pipeline` holds the stage spans.
LAYERS = (*TRACED, "pipeline")

# Read g, v, p and write v, p: five float64 passes per parameter per step.
UPDATE_BYTES_PER_PARAM = 5 * 8


def array_key(array) -> str:
    """Digest of an array's dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{array.dtype}{tuple(array.shape)}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


# Distinct inputs per function, for the waste ratio distinct inputs / calls.
WASTE_KEYS = {
    "autoencoder.encode": lambda a: array_key(a["volume"]),
    "autoencoder.decode": lambda a: array_key(a["latent"]),
    "diffusion.ancestral_sample": lambda a: (
        f"{a['seed']}:{array_key(a['condition'][0])}:{float(a['condition'][1])!r}"
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list
    run_id: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted((spans[c].start, spans[c].end) for c in children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.keys: dict[str, list[str]] = defaultdict(list)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        key_of = WASTE_KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if key_of is not None:
                tracer.keys[name].append(key_of(a))
            if name == "diffusion.ancestral_sample":
                tracer.counters["diffusion.chain_steps"] += a["schedule"].timesteps
            if name in ("tensorfile.read_tensor", "tensorfile.read_tensors"):
                tracer.counters["tensorfile.read_bytes"] += os.path.getsize(a["path"])
            steps_before = tracer.counters["autoencoder.loss_and_grads.calls"]
            tracer.counters[f"{name}.calls"] += 1
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name in ("tensorfile.write_tensor", "tensorfile.write_tensors"):
                tracer.counters["tensorfile.write_bytes"] += os.path.getsize(a["path"])
            if name == "autoencoder.train_autoencoder":
                steps = tracer.counters["autoencoder.loss_and_grads.calls"] - steps_before
                n_params = sum(p.size for p in result.params.values())
                tracer.counters["autoencoder.update_bytes"] += (
                    UPDATE_BYTES_PER_PARAM * n_params * steps
                )
            return result

        traced.__perfbench_original__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace every binding of the traced functions while the block runs."""
        for module in LAYERS:
            importlib.import_module(f"latprog.{module}")
        targets = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"latprog.{module}"]
            for fname in names:
                fn = getattr(mod, fname)
                targets[id(fn)] = (f"{module}.{fname}", fn)
        wrappers = {}
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "latprog" and not mod_name.startswith("latprog."):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = targets.get(id(value))  # targets holds the functions, so ids are stable
                    if hit is None:
                        continue
                    if hit[0] not in wrappers:
                        wrappers[hit[0]] = self._wrap(*hit)
                    setattr(mod, attr, wrappers[hit[0]])
                    self._patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "keys": dict(self.keys),
            "counters": dict(self.counters),
        }


def merge(dumps: list[dict]) -> dict:
    """Concatenate tracer dumps from several processes into one."""
    spans, keys, counters = [], defaultdict(list), Counter()
    for d in dumps:
        offset = len(spans)
        for s in d["spans"]:
            parent = None if s["parent"] is None else s["parent"] + offset
            spans.append({**s, "parent": parent})
        for name, values in d["keys"].items():
            keys[name].extend(values)
        counters.update(d["counters"])
    return {"spans": spans, "keys": dict(keys), "counters": dict(counters)}


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a (merged) tracer dump."""
    spans = [Span(**s) for s in dump["spans"]]
    counters = Counter(dump["counters"])
    self_by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_by_name[span.name] += own
    wall_by_name: Counter = Counter()
    for span in spans:
        wall_by_name[span.name] += span.end - span.start

    out: dict[str, tuple[float, str]] = {}
    for module, names in TRACED.items():
        for fname in names:
            name = f"{module}.{fname}"
            out[f"{name}.calls"] = (counters[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (self_by_name[name], "s")
    for stage in STAGES:
        out[f"pipeline.{stage}.wall_s"] = (wall_by_name[f"pipeline.{stage}"], "s")
    for layer in LAYERS:
        total = sum(v for n, v in self_by_name.items() if n.startswith(f"{layer}."))
        out[f"{layer}.self_s"] = (total, "s")

    out["tensorfile.read_bytes"] = (counters["tensorfile.read_bytes"], "B")
    out["tensorfile.write_bytes"] = (counters["tensorfile.write_bytes"], "B")
    out["diffusion.chain_steps"] = (counters["diffusion.chain_steps"], "count")
    for name, metric in (
        ("diffusion.ancestral_sample", "diffusion.unique_chain_ratio"),
        ("autoencoder.encode", "autoencoder.encode.unique_ratio"),
        ("autoencoder.decode", "autoencoder.decode.unique_ratio"),
    ):
        keys = dump["keys"].get(name, [])
        # No calls means nothing was repeated.
        out[metric] = (len(set(keys)) / len(keys) if keys else 1.0, "1")
    # Computed minimum optimizer traffic, not a measured bandwidth.
    update_bytes = counters["autoencoder.update_bytes"]
    update_s = self_by_name["autoencoder.train_autoencoder"]
    out["autoencoder.update_bytes"] = (update_bytes, "B")
    out["autoencoder.update_gbps"] = (update_bytes / update_s / 1e9 if update_s else 0.0, "GB/s")
    return out
