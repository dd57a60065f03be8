"""Run configuration: defaults, strict parsing, canonical hashing.

Unknown keys anywhere in the document are fatal.  A single master seed
drives every stage through fixed offsets unless a section pins its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import phantom
from .autoencoder import INITS, AEConfig
from .diffusion import DiffusionConfig
from .errors import ConfigError
from .gaussian_prior import GaussianPriorConfig
from .progression import BELIEF_SOURCES
from .ssim import check_window

# Per-stage seed offsets from the master seed.
SEED_OFFSETS = {
    "cohort": 0,
    "autoencoder": 1,
    "gaussian_prior": 2,
    "diffusion": 3,
    "sampling": 4,
}


@dataclass(frozen=True)
class CohortParams:
    n_subjects: int = 60
    grid_size: int = 32
    noise_sigma: float = 0.005
    scans_per_subject: tuple[int, int] = (2, 6)
    age_spacing: tuple[float, float] = (0.8, 1.3)
    baseline_age_range: tuple[float, float] = (60.0, 85.0)
    diagnosis_mix: dict[str, float] | None = None
    split_fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)


@dataclass(frozen=True)
class EvalParams:
    predict_sources: tuple[str, ...] = ("global_prior", "posterior", "regression")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    cohort: CohortParams = field(default_factory=CohortParams)
    autoencoder: AEConfig = field(default_factory=AEConfig)
    gaussian_prior: GaussianPriorConfig = field(default_factory=GaussianPriorConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    evaluation: EvalParams = field(default_factory=EvalParams)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _check(value, tp, path: str):
    """``value`` checked against the field annotation ``tp``; JSON lists become tuples."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # only `T | None` occurs
        return None if value is None else _check(value, args[0], path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(value) != len(item_types):
            raise ConfigError(f"{path} must have {len(item_types)} items")
        return tuple(_check(v, t, f"{path}[{i}]")
                     for i, (v, t) in enumerate(zip(value, item_types)))
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        return {_check(k, args[0], path): _check(v, args[1], f"{path}.{k}")
                for k, v in value.items()}
    allowed = (int, float) if tp is float else tp  # a float field takes an int, not a bool
    if not isinstance(value, allowed) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path} must be {_TYPE_NAMES[tp]}, got {value!r}")
    return value


# Lowest value of each count, by field name in any section; `epochs: 0` keeps the init.
_MINIMUMS = {"n_subjects": 1, "grid_size": 1, "batch_size": 1, "hidden_width": 1,
             "timesteps": 1, "k_samples": 1, "epochs": 0}
# Allowed values of each choice, by field name in any section; a list checks each
# item and may name each at most once.
_CHOICES = {"init": INITS, "predict_sources": BELIEF_SOURCES}


def _build_section(cls, data: dict, path: str):
    hints = typing.get_type_hints(cls)
    for key in data:
        if key not in hints:
            raise ConfigError(f"unknown config key: {path}.{key}")
    values = {key: _check(value, hints[key], f"{path}.{key}") for key, value in data.items()}
    for key, value in values.items():
        if key in _MINIMUMS and value < _MINIMUMS[key]:
            raise ConfigError(f"{path}.{key} must be at least {_MINIMUMS[key]}, got {value}")
        if key in _CHOICES:
            items = value if isinstance(value, tuple) else (value,)
            for i, item in enumerate(items):
                if item not in _CHOICES[key]:
                    raise ConfigError(f"{path}.{key}: {item!r} is not one of {_CHOICES[key]}")
                if item in items[:i]:
                    raise ConfigError(f"{path}.{key}: {item!r} is named twice")
    return cls(**values)


_SECTIONS = {
    "cohort": CohortParams,
    "autoencoder": AEConfig,
    "gaussian_prior": GaussianPriorConfig,
    "diffusion": DiffusionConfig,
    "evaluation": EvalParams,
}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key == "seed":
            kwargs["seed"] = _check(value, int, "seed")
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key} must be an object")
            kwargs[key] = _build_section(_SECTIONS[key], value, key)
        else:
            raise ConfigError(f"unknown config key: {key}")
    pinned = {key for key in _SECTIONS if "seed" in data.get(key, {})}
    return _derive_seeds(RunConfig(**kwargs), pinned)


def _derive_seeds(cfg: RunConfig, pinned: set[str]) -> RunConfig:
    """Stage seeds default to master seed + fixed offset."""
    return dataclasses.replace(cfg, **{
        name: dataclasses.replace(getattr(cfg, name), seed=cfg.seed + SEED_OFFSETS[name])
        for name, cls in _SECTIONS.items()
        if name not in pinned and "seed" in cls.__dataclass_fields__
    })


def load_config(path=None, seed_override: int | None = None) -> RunConfig:
    """Parse a JSON config file; missing path means all defaults."""
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if seed_override is not None:
        data = dict(data)
        data["seed"] = seed_override
        # CLI seed override re-derives all stage seeds unless sections pinned theirs.
    cfg = config_from_dict(data)
    _check_buildable(cfg)
    return cfg


def _check_buildable(cfg: RunConfig) -> None:
    """Build or check what the stages will build from ``cfg``, so that a value
    they would refuse fails here, as a ConfigError naming it, before any work."""
    try:
        cfg.diffusion.schedule()
    except ValueError as exc:
        raise ConfigError(f"diffusion.timesteps: {exc}") from exc
    cp = cfg.cohort
    try:
        phantom.validate_spec(phantom.default_spec(cp.grid_size, cp.noise_sigma))
    except ValueError as exc:
        try:  # the noise-free phantom checks the geometry alone
            phantom.validate_spec(phantom.default_spec(cp.grid_size, 0.0))
        except ValueError as grid_exc:
            raise ConfigError(f"cohort.grid_size: {grid_exc}") from grid_exc
        raise ConfigError(f"cohort.noise_sigma: {exc}") from exc
    try:  # the message leads with the argument, which is the key's name
        phantom.check_cohort_args(cp.scans_per_subject, cp.age_spacing, cp.baseline_age_range,
                                  cp.diagnosis_mix, cp.split_fractions)
    except ValueError as exc:
        raise ConfigError(f"cohort.{exc}") from exc
    try:
        check_window(cfg.autoencoder.ssim_window, (cp.grid_size,) * 3)
    except ValueError as exc:
        raise ConfigError(f"autoencoder.ssim_window: {exc}") from exc
