"""Denoising-diffusion prior over beta with ancestral sampling.

A shallow conditional denoiser is trained to predict the noise injected
into standardized beta targets; sampling runs the standard reverse chain
and averages K independent draws.  The chain operates in a standardized
target space (shift/scale estimated from the training triplets) so the
unit-Gaussian start matches the target scale; a raw callable passed to the
sampler bypasses the standardization, which lets closed-form denoisers drive
the exact chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .gaussian_prior import normalize_age
from . import optim
from .progression import Triplets
from .tensorfile import load_with_meta, save_with_meta

_SCALE_FLOOR = 1e-4


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process variances; index 0 is the identity step by convention.

    ``alphas`` and ``alpha_bars`` are derived from ``betas`` once, when the
    schedule is built and its betas have passed :meth:`validate`.
    """

    betas: np.ndarray  # (T+1,), betas[0] = 0
    alphas: np.ndarray = field(init=False, repr=False)
    alpha_bars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "betas", np.asarray(self.betas, dtype=np.float64))
        self.validate()
        object.__setattr__(self, "alphas", 1.0 - self.betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(self.alphas))

    @classmethod
    def linear(cls, timesteps: int = 500, beta_start: float = 1e-4,
               beta_end: float = 0.02) -> "NoiseSchedule":
        if timesteps < 1:
            raise ValueError("invalid schedule: need at least one step")
        return cls(betas=np.concatenate([[0.0], np.linspace(beta_start, beta_end, timesteps)]))

    @property
    def timesteps(self) -> int:
        return len(self.betas) - 1

    def validate(self) -> None:
        b = self.betas
        if b.ndim != 1 or len(b) < 2 or b[0] != 0.0:
            raise ValueError("invalid schedule: betas must be 1D with betas[0] = 0")
        steps = b[1:]
        if np.any(steps <= 0.0) or np.any(steps >= 1.0):
            raise ValueError("invalid schedule: step betas must lie in (0, 1)")
        if np.any(np.diff(steps) < 0):
            raise ValueError("invalid schedule: betas must be non-decreasing")
        if np.any(np.diff(np.cumprod(1.0 - b)) >= 0):
            raise ValueError("invalid schedule: alpha_bars must strictly decrease")


def forward_noise(schedule: NoiseSchedule, beta, t, eps) -> np.ndarray:
    """Noised target at step t: sqrt(abar_t) * beta + sqrt(1 - abar_t) * eps.

    ``t`` is one step for the whole target, or an array of steps, one per row.
    """
    abar = schedule.alpha_bars[t]
    if np.ndim(t):
        abar = abar[:, None]
    return np.sqrt(abar) * np.asarray(beta, dtype=np.float64) + np.sqrt(1.0 - abar) * np.asarray(eps, dtype=np.float64)


def timestep_embedding(t, timesteps: int, width: int = 16) -> np.ndarray:
    """Sinusoidal features of t/T at geometrically spaced frequencies."""
    if width % 2 != 0:
        raise ValueError("embedding width must be even")
    x = np.asarray(t, dtype=np.float64) / timesteps
    k = np.arange(width // 2)
    angles = x[..., None] * np.pi * (2.0**k)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass(frozen=True)
class DiffusionConfig:
    hidden_width: int = 128
    learning_rate: float = 1e-3
    epochs: int = 60
    batch_size: int = 32
    ema_decay: float = 0.99
    k_samples: int = 5
    embed_width: int = 16
    rmsprop_decay: float = 0.99
    seed: int = 0


@dataclass
class DiffusionDenoiser:
    config: DiffusionConfig
    params: dict[str, np.ndarray]
    ema_params: dict[str, np.ndarray]
    target_shift: np.ndarray  # elementwise mean of training betas
    target_scale: np.ndarray  # elementwise std, floored
    timesteps: int
    loss_curve: list[float] = field(default_factory=list)


def _init_denoiser(
    config: DiffusionConfig, n_latent: int, shift: np.ndarray, scale: np.ndarray,
    timesteps: int,
) -> DiffusionDenoiser:
    n_beta = shift.size
    d_in = n_beta + n_latent + 1 + config.embed_width
    h = config.hidden_width
    rng = np.random.default_rng(config.seed)
    # Zero output head: the untrained denoiser predicts zero noise.
    params = {
        "w_hidden": rng.standard_normal((h, d_in)) / np.sqrt(d_in),
        "b_hidden": np.zeros(h),
        "w_out": np.zeros((n_beta, h)),
        "b_out": np.zeros(n_beta),
    }
    return DiffusionDenoiser(
        config=config,
        params=params,
        ema_params={k: v.copy() for k, v in params.items()},
        target_shift=shift,
        target_scale=scale,
        timesteps=timesteps,
    )


def _denoiser_features(
    denoiser: DiffusionDenoiser, x_std: np.ndarray, latents: np.ndarray,
    ages: np.ndarray, t: np.ndarray
) -> np.ndarray:
    b = x_std.shape[0]
    emb = timestep_embedding(t, denoiser.timesteps, denoiser.config.embed_width)
    return np.concatenate(
        [
            x_std.reshape(b, -1),
            latents.reshape(b, -1),
            normalize_age(ages).reshape(b, 1),
            emb.reshape(b, -1),
        ],
        axis=1,
    )


def _net_forward(params: dict[str, np.ndarray], x: np.ndarray):
    h = np.tanh(x @ params["w_hidden"].T + params["b_hidden"])
    return h @ params["w_out"].T + params["b_out"], h


def predict_noise(
    denoiser: DiffusionDenoiser, x_std, latent, age, t, use_ema: bool = False
) -> np.ndarray:
    """epsilon_theta for a batch of standardized noised targets."""
    x_std = np.asarray(x_std, dtype=np.float64)
    squeeze = x_std.ndim == 1
    if squeeze:
        x_std = x_std[None]
        latent = np.asarray(latent, dtype=np.float64)[None]
        age = np.array([age])
        t = np.array([t])
    feats = _denoiser_features(
        denoiser, x_std, np.asarray(latent, dtype=np.float64),
        np.asarray(age, dtype=np.float64), np.asarray(t),
    )
    params = denoiser.ema_params if use_ema else denoiser.params
    out, _ = _net_forward(params, feats)
    return out[0] if squeeze else out


def loss_and_grads(
    denoiser: DiffusionDenoiser,
    x_std: np.ndarray,
    latents: np.ndarray,
    ages: np.ndarray,
    t: np.ndarray,
    eps: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """MSE between injected and predicted noise, with parameter gradients.

    All stochastic quantities (noised inputs, timesteps, noise targets) are
    passed in explicitly so the loss is a deterministic function of the
    parameters; finite-difference checks rely on that.
    """
    b = x_std.shape[0]
    feats = _denoiser_features(denoiser, x_std, latents, ages, t)
    eps_flat = np.asarray(eps, dtype=np.float64).reshape(b, -1)
    pred, h = _net_forward(denoiser.params, feats)
    if not np.isfinite(pred).all():
        raise RuntimeError("training diverged: non-finite denoiser output")
    resid = pred - eps_flat
    loss = float(np.mean(resid * resid))
    d_out = 2.0 * resid / resid.size
    grads = {
        "w_out": d_out.T @ h,
        "b_out": d_out.sum(axis=0),
    }
    d_h = (d_out @ denoiser.params["w_out"]) * (1.0 - h * h)
    grads["w_hidden"] = d_h.T @ feats
    grads["b_hidden"] = d_h.sum(axis=0)
    return loss, grads


def ema_update(denoiser: DiffusionDenoiser) -> None:
    d = denoiser.config.ema_decay
    for k, v in denoiser.params.items():
        denoiser.ema_params[k] = d * denoiser.ema_params[k] + (1.0 - d) * v


def destandardize_target(denoiser: DiffusionDenoiser, x_std) -> np.ndarray:
    return np.asarray(x_std, dtype=np.float64) * denoiser.target_scale + denoiser.target_shift


def train_diffusion_prior(
    triplets: Triplets, schedule: NoiseSchedule, config: DiffusionConfig
) -> DiffusionDenoiser:
    """Fit the conditional denoiser on the (latent, age, beta) triplet rows."""
    latents, ages, betas = triplets.latents, triplets.ages, triplets.betas
    shift = betas.mean(axis=0)
    scale = np.maximum(betas.std(axis=0), _SCALE_FLOOR)

    denoiser = _init_denoiser(config, latents.shape[1], shift, scale, schedule.timesteps)
    targets = (betas - shift) / scale

    def step(idx, rng):
        t = rng.integers(1, schedule.timesteps + 1, size=len(idx))
        eps = rng.standard_normal((len(idx), targets.shape[1]))
        noised = forward_noise(schedule, targets[idx], t, eps)
        return loss_and_grads(denoiser, noised, latents[idx], ages[idx], t, eps)

    denoiser.loss_curve = optim.train(
        denoiser.params, len(ages), config, step, lambda: ema_update(denoiser)
    )
    return denoiser


def ancestral_sample(
    denoiser,
    schedule: NoiseSchedule,
    condition,
    seed: int,
    shape: tuple[int, ...] | None = None,
    sample_noise: bool = True,
) -> np.ndarray:
    """Run the reverse chain from pure noise; deterministic given seed.

    Draw order from ``default_rng(seed)``: the start state, then one noise
    draw per step from T down to 2 (the final step adds no noise).  With
    ``sample_noise=False`` only the start state is drawn.  A trainable
    denoiser runs in its standardized target space using EMA weights and
    the output is destandardized; a plain callable (x, z, a, t) runs the
    chain as-is.
    """
    z_cond, age = condition
    trained = isinstance(denoiser, DiffusionDenoiser)
    if trained:
        if schedule.timesteps != denoiser.timesteps:
            raise ValueError("schedule length does not match the denoiser")
        chain_shape: tuple[int, ...] = denoiser.params["b_out"].shape
    elif shape is not None:
        chain_shape = tuple(shape)
    else:
        chain_shape = np.asarray(z_cond).shape

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(chain_shape)
    alphas, abars = schedule.alphas, schedule.alpha_bars
    for t in range(schedule.timesteps, 0, -1):
        if trained:
            eps_hat = predict_noise(denoiser, x, z_cond, age, t, use_ema=True)
        else:
            eps_hat = np.asarray(denoiser(x, z_cond, age, t), dtype=np.float64)
        a_t, ab_t = alphas[t], abars[t]
        x = x / np.sqrt(a_t) - (1.0 - a_t) / np.sqrt(a_t * (1.0 - ab_t)) * eps_hat
        if t > 1 and sample_noise:
            var = (1.0 - abars[t - 1]) / (1.0 - ab_t) * (1.0 - a_t)
            x = x + np.sqrt(var) * rng.standard_normal(chain_shape)
    if trained:
        return destandardize_target(denoiser, x)
    return x


def sample_beta_averaged(
    denoiser, schedule: NoiseSchedule, condition, k: int = 5, seed: int = 0
) -> np.ndarray:
    """Elementwise mean of k ancestral samples with seeds seed .. seed+k-1."""
    if k < 1:
        raise ValueError("k must be at least 1")
    samples = [
        ancestral_sample(denoiser, schedule, condition, seed=seed + i) for i in range(k)
    ]
    return np.mean(samples, axis=0)


def save_denoiser(denoiser: DiffusionDenoiser, tensor_path, meta_path) -> None:
    named = {f"param/{k}": v for k, v in denoiser.params.items()}
    named.update({f"ema/{k}": v for k, v in denoiser.ema_params.items()})
    named["target_shift"] = denoiser.target_shift
    named["target_scale"] = denoiser.target_scale
    meta = {
        "config": asdict(denoiser.config),
        "timesteps": denoiser.timesteps,
        "loss_curve": denoiser.loss_curve,
    }
    save_with_meta(tensor_path, meta_path, named, meta)


def load_denoiser(tensor_path, meta_path) -> DiffusionDenoiser:
    named, meta, config = load_with_meta(
        tensor_path, meta_path, DiffusionConfig, "fit-diffusion-prior"
    )
    params = {k[len("param/"):]: v for k, v in named.items() if k.startswith("param/")}
    ema = {k[len("ema/"):]: v for k, v in named.items() if k.startswith("ema/")}
    return DiffusionDenoiser(
        config=config,
        params=params,
        ema_params=ema,
        target_shift=named["target_shift"],
        target_scale=named["target_scale"],
        timesteps=int(meta["timesteps"]),
        loss_curve=list(meta["loss_curve"]),
    )
