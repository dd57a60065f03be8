"""Denoising-diffusion prior over beta with batched ancestral sampling.

A shallow conditional denoiser is trained to predict the noise injected
into standardized beta targets; sampling runs the standard reverse chain
and averages K independent draws.  The chains of every forecast run as
rows of one state in a single reverse loop (``sample_betas``), so each
step makes one row-batched denoiser call (``predict_noise``); each chain
still draws from its own seeded generator, so a row's draws do not depend
on the other rows.  The noise schedule is the linear one between the
constant step betas BETA_START and BETA_END over the denoiser's configured
``timesteps`` (``DiffusionConfig.schedule``), so a stored denoiser samples
with the schedule it was trained on and a mismatched one is refused.  The
chain operates in a standardized target space (shift/scale estimated from
the training triplets) so the unit-Gaussian start matches the target
scale; a raw callable passed to the sampler bypasses the standardization,
which lets closed-form denoisers drive the exact chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from .gaussian_prior import normalize_age
from . import optim
from .progression import Triplets
from .tensorfile import load_with_meta, save_with_meta

_SCALE_FLOOR = 1e-4
# Width of the timestep features the denoiser is conditioned on.
EMBED_WIDTH = 16
# Decay of the exponential moving average of the weights the sampler uses.
EMA_DECAY = 0.99


# The linear schedule's first and last step betas.
BETA_START = 1e-4
BETA_END = 0.02


@dataclass(frozen=True)
class NoiseSchedule:
    """Forward-process variances; index 0 is the identity step by convention."""

    betas: np.ndarray  # (T+1,), betas[0] = 0
    alphas: np.ndarray = field(repr=False)  # 1 - betas
    alpha_bars: np.ndarray = field(repr=False)  # cumulative products of alphas

    @classmethod
    def linear(cls, timesteps: int = 500) -> "NoiseSchedule":
        """Step betas evenly spaced from BETA_START to BETA_END.

        ValueError below one step, or at 73,253 steps or more, where
        alpha_bars stops strictly decreasing in float64.
        """
        if timesteps < 1:
            raise ValueError("invalid schedule: need at least one step")
        betas = np.concatenate([[0.0], np.linspace(BETA_START, BETA_END, timesteps)])
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        if np.any(np.diff(alpha_bars) >= 0):
            raise ValueError(
                f"invalid schedule: at {timesteps} steps alpha_bars does not strictly decrease"
            )
        return cls(betas, alphas, alpha_bars)

    @property
    def timesteps(self) -> int:
        return len(self.betas) - 1


def forward_noise(schedule: NoiseSchedule, beta, t, eps) -> np.ndarray:
    """Noised target at step t: sqrt(abar_t) * beta + sqrt(1 - abar_t) * eps.

    ``t`` is one step for the whole target, or an array of steps, one per row.
    """
    abar = schedule.alpha_bars[t]
    if np.ndim(t):
        abar = abar[:, None]
    return np.sqrt(abar) * np.asarray(beta, dtype=np.float64) + np.sqrt(1.0 - abar) * np.asarray(eps, dtype=np.float64)


def timestep_embedding(t, timesteps: int, width: int = EMBED_WIDTH) -> np.ndarray:
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
    k_samples: int = 5
    timesteps: int = 500
    seed: int = 0

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule.linear(self.timesteps)


@dataclass
class DiffusionDenoiser:
    config: DiffusionConfig
    params: dict[str, np.ndarray]
    ema_params: dict[str, np.ndarray]
    target_shift: np.ndarray  # elementwise mean of training betas
    target_scale: np.ndarray  # elementwise std, floored
    loss_curve: list[float] = field(default_factory=list)

    @cached_property
    def schedule(self) -> NoiseSchedule:
        """The noise schedule the denoiser is trained and sampled with."""
        return self.config.schedule()


def _init_denoiser(
    config: DiffusionConfig, n_latent: int, shift: np.ndarray, scale: np.ndarray
) -> DiffusionDenoiser:
    n_beta = shift.size
    d_in = n_beta + n_latent + 1 + EMBED_WIDTH
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
    )


def _denoiser_features(
    denoiser: DiffusionDenoiser, x_std: np.ndarray, latents: np.ndarray,
    ages: np.ndarray, t
) -> np.ndarray:
    """Input rows [x, latent, age, embedding of t]; ``t`` is one step for
    every row or an array of steps, one per row."""
    b = x_std.shape[0]
    emb = timestep_embedding(t, denoiser.config.timesteps)
    return np.concatenate(
        [
            x_std.reshape(b, -1),
            latents.reshape(b, -1),
            normalize_age(ages).reshape(b, 1),
            np.broadcast_to(emb, (b, emb.shape[-1])),
        ],
        axis=1,
    )


def _net_forward(params: dict[str, np.ndarray], x: np.ndarray):
    h = np.tanh(x @ params["w_hidden"].T + params["b_hidden"])
    return h @ params["w_out"].T + params["b_out"], h


def predict_noise(denoiser: DiffusionDenoiser, x_std, latents, ages, t: int) -> np.ndarray:
    """epsilon_theta of the EMA weights at step t, one row per noised target.

    ``x_std`` (n, d) holds standardized noised targets, conditioned row by
    row on ``latents`` (n, k) and ``ages`` (n,).
    """
    feats = _denoiser_features(
        denoiser, np.asarray(x_std, dtype=np.float64), np.asarray(latents, dtype=np.float64),
        np.asarray(ages, dtype=np.float64), t,
    )
    out, _ = _net_forward(denoiser.ema_params, feats)
    return out


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
    for k, v in denoiser.params.items():
        denoiser.ema_params[k] = EMA_DECAY * denoiser.ema_params[k] + (1.0 - EMA_DECAY) * v


def destandardize_target(denoiser: DiffusionDenoiser, x_std) -> np.ndarray:
    return np.asarray(x_std, dtype=np.float64) * denoiser.target_scale + denoiser.target_shift


def train_diffusion_prior(triplets: Triplets, config: DiffusionConfig) -> DiffusionDenoiser:
    """Fit the conditional denoiser on the (latent, age, beta) triplet rows,
    under the noise schedule of ``config``."""
    latents, ages, betas = triplets.latents, triplets.ages, triplets.betas
    shift = betas.mean(axis=0)
    scale = np.maximum(betas.std(axis=0), _SCALE_FLOOR)

    denoiser = _init_denoiser(config, latents.shape[1], shift, scale)
    schedule = denoiser.schedule
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


def _chain_draws(seeds, shape: tuple[int, ...], timesteps: int, sample_noise: bool):
    """Start states (n, *shape) and step noise (T - 1, n, *shape) of n chains.

    Chain i draws from its own ``default_rng(seeds[i])``: its start state,
    then its whole step-noise block in one call, which is the same stream as
    one draw per step from T down to 2.  Without ``sample_noise`` only the
    start states are drawn and the step noise is zero.
    """
    x = np.empty((len(seeds), *shape))
    noise = np.zeros((len(seeds), timesteps - 1, *shape))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=x[i, ...])
        if sample_noise:
            rng.standard_normal(out=noise[i, ...])
    return x, noise.swapaxes(0, 1)


def _reverse_chain(schedule: NoiseSchedule, x: np.ndarray, noise: np.ndarray, eps_of) -> np.ndarray:
    """Run the reverse update from T down to 1 on the state ``x``.

    ``eps_of(x, t)`` predicts the noise in ``x`` at step t, and
    ``noise[T - t]`` is added after step t for t > 1.
    """
    alphas, abars = schedule.alphas, schedule.alpha_bars
    for t in range(schedule.timesteps, 0, -1):
        eps_hat = eps_of(x, t)
        a_t, ab_t = alphas[t], abars[t]
        x = x / np.sqrt(a_t) - (1.0 - a_t) / np.sqrt(a_t * (1.0 - ab_t)) * eps_hat
        if t > 1:
            var = (1.0 - abars[t - 1]) / (1.0 - ab_t) * (1.0 - a_t)
            x = x + np.sqrt(var) * noise[schedule.timesteps - t]
    return x


def _trained_chains(
    denoiser: DiffusionDenoiser, latents, ages, seeds, sample_noise: bool = True
) -> np.ndarray:
    """Destandardized end states of trained chains: row i is seeded
    ``seeds[i]`` and conditioned on ``latents[i]`` and ``ages[i]``."""
    schedule = denoiser.schedule
    x, noise = _chain_draws(
        seeds, denoiser.params["b_out"].shape, schedule.timesteps, sample_noise
    )
    x = _reverse_chain(
        schedule, x, noise, lambda x, t: predict_noise(denoiser, x, latents, ages, t)
    )
    return destandardize_target(denoiser, x)


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
    the output is destandardized, and ``schedule`` must be the one it was
    trained with; a plain callable (x, z, a, t) runs the chain as-is.
    """
    z_cond, age = condition
    if isinstance(denoiser, DiffusionDenoiser):
        if not np.array_equal(schedule.betas, denoiser.schedule.betas):
            raise ValueError("schedule does not match the one the denoiser was trained with")
        return _trained_chains(denoiser, np.asarray(z_cond)[None], [age], [seed], sample_noise)[0]

    chain_shape = tuple(shape) if shape is not None else np.asarray(z_cond).shape
    x, noise = _chain_draws([seed], chain_shape, schedule.timesteps, sample_noise)
    return _reverse_chain(
        schedule, x[0], noise[:, 0],
        lambda x, t: np.asarray(denoiser(x, z_cond, age, t), dtype=np.float64),
    )


def sample_betas(
    denoiser: DiffusionDenoiser, latents, ages, seeds, k: int
) -> np.ndarray:
    """Averaged beta draws for n conditions, all chains in one reverse loop.

    Row i is the elementwise mean of k ancestral samples conditioned on
    (``latents[i]``, ``ages[i]``) with seeds ``seeds[i]`` .. ``seeds[i]+k-1``,
    each drawn as ``ancestral_sample`` draws it.  The n*k chains are the rows
    of one state, so each step makes one denoiser call; results match
    ``sample_beta_averaged`` up to the summation order of the batched matmul.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    latents = np.asarray(latents, dtype=np.float64)
    ages = np.asarray(ages, dtype=np.float64)
    if not len(latents) == len(ages) == len(seeds):
        raise ValueError(
            f"latents, ages and seeds differ in length: {len(latents)}, {len(ages)}, {len(seeds)}"
        )
    if len(seeds) == 0:
        return np.empty((0, *denoiser.params["b_out"].shape))
    rows = _trained_chains(
        denoiser, np.repeat(latents, k, axis=0), np.repeat(ages, k),
        [int(seed) + j for seed in seeds for j in range(k)],
    )
    return rows.reshape(len(seeds), k, *rows.shape[1:]).mean(axis=1)


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
        loss_curve=list(meta["loss_curve"]),
    )
