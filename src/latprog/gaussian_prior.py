"""Explicit Gaussian prior over beta, amortized by a shallow network.

Maps (latent mean, normalized age) to an elementwise Gaussian
(mu, log sigma^2) over the beta vector.  Output heads start at zero weights
with biases set to the population mean/log-variance of the training betas,
so the untrained network already reproduces the global prior and training
can only sharpen it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import optim
from .progression import VARIANCE_FLOOR, GaussianBelief, Triplets
from .tensorfile import load_with_meta, save_with_meta

AGE_CENTER = 70.0
AGE_SCALE = 15.0
# Weight of the Gaussian negative log-likelihood next to the absolute error.
NLL_WEIGHT = 1e-3


@dataclass(frozen=True)
class GaussianPriorConfig:
    hidden_width: int = 64
    learning_rate: float = 1e-3
    epochs: int = 150
    batch_size: int = 32
    seed: int = 0


@dataclass
class GaussianPriorNet:
    config: GaussianPriorConfig
    params: dict[str, np.ndarray]
    loss_curve: list[float] = field(default_factory=list)


def normalize_age(age) -> np.ndarray:
    return (np.asarray(age, dtype=np.float64) - AGE_CENTER) / AGE_SCALE


def _init_net(
    config: GaussianPriorConfig, n_latent: int, beta_mean: np.ndarray, beta_logvar: np.ndarray
) -> GaussianPriorNet:
    d_in = n_latent + 1
    n_out = beta_mean.size
    h = config.hidden_width
    rng = np.random.default_rng(config.seed)
    params = {
        "w_hidden": rng.standard_normal((h, d_in)) / np.sqrt(d_in),
        "b_hidden": np.zeros(h),
        "w_mean": np.zeros((n_out, h)),
        "b_mean": beta_mean,
        "w_logvar": np.zeros((n_out, h)),
        "b_logvar": beta_logvar,
    }
    return GaussianPriorNet(config=config, params=params)


def _forward(net: GaussianPriorNet, x: np.ndarray):
    p = net.params
    h = np.tanh(x @ p["w_hidden"].T + p["b_hidden"])
    mu = h @ p["w_mean"].T + p["b_mean"]
    lv = h @ p["w_logvar"].T + p["b_logvar"]
    return mu, lv, h


def _inputs(latents: np.ndarray, ages: np.ndarray) -> np.ndarray:
    b = latents.shape[0]
    z = latents.reshape(b, -1)
    return np.concatenate([z, normalize_age(ages).reshape(b, 1)], axis=1)


def loss_and_grads(
    net: GaussianPriorNet, latents: np.ndarray, ages: np.ndarray, betas: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch loss and hand-derived parameter gradients."""
    p = net.params
    b = latents.shape[0]
    x = _inputs(np.asarray(latents, dtype=np.float64), np.asarray(ages))
    beta = np.asarray(betas, dtype=np.float64).reshape(b, -1)
    mu, lv, h = _forward(net, x)
    if not (np.isfinite(mu).all() and np.isfinite(lv).all()):
        raise RuntimeError("training diverged: non-finite network output")

    diff = beta - mu
    inv_var = np.exp(-lv)
    n = beta.size
    loss = float(np.mean(np.abs(diff) + NLL_WEIGHT * (diff * diff * inv_var + lv)))

    d_mu = (np.sign(mu - beta) + NLL_WEIGHT * 2.0 * (mu - beta) * inv_var) / n
    d_lv = NLL_WEIGHT * (1.0 - diff * diff * inv_var) / n

    grads = {
        "w_mean": d_mu.T @ h,
        "b_mean": d_mu.sum(axis=0),
        "w_logvar": d_lv.T @ h,
        "b_logvar": d_lv.sum(axis=0),
    }
    d_h = (d_mu @ p["w_mean"] + d_lv @ p["w_logvar"]) * (1.0 - h * h)
    grads["w_hidden"] = d_h.T @ x
    grads["b_hidden"] = d_h.sum(axis=0)
    return loss, grads


def train_gaussian_prior(triplets: Triplets, config: GaussianPriorConfig) -> GaussianPriorNet:
    """Fit the amortized prior on the (latent, age, beta) triplet rows."""
    latents, ages, betas = triplets.latents, triplets.ages, triplets.betas
    net = _init_net(
        config, latents.shape[1], betas.mean(axis=0), np.log(betas.var(axis=0) + VARIANCE_FLOOR)
    )
    net.loss_curve = optim.train(
        net.params, len(ages), config,
        lambda idx, rng: loss_and_grads(net, latents[idx], ages[idx], betas[idx]),
    )
    return net


def predict_gaussian_prior(net: GaussianPriorNet, latent, age: float) -> GaussianBelief:
    """Amortized belief over beta for one scan's latent vector."""
    z = np.asarray(latent, dtype=np.float64)
    n_latent = net.params["w_hidden"].shape[1] - 1
    if z.shape != (n_latent,):
        raise ValueError(f"latent shape {z.shape} != net input ({n_latent},)")
    mu, lv, _ = _forward(net, _inputs(z[None], np.array([age])))
    return GaussianBelief(mean=mu[0], variance=np.maximum(np.exp(lv[0]), VARIANCE_FLOOR))


def save_gaussian_prior(net: GaussianPriorNet, tensor_path, meta_path) -> None:
    meta = {
        "config": asdict(net.config),
        "loss_curve": net.loss_curve,
    }
    save_with_meta(tensor_path, meta_path, net.params, meta)


def load_gaussian_prior(tensor_path, meta_path) -> GaussianPriorNet:
    params, meta, config = load_with_meta(
        tensor_path, meta_path, GaussianPriorConfig, "fit-gaussian-prior"
    )
    return GaussianPriorNet(
        config=config,
        params=params,
        loss_curve=list(meta["loss_curve"]),
    )
