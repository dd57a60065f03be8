"""KL-regularized autoencoder over 3D volumes, trained with numpy only.

The architecture is deliberately small: one affine encoder/decoder pair
mapping a cubic volume to a flat latent vector of ``LATENT_DIM`` floats.  An
affine map is enough to expose linear-in-age structure in the latent space,
and its gradients are derived by hand and checked against finite
differences.

``LATENT_DIM`` is sized to the signal, not to the grid: a phantom cohort
varies along a handful of directions plus isotropic voxel noise, and on the
default cohorts 3 to 5 principal components rise above the noise edge
sigma^2 (sqrt(n) + sqrt(d))^2.  Eight is the next power of two above that
count; every further dimension would carry only noise.

The encoded distribution is a diagonal Gaussian whose mean depends on the
input and whose log-variance is one learned value per latent element, the
same for every input.  Loss: mean absolute error + SSIM_WEIGHT * (1 - SSIM)
+ GAMMA_KL * KL to a unit Gaussian.  During training the decoder sees a
reparameterized sample from the encoded distribution; at inference only the
mean is decoded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import optim
from .ssim import ssim3d_with_grad
from .tensorfile import load_with_meta, save_with_meta

LATENT_DIM = 8
INITS = ("pca", "random", "zeros")
_LOGVAR_INIT = -6.0
# Weights of the loss terms after the mean absolute error.
SSIM_WEIGHT = 1.0
GAMMA_KL = 1e-5
# float64 values in one column block of the centered rows, the most of them
# ``principal_components`` holds: 8 MiB, not the (n, d) matrix.
PCA_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class AEConfig:
    ssim_window: int = 7
    learning_rate: float = 1e-4
    epochs: int = 12
    batch_size: int = 16
    init: str = "pca"  # one of INITS
    sample_latent: bool = True
    seed: int = 0


@dataclass
class EncodedDistribution:
    mean: np.ndarray
    log_variance: np.ndarray


@dataclass
class AELossTerms:
    total: float
    l1: float
    ssim: float  # the (1 - SSIM) term, unweighted
    kl: float  # KL divergence, unweighted


@dataclass
class AEModel:
    config: AEConfig
    input_shape: tuple[int, int, int]
    params: dict[str, np.ndarray]
    loss_curve: list[float] = field(default_factory=list)

    @property
    def n_voxels(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def n_latent(self) -> int:
        return self.params["enc_b_mean"].size


def _fix_signs(rows: np.ndarray) -> None:
    """Negate in place each row whose first entry above 1e-12 in size is negative."""
    for row in rows:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            np.negative(row, out=row)


def principal_components(rows, k: int):
    """Top ``k`` principal components of ``rows``: n arrays of d values each,
    every one read flat as a row, such as the rows of an (n, d) matrix or n
    volumes of any float dtype.

    Returns ``(mean, components, variances)``: the mean row, the components
    as ``k`` orthonormal rows of length d in descending order of variance,
    signs fixed by ``_fix_signs``, and their squared singular values.  The
    rows are added one at a time into a float64 mean, the order
    ``mean(axis=0)`` of their float64 stack uses.  The rows minus the mean
    are never held whole: they are made one column block at a time, at most
    ``PCA_BLOCK_VALUES`` float64 values (or one column), in one buffer.
    A first pass over the blocks adds up the n x n Gram matrix of the
    centered rows; the components come from its ``eigh``, not from a thin
    SVD of the n x d matrix.  A second pass writes each block's columns of
    ``v_i^T centered / sqrt(w_i)``, for each eigenpair ``(w_i, v_i)``,
    straight into the components.  Rows that fit in one block give the
    bytes of one Gram matrix of the whole centered matrix; more blocks add
    it up in another order.  Eigenvalues at or below
    ``w_max * max(n, d) * eps`` are rank deficiency: their rows stay zero
    with variance 0, as do the rows past n when ``k > n``.
    """
    n, d = len(rows), np.size(rows[0])
    mean = np.array(np.ravel(rows[0]), dtype=np.float64)
    for row in rows[1:]:
        mean += np.ravel(row)
    mean /= n
    width = max(1, min(d, PCA_BLOCK_VALUES // n))
    buffer = np.empty(n * width)

    def centered_blocks():
        """(columns, the rows minus the mean at those columns as an (n, m) array)."""
        for start in range(0, d, width):
            cols = slice(start, min(start + width, d))
            block = buffer[: n * (cols.stop - start)].reshape(n, -1)
            for i, row in enumerate(rows):
                np.subtract(np.ravel(row)[cols], mean[cols], out=block[i])
            yield cols, block

    gram = np.zeros((n, n))
    for _, block in centered_blocks():
        gram += block @ block.T
    w, v = np.linalg.eigh(gram)
    w, v = w[::-1][:k], v[:, ::-1][:, :k]
    rank = int(np.count_nonzero(w > w[0] * max(n, d) * np.finfo(np.float64).eps))
    comps = np.zeros((k, d))
    vt, scale = v[:, :rank].T, np.sqrt(w[:rank])[:, None]
    for cols, block in centered_blocks():
        out = comps[:rank, cols]
        np.matmul(vt, block, out=out)
        out /= scale
    _fix_signs(comps[:rank])
    variances = np.zeros(k)
    variances[:rank] = w[:rank]
    return mean, comps, variances


def init_model(
    config: AEConfig,
    input_shape: tuple[int, int, int],
    train_volumes=None,
) -> AEModel:
    """Build an untrained model.

    ``init="pca"`` seeds the affine maps with principal components of the
    training volumes, which starts training from a strong least-squares
    reconstruction; it requires ``train_volumes``, n volumes of
    ``input_shape`` as a list or a stacked array of any float dtype, which
    are passed to ``principal_components`` as they are, with no float64
    copy and no (n, d) matrix of centered volumes: it holds one column block
    of them at a time.  The components come from ``eigh`` of the n x n Gram
    matrix of the n centered volumes, not from a thin SVD of the n x d
    volume matrix, and are used as they are, as ``enc_w_mean``.  A
    component whose eigenvalue is at or below ``w_max * max(n, d) * eps`` is
    rank deficiency: its row stays zero, so fewer than ``LATENT_DIM + 1``
    volumes, which span fewer than ``LATENT_DIM`` directions about their
    mean, leave the rows past their rank zero.  Its ``dec_w`` is the
    transposed view of ``enc_w_mean``, not a copy: the two weights stay tied
    through training, and every optimizer step applies both of their updates
    to the one shared buffer.
    """
    d = int(np.prod(input_shape))
    n_lat = LATENT_DIM
    rng = np.random.default_rng(config.seed)

    if config.init == "zeros":
        w_mean = np.zeros((n_lat, d))
        b_mean = np.zeros(n_lat)
        dec_w = np.zeros((d, n_lat))
        dec_b = np.zeros(d)
        b_logvar = np.zeros(n_lat)
    elif config.init == "random":
        w_mean = rng.standard_normal((n_lat, d)) / np.sqrt(d)
        b_mean = np.zeros(n_lat)
        dec_w = rng.standard_normal((d, n_lat)) / np.sqrt(n_lat)
        dec_b = np.zeros(d)
        b_logvar = np.full(n_lat, _LOGVAR_INIT)
    elif config.init == "pca":
        if train_volumes is None:
            raise ValueError("init='pca' needs training volumes")
        mean, comps, _ = principal_components(train_volumes, n_lat)
        w_mean = comps
        b_mean = -comps @ mean
        dec_w = comps.T
        dec_b = mean
        b_logvar = np.full(n_lat, _LOGVAR_INIT)
    else:
        raise ValueError(f"unknown init {config.init!r}; one of {INITS}")
    params = dict(enc_w_mean=w_mean, enc_b_mean=b_mean, enc_b_logvar=b_logvar,
                  dec_w=dec_w, dec_b=dec_b)
    return AEModel(config=config, input_shape=tuple(input_shape), params=params)


def _encode_batch(model: AEModel, x_flat: np.ndarray) -> np.ndarray:
    """Latent means; the log-variance is ``enc_b_logvar`` for every input."""
    p = model.params
    return x_flat @ p["enc_w_mean"].T + p["enc_b_mean"]


def _decode_batch(model: AEModel, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    p = model.params
    x_hat = np.matmul(z, p["dec_w"].T, out=out)
    x_hat += p["dec_b"]
    return x_hat


def encode(model: AEModel, volume: np.ndarray) -> EncodedDistribution:
    """Encode one volume to its latent Gaussian (mean, log variance)."""
    if tuple(volume.shape) != model.input_shape:
        raise ValueError(f"volume shape {volume.shape} != model {model.input_shape}")
    x = np.asarray(volume, dtype=np.float64).reshape(1, -1)
    z_mu = _encode_batch(model, x)
    return EncodedDistribution(mean=z_mu[0], log_variance=model.params["enc_b_logvar"].copy())


def decode(model: AEModel, latent: np.ndarray) -> np.ndarray:
    """Decode a latent vector to a volume."""
    if latent.shape != (model.n_latent,):
        raise ValueError(f"latent shape {latent.shape} != model ({model.n_latent},)")
    x_hat = _decode_batch(model, np.asarray(latent, dtype=np.float64)[None])
    return x_hat[0].reshape(model.input_shape)


def loss_and_grads(
    model: AEModel, x_batch: np.ndarray, eps: np.ndarray | None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[AELossTerms, dict[str, np.ndarray]]:
    """Batch loss and parameter gradients.

    ``eps`` is the reparameterization noise, shape (batch, n_latent); pass
    None to decode the mean (also what inference does).  Supplying eps
    explicitly keeps the loss deterministic for gradient checking.  A
    float64 batch of shape (batch, n_voxels) is used as it is, and any other
    is converted.  ``out``, two C-contiguous float64 arrays of that shape,
    receives the reconstruction and then the gradient of the loss with
    respect to it; without ``out`` both are allocated.  Either way they are
    the only batch-sized arrays made.
    """
    p = model.params
    b = x_batch.shape[0]
    d = model.n_voxels
    x_flat = np.asarray(x_batch, dtype=np.float64).reshape(b, d)
    x_hat, d_xhat = (np.empty((b, d)), np.empty((b, d))) if out is None else out

    z_mu = _encode_batch(model, x_flat)
    z_lv = np.broadcast_to(p["enc_b_logvar"], z_mu.shape)
    if eps is not None:
        sigma = np.exp(0.5 * z_lv)
        z = z_mu + sigma * eps
    else:
        z = z_mu
    _decode_batch(model, z, out=x_hat)

    if not np.isfinite(x_hat).all():
        raise RuntimeError("training diverged: non-finite reconstruction")

    # The output-gradient buffer holds |x_hat - x| for the L1 term, then the
    # residual again, from the same operands, for its sign: the L1 gradient.
    np.subtract(x_hat, x_flat, out=d_xhat)
    np.abs(d_xhat, out=d_xhat)
    l1 = float(np.mean(d_xhat))
    kl_per = 0.5 * np.sum(z_mu**2 + np.exp(z_lv) - z_lv - 1.0, axis=1)
    kl = float(np.mean(kl_per))

    shape3 = model.input_shape
    ssim_sum = 0.0
    np.subtract(x_hat, x_flat, out=d_xhat)
    np.sign(d_xhat, out=d_xhat)
    d_xhat /= b * d
    for i in range(b):
        value, grad = ssim3d_with_grad(
            x_flat[i].reshape(shape3), x_hat[i].reshape(shape3), model.config.ssim_window
        )
        ssim_sum += 1.0 - value
        d_xhat[i] -= SSIM_WEIGHT * grad.ravel() / b
    ssim_term = ssim_sum / b
    total = l1 + SSIM_WEIGHT * ssim_term + GAMMA_KL * kl

    # Decoder backward; dec_w's gradient in dec_w's own memory order (Fortran
    # under the PCA tie), for the optimizer.
    grads = {
        "dec_w": np.matmul(d_xhat.T, z, out=np.empty_like(p["dec_w"])),
        "dec_b": d_xhat.sum(axis=0),
    }
    d_z = d_xhat @ p["dec_w"]

    # Through the reparameterization and KL.
    d_zmu = d_z + GAMMA_KL * z_mu / b
    if eps is not None:
        d_zlv = d_z * (0.5 * sigma * eps) + GAMMA_KL * 0.5 * (np.exp(z_lv) - 1.0) / b
    else:
        d_zlv = GAMMA_KL * 0.5 * (np.exp(z_lv) - 1.0) / b

    # Encoder backward.
    grads["enc_b_mean"] = d_zmu.sum(axis=0)
    grads["enc_b_logvar"] = d_zlv.sum(axis=0)
    grads["enc_w_mean"] = d_zmu.T @ x_flat

    terms = AELossTerms(total=total, l1=l1, ssim=ssim_term, kl=kl)
    return terms, grads


def train_autoencoder(train_volumes, config: AEConfig) -> AEModel:
    """Train on a sequence of equal-shape volumes.

    The volumes are held as given, float32 as read from a cohort, and never
    stacked whole.  Three float64 batch buffers are allocated once and
    reused by every step: each minibatch's volumes are upcast straight into
    the first, which is exact, so the model is bit-identical to one trained
    on float64 copies, and ``loss_and_grads`` writes the reconstruction and
    its gradient into the other two.  A volume whose shape differs from the
    first one's raises ValueError before any work.  Momentum-free adaptive
    steps (RMSProp); deterministic given config.seed.  Raises on divergence.
    The returned model records per-epoch mean loss.
    """
    vols = list(train_volumes)
    if not vols:
        raise ValueError("no training volumes")
    shape = np.shape(vols[0])
    for i, v in enumerate(vols):
        if np.shape(v) != shape:
            raise ValueError(
                f"training volume {i} has shape {np.shape(v)}, not the {shape} of volume 0"
            )
    model = init_model(config, shape, train_volumes=vols)
    x_buf, x_hat, d_xhat = (np.empty((min(config.batch_size, len(vols)), model.n_voxels))
                            for _ in range(3))

    def step(idx, rng):
        eps = rng.standard_normal((len(idx), model.n_latent)) if config.sample_latent else None
        m = len(idx)
        x = x_buf[:m]
        np.stack([vols[i] for i in idx], out=x.reshape(m, *shape))
        terms, grads = loss_and_grads(model, x, eps, out=(x_hat[:m], d_xhat[:m]))
        return terms.total, grads

    model.loss_curve = optim.train(model.params, len(vols), config, step)
    return model


def save_model(model: AEModel, tensor_path, meta_path) -> None:
    """Write the model; a ``dec_w`` tied to ``enc_w_mean`` (PCA init) is stored once."""
    params = dict(model.params)
    if "dec_w" in params and np.shares_memory(params["dec_w"], params["enc_w_mean"]):
        del params["dec_w"]
    meta = {
        "config": asdict(model.config),
        "input_shape": list(model.input_shape),
        "loss_curve": model.loss_curve,
    }
    save_with_meta(tensor_path, meta_path, params, meta)


def load_model(tensor_path, meta_path) -> AEModel:
    params, meta, config = load_with_meta(tensor_path, meta_path, AEConfig, "train-ae")
    if "dec_w" not in params:
        params["dec_w"] = params["enc_w_mean"].T  # the PCA tie, restored
    return AEModel(
        config=config,
        input_shape=tuple(meta["input_shape"]),
        params=params,
        loss_curve=list(meta["loss_curve"]),
    )
