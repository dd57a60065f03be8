"""The minibatch training loop and optimizer step shared by the autoencoder
and the two learned priors."""

from __future__ import annotations

from typing import Callable

import numpy as np

# Elements per block: the temporaries stay cache-sized, not parameter-sized.
BLOCK_ELEMENTS = 1 << 16
# Decay of the running mean of squared gradients, for every trained model.
RMSPROP_DECAY = 0.99


def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 state: dict[str, np.ndarray], learning_rate: float, decay: float) -> None:
    """One RMSProp update of params, with no momentum and no bias correction.

    ``state`` (running mean of squared gradients) and params are updated in
    place, a block of rows at a time in each parameter's memory order, by the
    operations of ``s = decay*s + (1-decay)*g*g; p -= lr*g/(sqrt(s)+1e-8)``
    in that order, so results are bit-identical to that whole-array form.
    """
    for k, g in grads.items():
        p, s = params[k], state[k]
        if p.flags.f_contiguous:
            p, s, g = p.T, s.T, g.T
        rows = max(1, BLOCK_ELEMENTS * len(p) // max(p.size, 1))
        for i in range(0, len(p), rows):
            pb, sb, gb = p[i:i + rows], s[i:i + rows], g[i:i + rows]
            t = (1.0 - decay) * gb
            t *= gb
            sb *= decay
            sb += t
            np.sqrt(sb, out=t)
            t += 1e-8
            u = learning_rate * gb
            u /= t
            pb -= u


def train(params: dict[str, np.ndarray], n: int, config,
          step: Callable[[np.ndarray, np.random.Generator], tuple[float, dict]],
          after_step: Callable[[], None] | None = None) -> list[float]:
    """Minibatch RMSProp over ``n`` examples; returns the per-epoch mean losses.

    Reads ``epochs``, ``batch_size``, ``learning_rate`` and ``seed`` from
    ``config``; the decay is ``RMSPROP_DECAY``.  Each epoch draws a
    permutation of the examples from ``default_rng(config.seed)``;
    ``step(idx, rng)`` gets the batch's indices and that same generator, so
    any draws it makes follow the permutation in one stream, and returns
    ``(loss, grads)``.  ``after_step`` runs after each update.  Raises on a
    non-finite loss.
    """
    rng = np.random.default_rng(config.seed)
    # In each parameter's memory order, from calloc: no page of the state is
    # touched before an update writes it, so a run of no epochs costs none.
    state = {k: np.zeros(p.shape, order="F" if p.flags.f_contiguous else "C")
             for k, p in params.items()}
    curve = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            loss, grads = step(order[start : start + config.batch_size], rng)
            if not np.isfinite(loss):
                raise RuntimeError("training diverged: non-finite loss")
            rmsprop_step(params, grads, state, config.learning_rate, RMSPROP_DECAY)
            del grads  # not alive while the next step's gradients are built
            if after_step is not None:
                after_step()
            epoch_total += loss
            n_batches += 1
        curve.append(epoch_total / n_batches)
    return curve
