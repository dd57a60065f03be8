"""The optimizer step shared by the autoencoder and the two learned priors."""

from __future__ import annotations

import numpy as np


def rmsprop_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                 state: dict[str, np.ndarray], learning_rate: float, decay: float) -> None:
    """One RMSProp update of params, with no momentum and no bias correction.

    ``state`` holds the running mean of squared gradients per parameter and
    is updated with it; parameter arrays are updated in place.
    """
    for k, g in grads.items():
        state[k] = decay * state[k] + (1.0 - decay) * g * g
        params[k] -= learning_rate * g / (np.sqrt(state[k]) + 1e-8)
