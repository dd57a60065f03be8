"""The optimizer step shared by the autoencoder and the two learned priors."""

from __future__ import annotations

import numpy as np

# Elements per block: the temporaries stay cache-sized, not parameter-sized.
BLOCK_ELEMENTS = 1 << 16


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
