"""The shared RMSProp step (in place, block by block, bit-identical to the
whole-array expression) and the minibatch loop around it."""

import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from latprog.optim import BLOCK_ELEMENTS, rmsprop_step, train

LR, DECAY = 1e-3, 0.99


def reference_step(params, grads, state, learning_rate, decay):
    """The whole-array form the blocked step must reproduce bit for bit."""
    for k, g in grads.items():
        state[k] = decay * state[k] + (1.0 - decay) * g * g
        params[k] -= learning_rate * g / (np.sqrt(state[k]) + 1e-8)


def _c_matrix(rng):
    return rng.standard_normal((48, 40))


def _fortran_view(rng):
    return rng.standard_normal((40, 48)).T


def _vector(rng):
    return rng.standard_normal(1000)


def _ragged_rows(rng):
    # Two rows fit in a block, so five rows leave a last block of one row.
    return rng.standard_normal((5, BLOCK_ELEMENTS // 3 + 1))


def _ragged_vector(rng):
    return rng.standard_normal(2 * BLOCK_ELEMENTS + 5)


@pytest.mark.parametrize("make", [_c_matrix, _fortran_view, _vector, _ragged_rows,
                                  _ragged_vector])
def test_matches_whole_array_expression(make):
    rng = np.random.default_rng(0)
    p0 = make(rng)
    params = {"w": p0.copy(order="K")}
    state = {"w": np.zeros_like(params["w"])}
    ref_params = {"w": p0.copy(order="K")}
    ref_state = {"w": np.zeros_like(p0)}
    for _ in range(3):
        g = rng.standard_normal(p0.shape)
        rmsprop_step(params, {"w": g}, state, LR, DECAY)
        reference_step(ref_params, {"w": g}, ref_state, LR, DECAY)
    assert params["w"].tobytes() == ref_params["w"].tobytes()
    assert state["w"].tobytes() == ref_state["w"].tobytes()


def test_keys_aliasing_one_buffer_apply_both_updates():
    # The PCA tie: one weight is the transposed view of another, and each
    # spans several blocks.
    rng = np.random.default_rng(1)
    shared = rng.standard_normal((8, BLOCK_ELEMENTS // 4 + 3))
    ref_shared = shared.copy()
    params = {"dec": shared.T, "enc": shared}
    ref_params = {"dec": ref_shared.T, "enc": ref_shared}
    state = {k: np.zeros_like(v) for k, v in params.items()}
    ref_state = {k: np.zeros_like(v) for k, v in ref_params.items()}
    for _ in range(3):
        grads = {"dec": rng.standard_normal(shared.T.shape),
                 "enc": rng.standard_normal(shared.shape)}
        rmsprop_step(params, grads, state, LR, DECAY)
        reference_step(ref_params, grads, ref_state, LR, DECAY)
    assert np.shares_memory(params["dec"], params["enc"])
    assert shared.tobytes() == ref_shared.tobytes()
    for k in state:
        assert np.array_equal(state[k], ref_state[k])


def test_step_allocates_far_less_than_the_parameter():
    rng = np.random.default_rng(2)
    params = {"w": rng.standard_normal((1024, 4096))}
    grads = {"w": rng.standard_normal((1024, 4096))}
    state = {"w": np.zeros_like(params["w"])}
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rmsprop_step(params, grads, state, LR, DECAY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < params["w"].nbytes / 8


# ------------------------------------------------------------- training loop

TARGETS = np.linspace(1.0, 2.0, 10)


def _config(**kw):
    base = dict(epochs=3, batch_size=4, learning_rate=0.05, seed=5)
    base.update(kw)
    return SimpleNamespace(**base)


def _quadratic(params, log):
    """Step for the loss mean((w - TARGETS[idx])**2); logs each batch and loss."""
    def step(idx, rng):
        r = params["w"][0] - TARGETS[idx]
        loss = float(np.mean(r * r))
        log.append((idx.copy(), loss))
        return loss, {"w": np.array([2.0 * np.mean(r)])}
    return step


def test_train_returns_epoch_means_over_permuted_batches():
    cfg = _config()
    params = {"w": np.zeros(1)}
    log = []
    curve = train(params, len(TARGETS), cfg, _quadratic(params, log))

    rng = np.random.default_rng(cfg.seed)
    want = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(TARGETS))
        want += [order[i:i + cfg.batch_size] for i in range(0, len(TARGETS), cfg.batch_size)]
    assert len(log) == len(want) == 9
    for (idx, _), w in zip(log, want):
        assert np.array_equal(idx, w)
    losses = [loss for _, loss in log]
    assert curve == [sum(losses[i:i + 3]) / 3 for i in range(0, 9, 3)]
    assert curve[-1] < curve[0]


def test_train_steps_draw_from_the_permutation_stream():
    cfg = _config(epochs=2, batch_size=5)
    draws = []

    def step(idx, rng):
        draws.append(rng.random())
        return 0.0, {"w": np.zeros(1)}

    train({"w": np.zeros(1)}, len(TARGETS), cfg, step)
    rng = np.random.default_rng(cfg.seed)
    want = []
    for _ in range(cfg.epochs):
        rng.permutation(len(TARGETS))
        want += [rng.random(), rng.random()]
    assert draws == want


def test_train_runs_after_step_once_per_update():
    params = {"w": np.zeros(1)}
    log, seen = [], []
    train(params, len(TARGETS), _config(), _quadratic(params, log),
          after_step=lambda: seen.append(params["w"][0]))
    assert len(seen) == len(log)
    assert seen[-1] == params["w"][0] != 0.0


def test_train_drops_gradients_before_the_next_step():
    alive = []

    def step(idx, rng):
        alive.append(sum(ref() is not None for ref in refs))
        g = np.ones(1)
        refs.append(weakref.ref(g))
        return 1.0, {"w": g}

    refs = []
    train({"w": np.zeros(1)}, len(TARGETS), _config(), step)
    assert alive == [0] * 9


def test_train_zero_epochs_is_identity():
    params = {"w": np.full(1, 0.5)}
    log = []
    assert train(params, len(TARGETS), _config(epochs=0), _quadratic(params, log)) == []
    assert log == [] and params["w"][0] == 0.5


def test_train_raises_on_non_finite_loss_before_updating():
    params = {"w": np.full(1, 0.5)}
    with pytest.raises(RuntimeError, match="training diverged"):
        train(params, len(TARGETS), _config(), lambda idx, rng: (np.nan, {"w": np.ones(1)}))
    assert params["w"][0] == 0.5
