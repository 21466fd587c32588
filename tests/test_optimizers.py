import numpy as np
import pytest

from fedbench.errors import KeyMismatch
from fedbench.nn import AdamState, local_adam_step, local_sgd_step


def scalar_params(value=1.0):
    return np.array([value])


def test_sgd_zero_gradient_is_identity():
    p = scalar_params(1.5)
    before = p.copy()
    local_sgd_step(p, np.zeros(1), eta=0.1)
    assert np.array_equal(p, before)


def test_sgd_single_step_arithmetic():
    p = np.array([1.0, 2.0])
    local_sgd_step(p, np.array([0.5, -0.5]), eta=0.1)
    assert np.allclose(p, [0.95, 2.05], atol=1e-15)


def test_sgd_two_steps_equals_double_eta_on_frozen_gradient():
    g = np.array([0.3])
    two, one = scalar_params(1.0), scalar_params(1.0)
    local_sgd_step(two, g, eta=0.05)
    local_sgd_step(two, g, eta=0.05)
    local_sgd_step(one, g, eta=0.1)
    assert np.allclose(two, one, atol=1e-12)


def test_sgd_passes_running_stats_through():
    p = np.array([1.0, 0.7])  # trainable w, then a running stat the gradient does not cover
    local_sgd_step(p, np.array([1.0]), eta=0.1)
    assert p[1] == 0.7


def test_sgd_key_mismatch():
    p = scalar_params()
    with pytest.raises(KeyMismatch):
        local_sgd_step(p, np.zeros(2), eta=0.1)


def test_adam_zero_gradient_zero_moments_is_identity():
    p = scalar_params(2.0)
    state = AdamState.zeros(1)
    local_adam_step(p, np.zeros(1), state, eta=0.1)
    assert np.array_equal(p, scalar_params(2.0))


def test_adam_first_step_moves_by_eta():
    p = scalar_params(1.0)
    state = AdamState.zeros(1)
    local_adam_step(p, np.ones(1), state, eta=0.1)
    assert p[0] == pytest.approx(0.9, abs=1e-8)
    assert state.step == 1


def test_adam_three_step_trajectory_matches_scalar_oracle():
    eta, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    grads = [0.4, -0.2, 0.7]

    # independent scalar recomputation
    w, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w -= eta * m_hat / (v_hat**0.5 + eps)

    p = scalar_params(1.0)
    state = AdamState.zeros(1)
    for g in grads:
        local_adam_step(p, np.array([g]), state, eta)
    assert p[0] == pytest.approx(w, abs=1e-12)
