import numpy as np
import pytest

from fedbench.errors import (
    AllClientsDiverged,
    ConfigError,
    MissingDynMemory,
    UninitializedOptState,
)
from fedbench.nn import Plan, init_params
from fedbench.params import ExclusionPolicy
from fedbench.strategies import (
    ClientUpdate,
    DynMemory,
    ServerState,
    StrategyConfig,
    broadcast_fragment,
    init_server_state,
    local_loss_grad,
    server_aggregate,
    update_dyn_memory,
)

from conftest import make_model


def scalar_set(w=1.0):
    """A one-entry parameter vector (one trainable entry ``w``)."""
    return np.array([w])


def test_config_rejects_policy_mismatch():
    with pytest.raises(ConfigError):
        StrategyConfig(algorithm="fedavg", policy=ExclusionPolicy.ALL_NORM_EXCLUDED)
    with pytest.raises(ConfigError):
        StrategyConfig(algorithm="fedbn", policy=ExclusionPolicy.NONE)


def test_policy_defaults_from_the_algorithm():
    assert StrategyConfig("fedbn").policy == ExclusionPolicy.ALL_NORM_EXCLUDED
    assert StrategyConfig("fedpxn", mu=0.1).policy == ExclusionPolicy.ALL_NORM_EXCLUDED
    for algorithm in ("fedavg", "fedprox", "fedadam", "feddyn"):
        assert StrategyConfig(algorithm).policy == ExclusionPolicy.NONE


def test_explicit_policy_none_for_fedbn_still_rejected():
    with pytest.raises(ConfigError) as err:
        StrategyConfig("fedbn", policy="none")
    assert err.value.field == "strategy.policy"


def test_unknown_policy_is_config_error():
    with pytest.raises(ConfigError) as err:
        StrategyConfig("fedbn", policy="bogus")
    assert err.value.field == "strategy.policy"


# ---------------------------------------------------------------------------
# local objective modifiers

def test_fedprox_mu_zero_is_base_grad():
    base = np.array([0.3])
    out = local_loss_grad("fedprox", base, np.array([2.0]), np.array([1.0]), 1,
                          StrategyConfig("fedprox", mu=0.0))
    assert out is base


def test_fedprox_scalar_example():
    base = np.array([0.3])
    out = local_loss_grad("fedprox", base, np.array([2.0]), np.array([1.0]), 1,
                          StrategyConfig("fedprox", mu=0.1))
    assert out[0] == pytest.approx(0.4, abs=1e-15)


def test_fedpxn_skips_norm_entries():
    # vector layout: the non-norm entry w, then the norm gain (norm_start = 1)
    local = np.array([2.0, 5.0])
    glob = np.array([1.0, 0.0])
    base = np.array([0.3, 0.2])
    out = local_loss_grad("fedpxn", base, local, glob, 1, StrategyConfig("fedpxn", mu=0.1))
    assert out[1] == pytest.approx(0.2, abs=1e-15)  # no proximal pull
    assert out[0] == pytest.approx(0.4, abs=1e-15)


def test_feddyn_requires_memory():
    base = np.array([0.1])
    with pytest.raises(MissingDynMemory):
        local_loss_grad("feddyn", base, np.array([1.0]), np.array([1.0]), 1,
                        StrategyConfig("feddyn", alpha=0.1))


def test_feddyn_gradient_matches_finite_difference_of_modified_objective():
    # frozen quadratic base objective F(w) = 0.5*(w - c)^2 per coordinate
    rng = np.random.default_rng(3)
    c = rng.standard_normal(4)
    w_global = rng.standard_normal(4)
    prev_grad = rng.standard_normal(4)
    alpha = 0.37

    def modified(w):
        return float(
            0.5 * np.sum((w - c) ** 2)
            - np.dot(prev_grad, w)
            + alpha / 2.0 * np.sum((w - w_global) ** 2)
        )

    w = rng.standard_normal(4)
    dyn = DynMemory(client_id=0, prev_grad=prev_grad.copy(), initialized=True)
    out = local_loss_grad("feddyn", w - c, w.copy(), w_global.copy(), 4,
                          StrategyConfig("feddyn", alpha=alpha), dyn)

    h = 1e-5
    for i in range(4):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        fd = (modified(up) - modified(down)) / (2 * h)
        assert out[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_update_dyn_memory_first_call_and_zero_grad():
    dyn = DynMemory(client_id=0)
    new = update_dyn_memory(dyn, np.array([0.5]))
    assert new.initialized
    assert new.prev_grad[0] == 0.5

    zeroed = update_dyn_memory(new, np.zeros(1))
    base = np.array([0.2])
    cfg = StrategyConfig("feddyn", alpha=0.3)
    out = local_loss_grad("feddyn", base, np.array([2.0]), np.array([1.0]), 1, cfg, zeroed)
    assert out[0] == pytest.approx(0.2 + 0.3 * 1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# server state & aggregation

def test_init_server_state_fedavg_has_no_moments():
    w0 = scalar_set()
    state = init_server_state("fedavg", w0, StrategyConfig("fedavg"), 1)
    assert state.m is None and state.v is None and state.round == 0


def test_init_server_state_fedadam_moments():
    w0 = scalar_set()
    state = init_server_state("fedadam", w0, StrategyConfig("fedadam", gamma=0.1), 1)
    assert np.array_equal(state.m, np.zeros(1))
    assert np.allclose(state.v, 0.01)


def test_init_deterministic_w0():
    spec = make_model(["batch_norm"])
    a, b = init_params(spec, seed=7), init_params(spec, seed=7)
    for name in a.names():
        assert np.array_equal(a.entries[name], b.entries[name])


def update(cid, params, n_k=1, diverged=False):
    return ClientUpdate(client_id=cid, params_after=params, n_k=n_k,
                        train_loss=0.0, diverged=diverged)


def test_fedavg_single_client_exact():
    w0 = scalar_set(1.0)
    state = init_server_state("fedavg", w0, StrategyConfig("fedavg"), 1)
    client = scalar_set(3.141592653589793)
    new = server_aggregate("fedavg", state, [update(0, client)], StrategyConfig("fedavg"))
    assert new.global_params[0] == client[0]
    assert new.round == 1


def test_all_diverged_raises():
    w0 = scalar_set()
    state = init_server_state("fedavg", w0, StrategyConfig("fedavg"), 1)
    with pytest.raises(AllClientsDiverged):
        server_aggregate("fedavg", state, [update(0, scalar_set(), diverged=True)], StrategyConfig("fedavg"))


def test_diverged_clients_excluded():
    w0 = scalar_set(0.0)
    state = init_server_state("fedavg", w0, StrategyConfig("fedavg"), 1)
    ups = [update(0, scalar_set(2.0)), update(1, scalar_set(np.nan), diverged=True)]
    new = server_aggregate("fedavg", state, ups, StrategyConfig("fedavg"))
    assert new.global_params[0] == 2.0


def test_fedopt_requires_initialized_moments():
    state = ServerState(global_params=scalar_set())
    with pytest.raises(UninitializedOptState):
        server_aggregate("fedadam", state, [update(0, scalar_set(2.0))], StrategyConfig("fedadam"))


def test_fedadagrad_scalar_first_round():
    cfg = StrategyConfig("fedadagrad", eta_g=1.0, beta1=0.9, gamma=0.01)
    state = init_server_state("fedadagrad", scalar_set(0.0), cfg, 1)
    new = server_aggregate("fedadagrad", state, [update(0, scalar_set(1.0))], cfg)
    # delta=1: v = 1e-4 + 1, m = 0.1, step = 0.1/(sqrt(1.0001)+0.01)
    expected = 0.1 / (np.sqrt(1.0001) + 0.01)
    assert new.v[0] == pytest.approx(1.0001, abs=1e-15)
    assert new.global_params[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.0990, abs=5e-4)


def test_fedyogi_fixpoint_when_v_equals_delta_squared():
    cfg = StrategyConfig("fedyogi", eta_g=0.1, beta2=0.9, gamma=0.001)
    state = init_server_state("fedyogi", scalar_set(0.0), cfg, 1)
    delta = cfg.gamma  # so delta^2 == v_0 == gamma^2
    new = server_aggregate("fedyogi", state, [update(0, scalar_set(delta))], cfg)
    assert new.v[0] == pytest.approx(cfg.gamma**2, abs=1e-20)


def test_fedadagrad_v_monotone_over_rounds():
    cfg = StrategyConfig("fedadagrad", eta_g=0.01, gamma=0.01)
    state = init_server_state("fedadagrad", scalar_set(0.0), cfg, 1)
    rng = np.random.default_rng(0)
    prev_v = state.v.copy()
    for _ in range(50):
        target = state.global_params[0] + rng.standard_normal()
        state = server_aggregate("fedadagrad", state, [update(0, scalar_set(target))], cfg)
        assert np.all(state.v >= prev_v)
        prev_v = state.v.copy()


@pytest.mark.parametrize("algorithm", ["fedadam", "fedadagrad", "fedyogi"])
def test_fedopt_step_direction_matches_momentum_sign(algorithm):
    cfg = StrategyConfig(algorithm, eta_g=0.1, gamma=0.01)
    state = init_server_state(algorithm, scalar_set(0.0), cfg, 1)
    rng = np.random.default_rng(4)
    for _ in range(5):
        w_before = state.global_params.copy()
        target = w_before[0] + rng.standard_normal()
        state = server_aggregate(algorithm, state, [update(0, scalar_set(target))], cfg)
        step = state.global_params - w_before
        assert np.all(np.sign(step) == np.sign(state.m))


@pytest.mark.parametrize(
    "algorithm", ["fedavg", "fedprox", "fedbn", "fedpxn", "fedadam", "fedadagrad", "fedyogi", "feddyn"]
)
def test_aggregation_idempotent_on_unchanged_clients(algorithm):
    spec = make_model(["batch_norm"])
    plan = Plan(spec)
    w0 = plan.pack(init_params(spec, seed=1))
    cfg = StrategyConfig(algorithm)
    state = init_server_state(algorithm, w0, cfg, plan.n_train)
    ups = [update(cid, w0.copy(), n_k=cid + 1) for cid in range(3)]
    new = server_aggregate(algorithm, state, ups, cfg)
    assert np.allclose(new.global_params, w0, atol=1e-14)


def test_fedopt_three_round_scalar_trajectory_matches_oracle():
    for algorithm in ("fedadam", "fedadagrad", "fedyogi"):
        cfg = StrategyConfig(algorithm, eta_g=0.5, beta1=0.9, beta2=0.99, gamma=0.01)
        deltas = [0.8, -0.3, 0.5]

        # independent plain-float recomputation of the server rule
        w, m, v = 0.0, 0.0, cfg.gamma**2
        oracle = []
        for d in deltas:
            m = cfg.beta1 * m + (1 - cfg.beta1) * d
            if algorithm == "fedadam":
                v = cfg.beta2 * v + (1 - cfg.beta2) * d * d
            elif algorithm == "fedadagrad":
                v = v + d * d
            else:
                v = v - (1 - cfg.beta2) * d * d * np.sign(v - d * d)
                v = max(v, cfg.gamma**2)
            w = w + cfg.eta_g * m / (v**0.5 + cfg.gamma)
            oracle.append(w)

        state = init_server_state(algorithm, scalar_set(0.0), cfg, 1)
        for d, expect in zip(deltas, oracle):
            target = state.global_params[0] + d
            state = server_aggregate(algorithm, state, [update(0, scalar_set(target))], cfg)
            assert state.global_params[0] == pytest.approx(expect, abs=1e-12)


def test_uniform_pseudo_gradient_switch():
    cfg = StrategyConfig("fedadam", eta_g=0.1, gamma=0.01, uniform_pseudo_grad=True)
    state = init_server_state("fedadam", scalar_set(0.0), cfg, 1)
    ups = [update(0, scalar_set(1.0), n_k=1), update(1, scalar_set(0.0), n_k=99)]
    new = server_aggregate("fedadam", state, ups, cfg)
    # uniform: delta = 0.5, not 0.01
    assert new.m[0] == pytest.approx(0.05, abs=1e-15)


def test_broadcast_fragment_respects_policy():
    spec = make_model(["batch_norm"])
    plan = Plan(spec)
    cfg = StrategyConfig("fedbn")
    state = init_server_state("fedbn", plan.pack(init_params(spec, seed=0)), cfg, plan.n_train)
    frag = broadcast_fragment(state, plan.prefix(cfg.policy))
    assert plan.slots["layer1.gain"][0] >= len(frag)
    assert plan.slots["layer1.running_mean"][0] >= len(frag)
    assert plan.slots["layer0.weight"][1] <= len(frag)
    assert np.array_equal(frag, state.global_params[:len(frag)])
