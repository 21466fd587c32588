"""The local training step gives the same bits as its wrapper-based oracle.

``nn_oracle`` holds the forward, backward and optimizer code written with
``np.mean``/``np.var``, per-step one-hot targets, per-step ParamSet copies and
per-entry Adam moments, over named entries (``test_server_bitwise.py`` does the
same for the server, the drift and the evaluation vectors).  The layer plan works on one flat
vector; ``nn_oracle.to_paramset`` and ``Plan.entries`` translate between the two.  Every
comparison here is ``np.array_equal`` or ``==``: the faster code must not move
a single bit.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nn_oracle as oracle
from conftest import make_model, strategy_config
from fedbench import orchestrator
from fedbench.data_synth import PartitionSpec, generate, write_partition
from fedbench.nn import (
    AdamState,
    Batch,
    Plan,
    apply_running_stats,
    init_params,
    labels_to_targets,
    local_adam_step,
    local_sgd_step,
    model_backward,
    model_forward,
)
from fedbench.orchestrator import ClientState, ExperimentConfig, client_rng, run_local_training
from fedbench.strategies import ALGORITHMS, StrategyConfig


def data_spec(num_clients, sizes):
    return PartitionSpec(kind="label_skew", num_clients=num_clients, num_classes=3,
                         input_dim=5, sizes=list(sizes), seed=9)


def bce_model(kinds, input_dim=5, hidden=6, num_classes=3, groups=2):
    spec = make_model(kinds, input_dim, hidden, num_classes, groups)
    return replace(spec, loss="binary_cross_entropy")


def perturbed_params(plan, seed):
    """init_params with gains, biases and running stats moved off 1 and 0."""
    w = init_params(plan, seed)
    rng = np.random.default_rng([seed, 1])
    for name, value in plan.entries(w).items():
        if not name.endswith(".weight"):
            noise = rng.standard_normal(value.shape)
            value += np.abs(noise) if "running_var" in name else noise
    return w


def random_labels(spec, n, rng, multi_hot):
    if multi_hot:
        return (rng.random((n, spec.num_classes)) < 0.4).astype(float)
    return rng.integers(0, spec.num_classes, n)


KINDS = [[], ["batch_norm"], ["layer_norm"], ["group_norm"], ["batch_norm", "group_norm"]]
HEADS = {"softmax": make_model, "sigmoid": bce_model}


@pytest.mark.parametrize("head", sorted(HEADS))
@pytest.mark.parametrize("kinds", KINDS, ids=lambda k: "+".join(k) or "dense")
@pytest.mark.parametrize("hidden,groups", [(6, 2), (16, 2), (40, 4)])
def test_train_forward_backward_match_oracle(head, kinds, hidden, groups):
    spec = HEADS[head](kinds, input_dim=7, hidden=hidden, groups=groups)
    plan = Plan(spec)
    rng = np.random.default_rng([hidden, len(kinds)])
    for trial in range(12):
        w = perturbed_params(plan, trial)
        params = oracle.to_paramset(plan, w)
        n = int(rng.integers(2, 70))
        x = rng.standard_normal((n, spec.input_dim)) * rng.uniform(0.1, 10.0)
        labels = random_labels(spec, n, rng, multi_hot=head == "sigmoid" and trial % 2 == 1)
        batch = Batch(x, labels)

        probs, loss, cache = model_forward(plan, w, batch, mode="train")
        o_probs, o_loss, o_cache = oracle.model_forward(spec, params, batch, mode="train")
        assert np.array_equal(probs, o_probs)
        assert loss == o_loss
        moved = w.copy()
        apply_running_stats(moved, cache)
        stats = {n: v for n, v in plan.entries(moved).items() if not plan.trainable[n]}
        assert stats.keys() == o_cache.updated_running_stats.keys()
        for name, value in stats.items():
            assert np.array_equal(value, o_cache.updated_running_stats[name]), name

        grads = plan.entries(model_backward(plan, cache))
        o_grads = oracle.model_backward(spec, params, o_cache)
        assert grads.keys() == o_grads.keys()
        for name, g in grads.items():
            assert np.array_equal(g, o_grads[name]), name

        # the same rows with precomputed targets, as the training loop feeds them
        targets = labels_to_targets(spec, labels)
        fed = Batch(inputs=batch.inputs, labels=batch.labels, targets=targets)
        probs_t, loss_t, _ = model_forward(plan, w, fed, mode="train")
        assert np.array_equal(probs_t, o_probs) and loss_t == o_loss

        e_probs, e_loss, _ = model_forward(plan, w, batch, mode="eval")
        o_e_probs, o_e_loss, _ = oracle.model_forward(spec, params, batch, mode="eval")
        assert np.array_equal(e_probs, o_e_probs) and e_loss == o_e_loss


def test_gathered_targets_equal_per_batch_one_hot():
    spec = make_model(["batch_norm"])
    rng = np.random.default_rng(3)
    labels = rng.integers(0, spec.num_classes, 50)
    targets = labels_to_targets(spec, labels)
    for _ in range(20):
        idx = rng.permutation(50)[: int(rng.integers(2, 50))]
        assert np.array_equal(targets[idx], oracle.labels_to_targets(spec, labels[idx]))


def random_grad(plan, rng):
    """A flat gradient and its named view, as the oracle takes it."""
    g = rng.standard_normal(plan.n_train)
    return g, plan.entries(g)


def test_sgd_trajectory_matches_oracle():
    spec = make_model(["batch_norm"])
    plan = Plan(spec)
    w = perturbed_params(plan, 0)
    o_params = oracle.to_paramset(plan, w)
    rng = np.random.default_rng(5)
    for _ in range(3):
        grad, named = random_grad(plan, rng)
        local_sgd_step(w, grad, 0.07)
        o_params = oracle.local_sgd_step(o_params, named, 0.07)
        params = plan.entries(w)
        assert list(params) == list(o_params.entries)
        for name, value in params.items():
            assert np.array_equal(value, o_params.entries[name]), name


@pytest.mark.parametrize("kinds", [["batch_norm"], ["group_norm"]])
def test_adam_trajectory_matches_oracle(kinds):
    spec = make_model(kinds)
    plan = Plan(spec)
    w = perturbed_params(plan, 1)
    o_params = oracle.to_paramset(plan, w)
    state, o_state = AdamState.zeros(plan.n_train), oracle.AdamState.zeros(o_params)
    rng = np.random.default_rng(6)
    for _ in range(3):
        grad, named = random_grad(plan, rng)
        local_adam_step(w, grad, state, 0.01)
        o_params, o_state = oracle.local_adam_step(o_params, named, o_state, 0.01)
        assert state.step == o_state.step
        for name, value in plan.entries(w).items():
            assert np.array_equal(value, o_params.entries[name]), name
        for name, m in plan.entries(state.m).items():
            assert np.array_equal(m, o_state.m[name]), name
            assert np.array_equal(plan.entries(state.v)[name], o_state.v[name]), name


def test_optimizer_steps_write_only_the_trainable_prefix():
    spec = make_model(["batch_norm"])
    plan = Plan(spec)
    w0 = perturbed_params(plan, 2)
    grad = np.random.default_rng(7).standard_normal(plan.n_train)
    grad_before = grad.copy()
    for step in (lambda w: local_sgd_step(w, grad, 0.1),
                 lambda w: local_adam_step(w, grad, AdamState.zeros(plan.n_train), 0.1)):
        w = w0.copy()
        step(w)
        assert np.array_equal(grad, grad_before)  # the gradient is read, not written
        assert np.array_equal(w[plan.n_train:], w0[plan.n_train:])  # running stats
        assert not np.any(w[:plan.n_train] == w0[:plan.n_train])


MODELS = {
    "batch_norm": lambda: make_model(["batch_norm"]),
    "layer_norm": lambda: make_model(["layer_norm"]),
    "group_norm": lambda: make_model(["group_norm"]),
    "no_norm": lambda: make_model([]),
    "sigmoid_bce": lambda: bce_model(["batch_norm"]),
}


@pytest.mark.parametrize("model", sorted(MODELS) + ["two_classes"])
def test_init_params_matches_oracle(model):
    spec = make_model(["batch_norm"], num_classes=2) if model == "two_classes" else MODELS[model]()
    plan = Plan(spec)
    for seed in (0, 1, 7, 12345):
        want = oracle.init_params(spec, seed)
        got = plan.entries(init_params(plan, seed))
        assert list(got) == list(want.entries) == plan.names
        assert want.tags == plan.tags and want.trainable == plan.trainable
        for name, value in got.items():
            assert np.array_equal(value, want.entries[name]), name


# batch norm, the model of the original four cases, keeps their ids
ORACLE_LOOP_CASES = [
    pytest.param(algorithm, optimizer, model,
                 id="-".join([algorithm, optimizer] + ([model] if model != "batch_norm" else [])))
    for algorithm in ALGORITHMS for optimizer in ("sgd", "adam") for model in sorted(MODELS)
]


@pytest.mark.parametrize("algorithm,optimizer,model", ORACLE_LOOP_CASES)
def test_local_training_matches_oracle_loop(algorithm, optimizer, model):
    """run_local_training against the per-step loop written with the oracle."""
    strategy = strategy_config(algorithm, mu=0.1)
    cfg = ExperimentConfig(
        model=MODELS[model](), strategy=strategy,
        data=data_spec(num_clients=1, sizes=(90,)), local_epochs=2, rounds=1, eta=0.05,
        local_optimizer=optimizer, batch_size=16,
    )
    plan = Plan(cfg.model)
    ds = generate(cfg.data)[0]
    seed, round_idx = 3, 0
    w_start = perturbed_params(plan, seed)
    w0 = oracle.to_paramset(plan, w_start)
    dyn = o_prev = None
    if algorithm == "feddyn":  # a memory from an earlier round
        dyn = np.random.default_rng(8).standard_normal(plan.n_train)
        o_prev = plan.entries(dyn)

    params = w0.copy()
    o_state = oracle.AdamState.zeros(params)
    rng = client_rng(seed, 0, round_idx)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(ds.train.size)
        for start in range(0, ds.train.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            batch = Batch(ds.train.inputs[idx], ds.train.labels[idx])
            _, _, cache = oracle.model_forward(cfg.model, params, batch, mode="train")
            base = oracle.model_backward(cfg.model, params, cache)
            oracle.apply_running_stats(params, cache)
            grad = oracle.local_loss_grad(algorithm, base, params, w0, strategy, o_prev)
            if optimizer == "adam":
                params, o_state = oracle.local_adam_step(params, grad, o_state, cfg.eta)
            else:
                params = oracle.local_sgd_step(params, grad, cfg.eta)

    client = ClientState.create(ds, w_start, cfg, plan)
    client.dyn = dyn
    before = w_start.copy()
    assert run_local_training(client, cfg, seed, round_idx, plan) is client
    assert not client.diverged
    trained = plan.entries(client.params)
    for name, value in params.entries.items():
        assert np.array_equal(trained[name], value), name
    assert np.array_equal(w_start, before)  # training never wrote into a vector it was handed
    if algorithm == "feddyn":
        memory = plan.entries(client.dyn)
        for name, want in oracle.update_dyn_memory(o_prev, params, w0, strategy.alpha).items():
            assert np.array_equal(memory[name], want), name


def test_sweep_loads_the_partition_once(tmp_path, monkeypatch):
    manifest = write_partition(data_spec(num_clients=2, sizes=(60, 50)), tmp_path / "part")
    cfg = ExperimentConfig(
        model=make_model(["batch_norm"]), strategy=StrategyConfig(algorithm="fedavg"),
        data=str(manifest), local_epochs=1, rounds=2, eta=0.05, batch_size=16, seeds=[0, 1],
    )
    loads = []
    real_load = orchestrator.load_partition

    def counting_load(path, *rest):
        loads.append(Path(path))
        return real_load(path, *rest)

    monkeypatch.setattr(orchestrator, "load_partition", counting_load)
    rows = orchestrator.sweep_local_epochs(cfg, [(1, 2), (2, 1)], orchestrator.load_clients(cfg),
                                           out_dir=tmp_path / "sweep")
    assert loads == [manifest]
    assert len(rows) == 4

    # each sweep cell equals a run that loads the partition itself
    loads.clear()
    for row in rows:
        split = replace(cfg, local_epochs=row["local_epochs"], rounds=row["rounds"])
        alone = orchestrator.run_experiment(split, row["seed"])
        assert alone.mean_test_metric == row["mean_test_metric"]
        assert alone.selected_round == row["selected_round"]
    assert len(loads) == len(rows)
