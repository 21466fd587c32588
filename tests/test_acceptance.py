"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line when its assertions hold,
so a ``pytest -v -s`` run doubles as the acceptance report.
"""

import itertools
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from fedbench import orchestrator
from fedbench.benchmarks import (
    benchmark_config,
    feature_shift_spec,
    label_skew_spec,
    small_model,
)
from fedbench.data_synth import PartitionSpec, generate
from fedbench.errors import WeightSumViolation
from fedbench.metrics import (
    INSIGNIFICANT,
    auprc,
    auroc,
    mann_whitney_u,
    significance_matrix,
)
from fedbench.nn import (
    Batch,
    Plan,
    init_params,
    local_sgd_step,
    model_backward,
    model_forward,
)
from fedbench.orchestrator import (
    ClientState,
    ExperimentConfig,
    client_rng,
    run_experiment,
    run_round,
)
from fedbench.params import (
    NORM,
    l2_distance_excluding_norm,
    load_checkpoint,
    make_weights,
    weighted_average,
)
from fedbench.strategies import (
    StrategyConfig,
    init_server_state,
    local_loss_grad,
)

from conftest import (
    assert_grads_close,
    fedopt_scalar_oracle,
    finite_difference_grads,
    forward_loss,
    make_model,
    random_batch,
    round_client,
    strategy_config,
    trainable_names,
)
from nn_oracle import to_vector


def report(n):
    print(f"criterion {n}: PASS")


# ---------------------------------------------------------------------------
# 1. collapse equivalences

def _records(algorithm, mu, rounds=10, seed=0):
    cfg = benchmark_config(algorithm, "feature_shift", rounds=rounds, local_epochs=1, mu=mu)
    return run_experiment(cfg, seed=seed).rounds


def test_criterion_1_collapse_equivalences():
    # fedprox(mu=0) == fedavg, bitwise on the round series
    for pair in (("fedprox", "fedavg"), ("fedpxn", "fedbn")):
        prox_records = _records(pair[0], mu=0.0)
        base_records = _records(pair[1], mu=0.0)
        for a, b in zip(prox_records, base_records):
            assert a.train_losses == b.train_losses
            assert a.val_metrics == b.val_metrics
            assert a.distances == b.distances
            assert a.mean_val_metric == b.mean_val_metric

    # K=1 fedavg == centralized local SGD with the same RNG schedule
    cfg = benchmark_config("fedavg", "feature_shift", rounds=3, local_epochs=2)
    cfg.data = replace(cfg.data, num_clients=1, sizes=[200])
    seed = 0
    ds = generate(cfg.data)[0]
    plan = Plan(cfg.model)
    params = init_params(plan, seed)
    from fedbench.nn import apply_running_stats

    for round_idx in range(cfg.rounds):
        rng = client_rng(seed, 0, round_idx)
        for _ in range(cfg.local_epochs):
            order = rng.permutation(ds.train.size)
            for start in range(0, ds.train.size, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                if len(idx) < 2:
                    continue
                batch = Batch.from_arrays(ds.train.inputs[idx], ds.train.labels[idx])
                _, _, cache = model_forward(plan, params, batch, mode="train")
                grad = model_backward(plan, params, cache)
                apply_running_stats(params, cache)
                local_sgd_step(params, grad, cfg.eta)

    w0 = init_params(plan, seed)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan)]
    for _ in range(cfg.rounds):
        server, _ = run_round(server, clients, cfg, seed, plan)
    for name, value in plan.entries(params).items():
        assert np.array_equal(plan.entries(server.global_params)[name], value)
    report(1)


# ---------------------------------------------------------------------------
# 2. gradient suite

def test_criterion_2_gradient_suite():
    kind_map = {
        "dense": [],
        "batch_norm": ["batch_norm"],
        "layer_norm": ["layer_norm"],
        "group_norm": ["group_norm"],
    }
    for kinds in kind_map.values():
        spec = make_model(kinds, input_dim=4, hidden=4, num_classes=2)
        plan = Plan(spec)
        for seed in range(20):
            w = init_params(plan, seed)
            batch = random_batch(spec, 8, seed + 1000)
            _, _, cache = model_forward(plan, w, batch, mode="train")
            grads = plan.entries(model_backward(plan, w, cache))
            fd = finite_difference_grads(forward_loss(plan, batch), plan, w)
            assert_grads_close(grads, fd)

    # modified objectives: fedprox, fedpxn, feddyn
    spec = make_model(["layer_norm"], input_dim=4, hidden=4, num_classes=2)
    plan = Plan(spec)
    for algorithm in ("fedprox", "fedpxn", "feddyn"):
        for seed in range(20):
            w = init_params(plan, seed)
            w_ref = init_params(plan, seed + 500)
            ref = plan.entries(w_ref)
            batch = random_batch(spec, 8, seed + 1000)
            mu, alpha = 0.7, 0.4
            strat = strategy_config(algorithm, mu=mu, alpha=alpha)
            dyn = None
            if algorithm == "feddyn":
                rng = np.random.default_rng(seed)
                dyn = rng.standard_normal(plan.n_train)
                prev_grad = plan.entries(dyn)

            _, _, cache = model_forward(plan, w, batch, mode="train")
            base = model_backward(plan, w, cache)
            grads = plan.entries(local_loss_grad(
                base, w, w_ref, plan.n_non_norm, strat, dyn
            ))

            def loss_fn(vec):
                _, loss, _ = model_forward(plan, vec, batch, mode="train")
                entries = plan.entries(vec)
                for name in trainable_names(plan):
                    diff = entries[name] - ref[name]
                    if algorithm == "fedprox":
                        loss += mu / 2.0 * float(np.sum(diff**2))
                    elif algorithm == "fedpxn":
                        if plan.tags[name] != NORM:
                            loss += mu / 2.0 * float(np.sum(diff**2))
                    else:
                        loss += alpha / 2.0 * float(np.sum(diff**2))
                        loss -= float(np.sum(prev_grad[name] * entries[name]))
                return loss

            fd = finite_difference_grads(loss_fn, plan, w)
            assert_grads_close(grads, fd)
    report(2)


# ---------------------------------------------------------------------------
# 3. aggregation oracle

def test_criterion_3_aggregation_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        size = int(rng.integers(1, 28))
        sets = [rng.standard_normal(size) for _ in range(k)]
        sizes = rng.integers(1, 100, k).tolist()
        weights = make_weights(sizes)
        avg = weighted_average(sets, weights)
        total = sum(sizes)
        naive = np.zeros(size)
        for j in range(k):
            for i in range(size):
                naive[i] += sizes[j] / total * sets[j][i]
        assert np.allclose(avg, naive, atol=1e-12, rtol=0)

    # weights outside 1 +/- 1e-12 are rejected
    bad = make_weights([1, 1])
    bad[0] += 1e-6
    with pytest.raises(WeightSumViolation):
        weighted_average(sets[:2], bad)
    report(3)


# ---------------------------------------------------------------------------
# 4. fedbn partition invariant + offline distance recompute

def test_criterion_4_fedbn_partition_invariant(tmp_path):
    cfg = benchmark_config("fedbn", "feature_shift", rounds=3, local_epochs=1)
    cfg.keep_all_checkpoints = True
    result = run_experiment(cfg, seed=0, out_dir=tmp_path)
    plan = Plan(cfg.model)
    datasets = generate(cfg.data)
    weights = make_weights([ds.n_k for ds in datasets])

    prev_agg = None
    for record in result.rounds:
        rows = load_checkpoint(tmp_path / "checkpoints" / f"round_{record.round:04d}.npz")
        client_sets = [rows[f"client_{cid}"] for cid in range(5)]
        # the aggregate is the n_k-weighted average of the round's clients,
        # norm entries included (the server's copy), and the next round
        # starts from it
        assert not record.diverged
        agg = to_vector(plan, rows["global_agg"].entries)
        clients = [to_vector(plan, c.entries) for c in client_sets]
        assert np.array_equal(agg, weighted_average(clients, weights))
        if prev_agg is not None:
            assert np.array_equal(to_vector(plan, rows["global_start"].entries), prev_agg)
        prev_agg = agg
        # at least one norm parameter differs across clients
        norm_diff = False
        for name in client_sets[0].entries:
            if client_sets[0].tags[name] == NORM:
                for other in client_sets[1:]:
                    if not np.array_equal(client_sets[0].entries[name], other.entries[name]):
                        norm_diff = True
        assert norm_diff

        # eq-3 distance recomputed offline matches the log to 1e-10
        w_start = to_vector(plan, rows["global_start"].entries)
        for cid, want in record.distances.items():
            got = l2_distance_excluding_norm(clients[cid], w_start, plan.non_norm_slots)
            assert got == pytest.approx(want, abs=1e-10)

    # after a round + broadcast every client evaluates with identical non-norm
    w0 = init_params(plan, 0)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan) for ds in datasets]
    server, _ = run_round(server, clients, cfg, 0, plan)
    merged = [plan.entries(c.eval_params) for c in clients]
    for name in merged[0]:
        if plan.tags[name] != NORM:
            for other in merged[1:]:
                assert np.array_equal(merged[0][name], other[name])
    report(4)


# ---------------------------------------------------------------------------
# 5. fedopt math

def test_criterion_5_fedopt_math():
    from fedbench.strategies import server_aggregate

    def scalar_set(w):
        return np.array([w])  # one trainable entry

    def update(target):
        return round_client(0, scalar_set(target))

    deltas = [0.8, -0.3, 0.5]
    for algorithm in ("fedadam", "fedadagrad", "fedyogi"):
        cfg = StrategyConfig(algorithm=algorithm, eta_g=0.5, gamma=0.01)
        # independent plain-float recomputation of the server update rule
        oracle = fedopt_scalar_oracle(algorithm, deltas, cfg.eta_g, cfg.gamma)
        state = init_server_state(scalar_set(0.0), cfg, 1)
        for d, expect in zip(deltas, oracle):
            target = state.global_params[0] + d
            state = server_aggregate(state, [update(target)], cfg)
            assert state.global_params[0] == pytest.approx(expect, abs=1e-12)

    # adagrad v non-decreasing over 50 rounds
    cfg = StrategyConfig(algorithm="fedadagrad", eta_g=0.01, gamma=0.01)
    state = init_server_state(scalar_set(0.0), cfg, 1)
    rng = np.random.default_rng(1)
    prev = state.v.copy()
    for _ in range(50):
        target = state.global_params[0] + rng.standard_normal()
        state = server_aggregate(state, [update(target)], cfg)
        assert np.all(state.v >= prev)
        prev = state.v.copy()
    report(5)


# ---------------------------------------------------------------------------
# 6. fig-1 drift trend

def test_criterion_6_proximal_shrinks_drift():
    for seed in (0, 1, 2):
        series = {}
        for algorithm, mu in (("fedbn", 0.0), ("fedpxn", 1.0)):
            cfg = benchmark_config(algorithm, "feature_shift", rounds=50,
                                   local_epochs=1, mu=mu)
            result = run_experiment(cfg, seed=seed)
            series[algorithm] = [
                float(np.mean(list(r.distances.values()))) for r in result.rounds
            ]
        for r in range(9, 50):
            assert series["fedpxn"][r] < series["fedbn"][r], (
                f"seed {seed}, round {r + 1}: fedpxn drift not below fedbn"
            )
    report(6)


# ---------------------------------------------------------------------------
# 7. schedule trend under a fixed budget

def test_criterion_7_fewer_local_epochs_win():
    splits = [(1, 60), (5, 12), (10, 6)]
    for algorithm, mu in (("fedavg", 0.0), ("fedpxn", 0.1)):
        wins = 0
        for seed in (0, 1, 2):
            best = {}
            for e, t in splits:
                cfg = benchmark_config(algorithm, "label_skew", rounds=t,
                                       local_epochs=e, mu=mu, eta=0.1)
                result = run_experiment(cfg, seed=seed)
                best[e] = max(r.mean_val_metric for r in result.rounds)
            if best[1] >= best[10]:
                wins += 1
        assert wins >= 2, f"{algorithm}: E=1 beat E=10 in only {wins}/3 seeds"
    report(7)


# ---------------------------------------------------------------------------
# 8. metric oracles

def _pairwise_auroc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _step_ap(scores, labels):
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        recall, precision = tp / n_pos, tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def _exact_mwu(a, b):
    n, m = len(a), len(b)
    pooled = list(a) + list(b)
    ranks = []
    for v in pooled:
        less = sum(1 for w in pooled if w < v)
        equal = sum(1 for w in pooled if w == v)
        ranks.append(less + (equal + 1) / 2.0)
    u_obs = sum(ranks[:n]) - n * (n + 1) / 2.0
    le = ge = total = 0
    for combo in itertools.combinations(range(n + m), n):
        u = sum(ranks[i] for i in combo) - n * (n + 1) / 2.0
        total += 1
        if u <= u_obs + 1e-9:
            le += 1
        if u >= u_obs - 1e-9:
            ge += 1
    return u_obs, min(1.0, 2.0 * min(le / total, ge / total))


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 500:
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2)  # quantized to force ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        assert auroc(scores, labels) == pytest.approx(
            _pairwise_auroc(scores, labels), abs=1e-12
        )
        assert auprc(scores, labels) == pytest.approx(
            _step_ap(list(scores), list(labels)), abs=1e-12
        )
        checked += 1

    for n in range(1, 12):
        for m in range(1, 13 - n):
            a = rng.integers(0, 4, n).astype(float)
            b = rng.integers(0, 4, m).astype(float)
            u, p = _exact_mwu(list(a), list(b))
            res = mann_whitney_u(a, b, method="exact")
            assert res.u_statistic == pytest.approx(u, abs=1e-12)
            assert res.p_value == pytest.approx(p, abs=1e-12)

    res = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert res.u_statistic == 0.0
    assert res.p_value == pytest.approx(0.1, abs=1e-12)
    report(8)


# ---------------------------------------------------------------------------
# 9. divergence handling

def test_criterion_9_divergence_handling(monkeypatch, caplog):
    original = orchestrator.run_local_training

    def sabotage(client, cfg, seed, round_idx, plan):
        client = original(client, cfg, seed, round_idx, plan)
        if client.client_id == 0 and round_idx == 0:
            # the published vector is read-only: replace its trainable prefix by NaN
            sabotaged = client.params.copy()
            sabotaged[:plan.n_train] = np.nan
            client.params = sabotaged
            client.diverged = True
        return client

    monkeypatch.setattr(orchestrator, "run_local_training", sabotage)
    cfg = benchmark_config("fedavg", "feature_shift", rounds=3, local_epochs=1)
    with caplog.at_level(logging.WARNING, logger="fedbench.orchestrator"):
        result = run_experiment(cfg, seed=0)

    assert result.rounds[0].diverged == [0]
    assert 0 not in result.rounds[0].distances
    assert any("diverged" in rec.message for rec in caplog.records)
    assert len(result.rounds) == 3  # the experiment completed
    assert np.isfinite(result.mean_test_metric)
    report(9)


# ---------------------------------------------------------------------------
# 10. end-to-end

ALL_ALGORITHMS = ("fedavg", "fedprox", "fedbn", "fedpxn",
                  "fedadam", "fedadagrad", "fedyogi", "feddyn")
LEARNING_MARGIN = 0.05  # best mean validation AUROC over round 1's


def test_criterion_10_end_to_end(tmp_path):
    import time

    t0 = time.perf_counter()
    per_alg = {}
    for algorithm in ALL_ALGORITHMS:
        metrics = []
        for seed in (0, 1, 2):
            cfg = benchmark_config(algorithm, "feature_shift", rounds=50, local_epochs=1)
            out = tmp_path / algorithm / f"seed_{seed}"
            result = run_experiment(cfg, seed=seed, out_dir=out)
            assert (out / "rounds.csv").exists()
            assert (out / "distances.csv").exists()
            record = json.loads((out / "result.json").read_text())
            assert record["algorithm"] == algorithm
            assert np.isfinite(record["mean_test_metric"])
            metrics.append(record["mean_test_metric"])
            # each run must learn, not only end finite; the smallest gain of a
            # working algorithm here is +0.134 (fedadagrad, seed 2)
            vals = [r.mean_val_metric for r in result.rounds]
            assert max(vals) - vals[0] >= LEARNING_MARGIN, (algorithm, seed, vals[0], max(vals))
        per_alg[algorithm] = metrics
    elapsed = time.perf_counter() - t0
    assert elapsed < 15 * 60, f"end-to-end took {elapsed:.0f}s"

    matrix = significance_matrix(per_alg)
    for a in per_alg:
        res, label = matrix[(a, a)]
        assert res.p_value == 1.0 and label == INSIGNIFICANT
        for b in per_alg:
            assert matrix[(a, b)][0].p_value == pytest.approx(
                matrix[(b, a)][0].p_value, abs=1e-12
            )
    report(10)
