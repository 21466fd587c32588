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
    load_paramset,
    make_weights,
    weighted_average,
)
from fedbench.strategies import (
    DynMemory,
    StrategyConfig,
    init_server_state,
    local_loss_grad,
)

from conftest import assert_grads_close, finite_difference_grads, make_model, random_batch


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
    params = plan.pack(init_params(cfg.model, seed))
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

    w0 = plan.pack(init_params(cfg.model, seed))
    server = init_server_state("fedavg", w0, cfg.strategy, plan.n_train)
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
            params = init_params(spec, seed)
            batch = random_batch(spec, 8, seed + 1000)
            w = plan.pack(params)
            _, _, cache = model_forward(plan, w, batch, mode="train")
            grads = plan.entries(model_backward(plan, w, cache))

            def loss_fn(p):
                _, loss, _ = model_forward(plan, plan.pack(p), batch, mode="train")
                return loss

            fd = finite_difference_grads(loss_fn, params, params.trainable_names())
            assert_grads_close(grads, fd)

    # modified objectives: fedprox, fedpxn, feddyn
    spec = make_model(["layer_norm"], input_dim=4, hidden=4, num_classes=2)
    plan = Plan(spec)
    for algorithm in ("fedprox", "fedpxn", "feddyn"):
        for seed in range(20):
            params = init_params(spec, seed)
            w_ref = init_params(spec, seed + 500)
            batch = random_batch(spec, 8, seed + 1000)
            mu, alpha = 0.7, 0.4
            strat = StrategyConfig(algorithm=algorithm, mu=mu, alpha=alpha)
            dyn = None
            if algorithm == "feddyn":
                rng = np.random.default_rng(seed)
                dyn = DynMemory(
                    client_id=0,
                    prev_grad=rng.standard_normal(plan.n_train),
                    initialized=True,
                )
                prev_grad = plan.entries(dyn.prev_grad)

            w = plan.pack(params)
            _, _, cache = model_forward(plan, w, batch, mode="train")
            base = model_backward(plan, w, cache)
            grads = plan.entries(local_loss_grad(
                algorithm, base, w, plan.pack(w_ref), plan.n_non_norm, strat, dyn
            ))

            def loss_fn(p):
                _, loss, _ = model_forward(plan, plan.pack(p), batch, mode="train")
                for name in p.trainable_names():
                    diff = p.entries[name] - w_ref.entries[name]
                    if algorithm == "fedprox":
                        loss += mu / 2.0 * float(np.sum(diff**2))
                    elif algorithm == "fedpxn":
                        if p.tags[name] != NORM:
                            loss += mu / 2.0 * float(np.sum(diff**2))
                    else:
                        loss += alpha / 2.0 * float(np.sum(diff**2))
                        loss -= float(np.sum(prev_grad[name] * p.entries[name]))
                return loss

            fd = finite_difference_grads(loss_fn, params, params.trainable_names())
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
        weights = make_weights({cid: n for cid, n in enumerate(sizes)})
        avg = weighted_average(sets, weights)
        total = sum(sizes)
        naive = np.zeros(size)
        for j in range(k):
            for i in range(size):
                naive[i] += sizes[j] / total * sets[j][i]
        assert np.allclose(avg, naive, atol=1e-12, rtol=0)

    # weights outside 1 +/- 1e-12 are rejected
    bad = list(make_weights({0: 1, 1: 1}))
    bad[0] = replace(bad[0], weight=bad[0].weight + 1e-6)
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

    for record in result.rounds:
        rdir = tmp_path / "checkpoints" / f"round_{record.round:04d}"
        client_sets = [
            load_paramset(rdir / f"client_{cid}.npz") for cid in range(5)
        ]
        agg = load_paramset(rdir / "global_agg.npz")
        # after broadcast at the next round all non-norm entries would be the
        # aggregated values; verify the aggregate itself is the shared part
        # and that at least one norm parameter differs across clients
        norm_diff = False
        for name in client_sets[0].names():
            if client_sets[0].tags[name] == NORM:
                for other in client_sets[1:]:
                    if not np.array_equal(client_sets[0].entries[name], other.entries[name]):
                        norm_diff = True
        assert norm_diff

        # eq-3 distance recomputed offline matches the log to 1e-10
        w_start = plan.pack(load_paramset(rdir / "global_start.npz"))
        for cid, want in record.distances.items():
            got = l2_distance_excluding_norm(plan.pack(client_sets[cid]), w_start,
                                             plan.non_norm_slots)
            assert got == pytest.approx(want, abs=1e-10)

    # after a round + broadcast every client evaluates with identical non-norm
    datasets = generate(cfg.data)
    w0 = plan.pack(init_params(cfg.model, 0))
    server = init_server_state("fedbn", w0, cfg.strategy, plan.n_train)
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
    from fedbench.strategies import ClientUpdate, server_aggregate

    def scalar_set(w):
        return np.array([w])  # one trainable entry

    def update(target):
        return ClientUpdate(client_id=0, params_after=scalar_set(target), n_k=1,
                            train_loss=0.0, diverged=False)

    deltas = [0.8, -0.3, 0.5]
    for algorithm in ("fedadam", "fedadagrad", "fedyogi"):
        cfg = StrategyConfig(algorithm=algorithm, eta_g=0.5, beta1=0.9, beta2=0.99,
                             gamma=0.01)
        # independent plain-float recomputation of the server update rule
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
            state = server_aggregate(algorithm, state, [update(target)], cfg)
            assert state.global_params[0] == pytest.approx(expect, abs=1e-12)

    # adagrad v non-decreasing over 50 rounds
    cfg = StrategyConfig(algorithm="fedadagrad", eta_g=0.01, gamma=0.01)
    state = init_server_state("fedadagrad", scalar_set(0.0), cfg, 1)
    rng = np.random.default_rng(1)
    prev = state.v.copy()
    for _ in range(50):
        target = state.global_params[0] + rng.standard_normal()
        state = server_aggregate("fedadagrad", state, [update(target)], cfg)
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

    def sabotage(client, fragment, cfg, seed, round_idx, plan):
        update = original(client, fragment, cfg, seed, round_idx, plan)
        if client.client_id == 0 and round_idx == 0:
            # the published vector is read-only: replace its trainable prefix by NaN
            sabotaged = update.params_after.copy()
            sabotaged[:plan.n_train] = np.nan
            update.params_after = sabotaged
            update.diverged = True
        return update

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
