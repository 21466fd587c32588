from dataclasses import replace

import numpy as np
import pytest

from fedbench import orchestrator
from fedbench.benchmarks import benchmark_config
from fedbench.data_synth import PartitionSpec, generate
from fedbench.errors import AllClientsDiverged, ConfigError, KeyMismatch, NoSelectableRound
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
    run_local_training,
    run_round,
    sweep_local_epochs,
)
from fedbench.params import l2_distance_excluding_norm, load_paramset
from fedbench.strategies import StrategyConfig, init_server_state

from conftest import make_model


def data_spec(num_clients=3, sizes=(60, 50, 40), seed=9, kind="label_skew"):
    return PartitionSpec(
        kind=kind,
        num_clients=num_clients,
        num_classes=3,
        input_dim=5,
        sizes=list(sizes),
        seed=seed,
    )


def experiment(algorithm="fedavg", norm=None, rounds=3, local_epochs=1, **kw):
    kinds = [norm] if norm else []
    strat_kw = {}
    if algorithm in ("fedprox", "fedpxn"):
        strat_kw["mu"] = kw.pop("mu", 0.1)
    return ExperimentConfig(
        model=make_model(kinds),
        strategy=StrategyConfig(algorithm=algorithm, **strat_kw),
        data=kw.pop("data", data_spec()),
        local_epochs=local_epochs,
        rounds=rounds,
        eta=kw.pop("eta", 0.1),
        batch_size=kw.pop("batch_size", 16),
        **kw,
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        experiment(local_epochs=0)
    with pytest.raises(ConfigError):
        experiment(rounds=0)
    with pytest.raises(ConfigError):
        experiment(eta=0.0)
    with pytest.raises(ConfigError):
        experiment(selection_metric="f1")


def test_total_budget():
    assert experiment(rounds=12, local_epochs=5).total_budget == 60


def test_single_client_fedavg_equals_centralized_sgd():
    """K=1 full participation collapses to an ordinary local SGD loop."""
    cfg = experiment(
        data=data_spec(num_clients=1, sizes=(80,)),
        rounds=2,
        local_epochs=2,
    )
    seed = 4
    from fedbench.data_synth import generate

    ds = generate(cfg.data)[0]
    # centralized reference: same init, same RNG schedule, plain SGD
    plan = Plan(cfg.model)
    params = plan.pack(init_params(cfg.model, seed))
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
                from fedbench.nn import apply_running_stats

                apply_running_stats(params, cache)
                local_sgd_step(params, grad, cfg.eta)

    result = run_experiment(cfg, seed=seed)
    # recover the final aggregated params by replaying the experiment
    w0 = plan.pack(init_params(cfg.model, seed))
    server = init_server_state("fedavg", w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan)]
    for _ in range(cfg.rounds):
        server, _ = run_round(server, clients, cfg, seed, plan)
    for name, value in plan.entries(params).items():
        assert np.array_equal(plan.entries(server.global_params)[name], value)
    assert len(result.rounds) == cfg.rounds


def test_single_round_single_batch_hand_stepped():
    """E=1, batch covering the whole train split: w1 = w0 - eta * grad."""
    cfg = experiment(
        data=data_spec(num_clients=1, sizes=(10,)),
        rounds=1,
        local_epochs=1,
        batch_size=7,  # train split is exactly 7 rows
        eta=0.05,
        selection_metric="accuracy",  # the 1-row val split cannot rank
    )
    from fedbench.data_synth import generate

    ds = generate(cfg.data)[0]
    seed = 0
    w0 = init_params(cfg.model, seed)
    rng = client_rng(seed, 0, 0)
    order = rng.permutation(7)
    batch = Batch.from_arrays(ds.train.inputs[order], ds.train.labels[order])
    plan = Plan(cfg.model)
    w = plan.pack(w0)
    _, _, cache = model_forward(plan, w, batch, mode="train")
    grad = plan.entries(model_backward(plan, w, cache))
    expected = {
        name: w0.entries[name] - 0.05 * grad[name]
        for name in w0.trainable_names()
    }

    server = init_server_state("fedavg", w, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w, cfg, plan)]
    server, record = run_round(server, clients, cfg, seed, plan)
    for name, want in expected.items():
        assert np.allclose(plan.entries(server.global_params)[name], want, atol=1e-15)
    assert record.round == 1


def test_fedbn_clients_keep_local_norm_params():
    cfg = experiment(algorithm="fedbn", norm="batch_norm", rounds=2)
    from fedbench.data_synth import generate

    datasets = generate(cfg.data)
    plan = Plan(cfg.model)
    w0 = plan.pack(init_params(cfg.model, 0))
    server = init_server_state("fedbn", w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan) for ds in datasets]
    for _ in range(2):
        server, _ = run_round(server, clients, cfg, 0, plan)
    gains = [plan.entries(c.params)["layer1.gain"].copy() for c in clients]
    assert not np.allclose(gains[0], gains[1], atol=1e-9)
    # while aggregated names are identical after broadcast at the next round
    from fedbench.strategies import broadcast_fragment

    frag = broadcast_fragment(server, plan.prefix(cfg.strategy.policy))
    assert len(frag) <= plan.slots["layer1.gain"][0]


def test_identical_data_and_rng_collapses_to_single_client(monkeypatch):
    """If every client sees the same data and RNG stream, the aggregate of
    equal-weight updates equals any single client's update."""
    base = data_spec(num_clients=1, sizes=(60,))
    from fedbench.data_synth import generate

    ds = generate(base)[0]
    monkeypatch.setattr(
        orchestrator, "client_rng", lambda seed, cid, rnd: np.random.default_rng([seed, 0, rnd])
    )
    cfg = experiment(data=base, rounds=2)
    plan = Plan(cfg.model)
    w0 = plan.pack(init_params(cfg.model, 0))
    server = init_server_state("fedavg", w0, cfg.strategy, plan.n_train)
    clients = []
    for cid in range(3):
        clone = type(ds)(
            client_id=cid, train=ds.train, val=ds.val, test=ds.test,
            n_k=ds.n_k, class_histogram=ds.class_histogram,
        )
        clients.append(ClientState.create(clone, w0, cfg, plan))
    for _ in range(2):
        server, _ = run_round(server, clients, cfg, 0, plan)
    assert np.allclose(server.global_params, clients[0].params, atol=1e-12)


def test_round_records_deterministic_and_timed():
    cfg = experiment(rounds=3)
    r1 = run_experiment(cfg, seed=1)
    r2 = run_experiment(cfg, seed=1)
    assert r1.selected_round == r2.selected_round
    for a, b in zip(r1.rounds, r2.rounds):
        assert a.train_losses == b.train_losses
        assert a.val_metrics == b.val_metrics
        assert a.distances == b.distances
        assert a.elapsed_seconds > 0.0


def test_selection_prefers_earliest_best_round():
    cfg = experiment(rounds=1)
    result = run_experiment(cfg, seed=0)
    assert result.selected_round == 1
    assert np.isfinite(result.mean_test_metric)


def test_distances_recomputable_from_checkpoints(tmp_path):
    cfg = experiment(rounds=3, keep_all_checkpoints=True)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path)
    plan = Plan(cfg.model)
    for record in result.rounds:
        rdir = tmp_path / "checkpoints" / f"round_{record.round:04d}"
        w_start = plan.pack(load_paramset(rdir / "global_start.npz"))
        for cid, want in record.distances.items():
            client = plan.pack(load_paramset(rdir / f"client_{cid}.npz"))
            got = l2_distance_excluding_norm(client, w_start, plan.non_norm_slots)
            assert got == pytest.approx(want, abs=1e-10)


def test_checkpoint_pruning_keeps_best_and_last(tmp_path):
    # seed 0 improves the validation metric at several non-final rounds, so
    # every former-best round directory must be pruned as well
    cfg = benchmark_config("fedavg", rounds=50)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path)
    assert result.selected_round < cfg.rounds
    ckpt = tmp_path / "checkpoints"
    assert {p.name for p in ckpt.iterdir()} == {"best", f"round_{cfg.rounds:04d}"}


def test_checkpoints_written_once_per_run(monkeypatch, tmp_path):
    calls = []
    original = orchestrator.save_paramset

    def counting(params, path):
        calls.append(path)
        return original(params, path)

    monkeypatch.setattr(orchestrator, "save_paramset", counting)
    cfg = benchmark_config("fedavg", rounds=50)
    run_experiment(cfg, seed=0, out_dir=tmp_path)
    num_clients = cfg.data.num_clients
    # global_start, global_agg and one file per client, for best/ and the last round
    assert len(calls) == 2 * (num_clients + 2) == 14
    assert len(set(calls)) == len(calls)


def assert_same_checkpoint(dir_a, dir_b):
    """Same .npz files holding the same arrays under the same keys."""
    files = sorted(p.name for p in dir_a.iterdir())
    assert files == sorted(p.name for p in dir_b.iterdir())
    for name in files:
        with np.load(dir_a / name) as a, np.load(dir_b / name) as b:
            assert a.files == b.files
            for key in a.files:
                assert np.array_equal(a[key], b[key]), f"{name}:{key}"


def test_snapshot_checkpoints_equal_keep_all_checkpoints(tmp_path):
    cfg = benchmark_config("fedavg", rounds=50)
    default = run_experiment(cfg, seed=0, out_dir=tmp_path / "default")
    keep_all = run_experiment(replace(cfg, keep_all_checkpoints=True), seed=0,
                              out_dir=tmp_path / "keep_all")
    assert default.selected_round == keep_all.selected_round < cfg.rounds
    a, b = tmp_path / "default" / "checkpoints", tmp_path / "keep_all" / "checkpoints"
    assert_same_checkpoint(a / "best", b / f"round_{default.selected_round:04d}")
    assert_same_checkpoint(a / "best", b / "best")
    assert_same_checkpoint(a / "round_0050", b / "round_0050")
    assert len(list(b.iterdir())) == cfg.rounds + 1


def test_all_clients_diverged_leaves_best_and_last_round(monkeypatch, tmp_path):
    cfg = experiment(rounds=5)
    run_experiment(replace(cfg, keep_all_checkpoints=True), seed=0, out_dir=tmp_path / "ref")
    original = orchestrator.run_local_training

    def diverge_in_round_3(client, fragment, cfg, seed, round_idx, plan):
        update = original(client, fragment, cfg, seed, round_idx, plan)
        update.diverged = update.diverged or round_idx == 2
        return update

    monkeypatch.setattr(orchestrator, "run_local_training", diverge_in_round_3)
    with pytest.raises(AllClientsDiverged):
        run_experiment(cfg, seed=0, out_dir=tmp_path / "run")
    ckpt = tmp_path / "run" / "checkpoints"
    assert {p.name for p in ckpt.iterdir()} == {"best", "round_0002"}
    # round 3 trained the clients before it failed; round_0002 holds round 2
    assert_same_checkpoint(ckpt / "round_0002", tmp_path / "ref" / "checkpoints" / "round_0002")


@pytest.mark.filterwarnings("ignore:Mean of empty slice")
def test_no_selectable_round_leaves_last_round(monkeypatch, tmp_path):
    monkeypatch.setattr(orchestrator, "evaluate", lambda *a, **k: float("nan"))
    with pytest.raises(NoSelectableRound):
        run_experiment(experiment(rounds=5), seed=0, out_dir=tmp_path)
    assert {p.name for p in (tmp_path / "checkpoints").iterdir()} == {"round_0005"}


@pytest.mark.filterwarnings("ignore:Mean of empty slice")
def test_all_nan_selection_is_typed_error(monkeypatch, tmp_path):
    monkeypatch.setattr(orchestrator, "evaluate", lambda *a, **k: float("nan"))
    cfg = experiment(rounds=2)
    with pytest.raises(NoSelectableRound, match="NaN in all 2 rounds"):
        run_experiment(cfg, seed=0, out_dir=tmp_path)
    assert (tmp_path / "rounds.csv").exists()


def test_output_files_written(tmp_path):
    cfg = experiment(rounds=2)
    run_experiment(cfg, seed=0, out_dir=tmp_path)
    assert (tmp_path / "rounds.csv").exists()
    assert (tmp_path / "distances.csv").exists()
    assert (tmp_path / "result.json").exists()


def test_sweep_budget_enforced():
    cfg = experiment(rounds=2)
    with pytest.raises(ConfigError):
        sweep_local_epochs(cfg, budget=60, splits=[(7, 9)])


def test_sweep_runs_each_split():
    cfg = experiment(rounds=2)
    rows = sweep_local_epochs(cfg, budget=4, splits=[(1, 4), (2, 2), (4, 1)])
    assert [(r["local_epochs"], r["rounds"]) for r in rows] == [(1, 4), (2, 2), (4, 1)]
    for row in rows:
        assert row["local_epochs"] * row["rounds"] == 4


def test_epoch_budget_instrumented(monkeypatch):
    """Total local epochs actually executed equals E*T per client."""
    counts = {}
    original = orchestrator.run_local_training

    def counting(client, fragment, cfg, seed, round_idx, plan):
        counts[client.client_id] = counts.get(client.client_id, 0) + cfg.local_epochs
        return original(client, fragment, cfg, seed, round_idx, plan)

    monkeypatch.setattr(orchestrator, "run_local_training", counting)
    cfg = experiment(rounds=3, local_epochs=2)
    run_experiment(cfg, seed=0)
    assert all(v == cfg.total_budget for v in counts.values())
    assert len(counts) == 3


def test_round_rejects_entries_keyed_unlike_the_model():
    """The layout check runs once per client round, as the round's vector is built."""
    cfg = experiment(norm="batch_norm", rounds=1)
    plan = Plan(cfg.model)
    ds = generate(cfg.data)[0]
    w0 = plan.pack(init_params(cfg.model, 0))
    with pytest.raises(KeyMismatch):  # a fragment longer than the model's vector
        run_local_training(ClientState.create(ds, w0, cfg, plan), np.zeros(plan.size + 1),
                           cfg, 0, 0, plan)
    # a client vector from another model: layer norm has no running stats
    other_plan = Plan(experiment(norm="layer_norm").model)
    other = other_plan.pack(init_params(other_plan.spec, 0))
    client = ClientState.create(ds, other, cfg, plan)
    with pytest.raises(KeyMismatch):
        run_local_training(client, w0, cfg, 0, 0, plan)
    # entries keyed or shaped unlike the model's never become a vector
    weight = init_params(cfg.model, 0).entries["layer0.weight"]
    for bad in (np.zeros((2, 2)), weight.T.copy()):  # wrong size; same size, wrong shape
        params = init_params(cfg.model, 0)
        params.entries["layer0.weight"] = bad
        with pytest.raises(KeyMismatch):
            plan.pack(params)
    params = init_params(cfg.model, 0)
    params.entries["layer9.weight"] = params.entries.pop("layer0.weight")  # no such entry
    with pytest.raises(KeyMismatch):
        plan.pack(params)


def test_later_rounds_leave_published_arrays_unchanged(monkeypatch, tmp_path):
    """Each round trains a fresh private vector in place, so what a round has
    published (the in-memory checkpoint snapshot, ``params_after``) and its
    round-start reference keep their bits while later rounds train."""
    held = []  # (array, its bits when the round that made it ended)

    def hold(arrays):
        held.extend((a, a.copy()) for a in arrays)

    real_train, real_snapshot = orchestrator.run_local_training, orchestrator._snapshot
    real_loss_grad = orchestrator.local_loss_grad
    refs = {}

    def loss_grad(algorithm, grad, w_local, w_global, *rest):
        refs[id(w_global)] = w_global
        return real_loss_grad(algorithm, grad, w_local, w_global, *rest)

    def train(*args):
        update = real_train(*args)
        hold([update.params_after])
        hold(refs.values())
        refs.clear()
        return update

    def snapshot(*args):
        snap = real_snapshot(*args)
        hold(snap.values())
        return snap

    monkeypatch.setattr(orchestrator, "local_loss_grad", loss_grad)
    monkeypatch.setattr(orchestrator, "run_local_training", train)
    monkeypatch.setattr(orchestrator, "_snapshot", snapshot)
    run_experiment(experiment(algorithm="fedprox", norm="batch_norm", rounds=4, local_epochs=2),
                   seed=0, out_dir=tmp_path)
    assert len(held) > 4 * 3 * 2
    for array, bits in held:
        assert np.array_equal(array, bits)
