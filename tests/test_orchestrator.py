import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedbench import orchestrator
from fedbench.benchmarks import benchmark_config
from fedbench.data_synth import PartitionSpec, generate, write_partition
from fedbench.errors import (
    AllClientsDiverged,
    ConfigError,
    NoSelectableRound,
    NonFiniteLoss,
    SchemaMismatch,
    ShapeMismatch,
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
    run_local_training,
    run_round,
    sweep_local_epochs,
)
from fedbench.params import l2_distance_excluding_norm, load_checkpoint
from fedbench.strategies import init_server_state

from conftest import make_model, strategy_config
from nn_oracle import to_vector

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Tracer, summarize, traced  # noqa: E402
from perfbench.workloads import Work  # noqa: E402


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
    return ExperimentConfig(
        model=make_model(kinds),
        strategy=strategy_config(algorithm, mu=kw.pop("mu", 0.1)),
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
    params = init_params(plan, seed)
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
    w0 = init_params(plan, seed)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
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
    plan = Plan(cfg.model)
    w = init_params(plan, seed)
    rng = client_rng(seed, 0, 0)
    order = rng.permutation(7)
    batch = Batch.from_arrays(ds.train.inputs[order], ds.train.labels[order])
    _, _, cache = model_forward(plan, w, batch, mode="train")
    grad = plan.entries(model_backward(plan, w, cache))
    w0 = plan.entries(w)
    expected = {name: w0[name] - 0.05 * g for name, g in grad.items()}

    server = init_server_state(w, cfg.strategy, plan.n_train)
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
    w0 = init_params(plan, 0)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan) for ds in datasets]
    for _ in range(2):
        server, _ = run_round(server, clients, cfg, 0, plan)
    gains = [plan.entries(c.params)["layer1.gain"].copy() for c in clients]
    assert not np.allclose(gains[0], gains[1], atol=1e-9)
    # while aggregated names are identical after broadcast at the next round
    from fedbench.strategies import broadcast_fragment

    frag = broadcast_fragment(server, cfg.strategy.shared_prefix(plan))
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
    w0 = init_params(plan, 0)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
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


def test_non_finite_test_loss_scores_nan(monkeypatch, tmp_path):
    """A client whose test loss is non-finite gets a NaN test metric, as a
    non-finite validation loss does, and the run still writes its record."""
    cfg = experiment(rounds=2)
    datasets = generate(cfg.data)
    bad = datasets[1]
    real_evaluate = orchestrator.evaluate

    def evaluate(plan, params, batch, metric):
        if batch.inputs is bad.test.inputs:
            raise NonFiniteLoss("loss = nan")
        return real_evaluate(plan, params, batch, metric)

    monkeypatch.setattr(orchestrator, "evaluate", evaluate)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path, datasets=datasets)
    others = [v for cid, v in result.test_metrics.items() if cid != bad.client_id]
    assert np.isnan(result.test_metrics[bad.client_id])
    assert len(others) == 2 and np.isfinite(others).all()
    assert result.mean_test_metric == np.mean(others)
    record = json.loads((tmp_path / "result.json").read_text())
    assert np.isnan(record["test_metrics"][str(bad.client_id)])
    assert record["mean_test_metric"] == result.mean_test_metric


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
        rows = load_checkpoint(tmp_path / "checkpoints" / f"round_{record.round:04d}.npz")
        w_start = to_vector(plan, rows["global_start"].entries)
        for cid, want in record.distances.items():
            client = to_vector(plan, rows[f"client_{cid}"].entries)
            got = l2_distance_excluding_norm(client, w_start, plan.non_norm_slots)
            assert got == pytest.approx(want, abs=1e-10)


def test_checkpoint_pruning_keeps_selected_and_last(tmp_path):
    # seed 0 improves the validation metric at several non-final rounds, so
    # every former-best round must be left out as well
    cfg = benchmark_config("fedavg", rounds=50)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path)
    assert result.selected_round < cfg.rounds
    ckpt = tmp_path / "checkpoints"
    assert {p.name for p in ckpt.iterdir()} == {f"round_{result.selected_round:04d}.npz",
                                                f"round_{cfg.rounds:04d}.npz"}


def test_checkpoints_written_once_per_run(monkeypatch, tmp_path):
    calls = []
    original = orchestrator.save_paramset

    def counting(vectors, path, plan):
        calls.append((path, list(vectors)))
        return original(vectors, path, plan)

    monkeypatch.setattr(orchestrator, "save_paramset", counting)
    cfg = benchmark_config("fedavg", rounds=50)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path / "earlier")
    assert result.selected_round < cfg.rounds
    # one file for the selected and one for the last round, each holding
    # global_start, global_agg and one row per client, in client id order
    ckpt = tmp_path / "earlier" / "checkpoints"
    assert sorted(path for path, _ in calls) == [
        ckpt / f"round_{result.selected_round:04d}.npz", ckpt / "round_0050.npz"]
    rows = ["global_start", "global_agg"] + [f"client_{i}" for i in range(cfg.data.num_clients)]
    assert [names for _, names in calls] == [rows, rows] and len(rows) == 7

    # seed 0 of this 3-client config improves in every round, so it selects its
    # last round, and that round's one file is written once
    calls.clear()
    cfg = experiment(rounds=5)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path / "last")
    assert result.selected_round == cfg.rounds
    assert calls == [(tmp_path / "last" / "checkpoints" / "round_0005.npz",
                      ["global_start", "global_agg", "client_0", "client_1", "client_2"])]


def test_no_checkpoint_is_named_best(monkeypatch, tmp_path):
    """The selected round's checkpoint has one name, its round's."""
    cfg = experiment(rounds=3)
    run_experiment(cfg, seed=0, out_dir=tmp_path / "default")
    run_experiment(replace(cfg, keep_all_checkpoints=True), seed=0, out_dir=tmp_path / "keep_all")
    monkeypatch.setattr(orchestrator, "evaluate", lambda *a, **k: float("nan"))
    with pytest.raises(NoSelectableRound):
        run_experiment(cfg, seed=0, out_dir=tmp_path / "failed")
    runs = sorted(tmp_path.glob("*/checkpoints"))
    assert [d.parent.name for d in runs] == ["default", "failed", "keep_all"]
    assert not [p for d in runs for p in d.rglob("*") if p.stem == "best"]


def assert_same_checkpoint(file_a, file_b):
    """Two round files holding the same arrays under the same keys: the same
    row names in ``__meta__`` and the same bits in every row of ``vectors``."""
    with np.load(file_a) as a, np.load(file_b) as b:
        assert a.files == b.files == ["__meta__", "vectors"]
        for key in a.files:
            assert np.array_equal(a[key], b[key]), f"{file_a.name}:{key}"


def test_snapshot_checkpoints_equal_keep_all_checkpoints(tmp_path):
    cfg = benchmark_config("fedavg", rounds=50)
    default = run_experiment(cfg, seed=0, out_dir=tmp_path / "default")
    keep_all = run_experiment(replace(cfg, keep_all_checkpoints=True), seed=0,
                              out_dir=tmp_path / "keep_all")
    assert default.selected_round == keep_all.selected_round < cfg.rounds
    a, b = tmp_path / "default" / "checkpoints", tmp_path / "keep_all" / "checkpoints"
    selected = f"round_{default.selected_round:04d}.npz"
    assert_same_checkpoint(a / selected, b / selected)
    assert_same_checkpoint(a / "round_0050.npz", b / "round_0050.npz")
    assert len(list(b.iterdir())) == cfg.rounds


def diverge_all_in_round(monkeypatch, failing_round):
    """Every client of round ``failing_round`` (1-based) diverges."""
    original = orchestrator.run_local_training

    def diverging(client, cfg, seed, round_idx, plan):
        update = original(client, cfg, seed, round_idx, plan)
        update.diverged = update.diverged or round_idx == failing_round - 1
        return update

    monkeypatch.setattr(orchestrator, "run_local_training", diverging)


def test_all_clients_diverged_leaves_best_and_last_round(monkeypatch, tmp_path):
    # seed 0 validates best at round 2, the last completed one when round 3
    # fails, so one file is left; seed 3 validates best at round 4 of the
    # first 5, so a failing round 6 leaves the best round so far and round 5
    cfg = experiment(rounds=6)
    for seed, failing_round, kept in ((0, 3, (2,)), (3, 6, (4, 5))):
        ref_dir, run_dir = tmp_path / f"ref_{seed}", tmp_path / f"run_{seed}"
        ref = run_experiment(replace(cfg, keep_all_checkpoints=True), seed=seed, out_dir=ref_dir)
        metrics = [r.mean_val_metric for r in ref.rounds[:failing_round - 1]]
        assert (int(np.argmax(metrics)) + 1, failing_round - 1) == (kept[0], kept[-1])
        with monkeypatch.context() as m:
            diverge_all_in_round(m, failing_round)
            with pytest.raises(AllClientsDiverged):
                run_experiment(cfg, seed=seed, out_dir=run_dir)
        names = {f"round_{r:04d}.npz" for r in kept}
        assert {p.name for p in (run_dir / "checkpoints").iterdir()} == names
        # the failing round trained the clients before it failed; each kept
        # file holds its own round
        for name in names:
            assert_same_checkpoint(run_dir / "checkpoints" / name, ref_dir / "checkpoints" / name)


def test_all_clients_diverged_flushes_the_completed_rounds_drift(monkeypatch, tmp_path):
    cfg = experiment(rounds=5)
    run_experiment(cfg, seed=0, out_dir=tmp_path / "ref")
    diverge_all_in_round(monkeypatch, 3)
    with pytest.raises(AllClientsDiverged):
        run_experiment(cfg, seed=0, out_dir=tmp_path / "run")
    for name in ("rounds.csv", "distances.csv"):
        want = [row for row in read_csv(tmp_path / "ref" / name) if int(row["round"]) <= 2]
        assert read_csv(tmp_path / "run" / name) == want, name


def test_no_selectable_round_leaves_last_round(monkeypatch, tmp_path):
    monkeypatch.setattr(orchestrator, "evaluate", lambda *a, **k: float("nan"))
    with pytest.raises(NoSelectableRound):
        run_experiment(experiment(rounds=5), seed=0, out_dir=tmp_path)
    assert {p.name for p in (tmp_path / "checkpoints").iterdir()} == {"round_0005.npz"}


def test_all_nan_selection_is_typed_error(monkeypatch, tmp_path):
    cfg = experiment(rounds=2)
    run_experiment(cfg, seed=0, out_dir=tmp_path / "ref")
    monkeypatch.setattr(orchestrator, "evaluate", lambda *a, **k: float("nan"))
    with pytest.raises(NoSelectableRound, match="NaN in all 2 rounds"):
        run_experiment(cfg, seed=0, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "rounds.csv").exists()
    # the partial flush keeps the drift too; validation does not feed
    # training, so it is the scored run's
    want = (tmp_path / "ref" / "distances.csv").read_bytes()
    assert (tmp_path / "run" / "distances.csv").read_bytes() == want
    assert len(read_csv(tmp_path / "run" / "distances.csv")) == 2 * cfg.data.num_clients


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_output_files_written(tmp_path):
    cfg = experiment(rounds=2)
    result = run_experiment(cfg, seed=0, out_dir=tmp_path)
    assert (tmp_path / "rounds.csv").exists()
    assert (tmp_path / "distances.csv").exists()
    assert (tmp_path / "result.json").exists()
    # rounds.csv holds each round's train loss and validation metric per
    # client, and the drift is written once, to distances.csv
    rows = read_csv(tmp_path / "rounds.csv")
    assert sorted({(r["split"], r["metric"]) for r in rows}) == [
        ("train", "loss"), ("val", "selection_metric")]
    assert len(rows) == 2 * cfg.rounds * cfg.data.num_clients
    drift = read_csv(tmp_path / "distances.csv")
    assert [(int(r["round"]), int(r["client_id"]), float(r["sq_distance"])) for r in drift] == [
        (rec.round, cid, d) for rec in result.rounds for cid, d in rec.distances.items()]


def test_sweep_budget_enforced():
    cfg = experiment(local_epochs=6, rounds=10)  # budget 60
    with pytest.raises(ConfigError) as exc:
        sweep_local_epochs(cfg, splits=[(7, 9)])
    assert exc.value.field == "sweep.splits"


def test_sweep_reports_the_selected_rounds_validation_mean(monkeypatch):
    """Round 1 cannot be scored, so its mean is NaN; the sweep row reports the
    mean of the round it selected."""
    cfg = experiment(rounds=3)
    real_evaluate = orchestrator.evaluate
    calls = []

    def evaluate(plan, params, batch, metric):
        calls.append(batch)
        if len(calls) <= cfg.data.num_clients:  # round 1's validation
            return float("nan")
        return real_evaluate(plan, params, batch, metric)

    monkeypatch.setattr(orchestrator, "evaluate", evaluate)
    [row] = sweep_local_epochs(cfg, splits=[(1, 3)])
    calls.clear()
    result = run_experiment(cfg, seed=0)
    means = [r.mean_val_metric for r in result.rounds]
    assert np.isnan(means[0]) and row["selected_round"] == result.selected_round > 1
    assert row["mean_val_metric"] == means[result.selected_round - 1] == np.nanmax(means)


def test_sweep_runs_each_split():
    cfg = experiment(rounds=4)  # budget 4
    rows = sweep_local_epochs(cfg, splits=[(1, 4), (2, 2), (4, 1)])
    assert [(r["local_epochs"], r["rounds"]) for r in rows] == [(1, 4), (2, 2), (4, 1)]
    for row in rows:
        assert row["local_epochs"] * row["rounds"] == 4


def test_epoch_budget_instrumented(monkeypatch):
    """Total local epochs actually executed equals E*T per client."""
    counts = {}
    original = orchestrator.run_local_training

    def counting(client, cfg, seed, round_idx, plan):
        counts[client.client_id] = counts.get(client.client_id, 0) + cfg.local_epochs
        return original(client, cfg, seed, round_idx, plan)

    monkeypatch.setattr(orchestrator, "run_local_training", counting)
    cfg = experiment(rounds=3, local_epochs=2)
    run_experiment(cfg, seed=0)
    assert all(v == cfg.total_budget for v in counts.values())
    assert len(counts) == 3


def test_trailing_singleton_batch_is_skipped_in_a_batch_norm_run():
    """A client of 48 examples trains on 33 rows: one 32-row step per epoch,
    and the 1-row tail, which batch-norm train mode cannot use, takes none."""
    base = benchmark_config("fedavg", "feature_shift", rounds=2, seeds=(0,))
    data = replace(base.data, num_clients=2, sizes=[48, 60])
    cfg = replace(base, data=data)
    assert "batch_norm" in [layer.kind for layer in cfg.model.layers]
    assert [ds.train.size for ds in generate(data)] == [33, 42]
    work = Work()
    work.add_experiment(cfg.model, data.sizes, cfg.local_epochs, cfg.rounds)
    tracer = Tracer()
    with traced(tracer):
        result = run_experiment(cfg, 0)
    calls = {name: entry["calls"] for name, entry in summarize(tracer.spans).items()}
    assert calls["nn.forward_train"] == work.steps == 2 * (1 + 2)
    assert tracer.counts["nn.train_rows"] == work.rows == 2 * (32 + 42)
    assert len(result.rounds) == cfg.rounds and np.isfinite(result.mean_test_metric)


def test_each_round_builds_each_start_vector_once(monkeypatch):
    """One broadcast and one merge per client per round; the merged vector is
    what the client validates with and what its next round trains from."""
    calls = {"broadcast": 0, "merge": 0}
    real_broadcast, real_merge = orchestrator.broadcast_fragment, orchestrator._merge

    def broadcast(*args):
        calls["broadcast"] += 1
        return real_broadcast(*args)

    def merge(*args):
        calls["merge"] += 1
        return real_merge(*args)

    monkeypatch.setattr(orchestrator, "broadcast_fragment", broadcast)
    monkeypatch.setattr(orchestrator, "_merge", merge)
    cfg = experiment(algorithm="fedbn", norm="batch_norm", rounds=2)
    plan = Plan(cfg.model)
    w0 = init_params(plan, 0)
    server = init_server_state(w0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w0, cfg, plan) for ds in generate(cfg.data)]
    assert all(c.eval_params is w0 for c in clients)
    server, _ = run_round(server, clients, cfg, 0, plan)
    starts = {c.client_id: c.eval_params for c in clients}
    k = cfg.strategy.shared_prefix(plan)
    for c in clients:
        assert np.array_equal(starts[c.client_id][:k], server.global_params[:k])
        assert np.array_equal(starts[c.client_id][k:], c.params[k:])
    seen = []
    real_train = orchestrator.run_local_training

    def train(client, *rest):
        seen.append(client.eval_params is starts[client.client_id])
        return real_train(client, *rest)

    monkeypatch.setattr(orchestrator, "run_local_training", train)
    run_round(server, clients, cfg, 0, plan)
    assert seen == [True] * len(clients)
    assert calls == {"broadcast": 2, "merge": 2 * len(clients)}


def test_run_checks_the_class_count_of_preloaded_datasets():
    cfg = experiment(rounds=1)
    datasets = generate(replace(cfg.data, num_classes=2))
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, seed=0, datasets=datasets)
    assert err.value.field == "model.num_classes"


def test_run_rejects_preloaded_datasets_with_a_repeated_client_id(tmp_path, monkeypatch):
    cfg = experiment(rounds=1)
    datasets = generate(cfg.data)
    monkeypatch.setattr(orchestrator, "run_round", lambda *args: pytest.fail("a round ran"))
    with pytest.raises(SchemaMismatch) as err:
        run_experiment(cfg, seed=0, out_dir=tmp_path / "run", datasets=datasets + datasets[:1])
    assert str(err.value) == "client_id 0 is given twice"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("client_id", [-1, 1.5, "0", None, True])
def test_run_rejects_preloaded_datasets_with_a_bad_client_id(tmp_path, monkeypatch, client_id):
    """The sort and ``client_rng`` need non-negative integer ids, as a manifest's are."""
    cfg = experiment(rounds=1)
    datasets = generate(cfg.data)
    datasets[1] = replace(datasets[1], client_id=client_id)
    monkeypatch.setattr(orchestrator, "run_round", lambda *args: pytest.fail("a round ran"))
    with pytest.raises(SchemaMismatch) as err:
        run_experiment(cfg, seed=0, out_dir=tmp_path / "run", datasets=datasets)
    assert str(err.value) == f"client_id {client_id!r} is not a non-negative integer"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_run_rejects_a_preloaded_label_outside_the_models_classes(monkeypatch, split):
    """The class count matches, but one label is class 3 of a 3-class model."""
    cfg = experiment(rounds=1)
    datasets = generate(cfg.data)
    batch = getattr(datasets[1], split)
    labels = batch.labels.copy()
    labels[0] = cfg.model.num_classes
    datasets[1] = replace(datasets[1], **{split: Batch.from_arrays(batch.inputs, labels)})
    monkeypatch.setattr(orchestrator, "run_round", lambda *args: pytest.fail("a round ran"))
    with pytest.raises(ShapeMismatch, match=r"class id outside \[0, num_classes\)"):
        run_experiment(cfg, seed=0, datasets=datasets)


def test_run_rejects_a_preloaded_empty_validation_split():
    """A preloaded client can hold any Batch; one without a validation row
    fails at the first validation forward, after round 1's training."""
    cfg = experiment(rounds=1)
    datasets = generate(cfg.data)
    val = datasets[2].val
    datasets[2] = replace(datasets[2], val=Batch.from_arrays(val.inputs[:0], val.labels[:0]))
    with pytest.raises(ShapeMismatch, match="empty batch"):
        run_experiment(cfg, seed=0, datasets=datasets)


def test_later_rounds_leave_published_arrays_unchanged(monkeypatch, tmp_path):
    """Each round trains a fresh private vector in place, so what a round has
    published (the in-memory checkpoint snapshot, ``client.params``) and its
    round-start reference keep their bits while later rounds train."""
    held = []  # (array, its bits when the round that made it ended)

    def hold(arrays):
        held.extend((a, a.copy()) for a in arrays)

    real_train, real_snapshot = orchestrator.run_local_training, orchestrator._snapshot
    real_loss_grad = orchestrator.local_loss_grad
    refs = {}

    def loss_grad(grad, w_local, w_global, *rest):
        refs[id(w_global)] = w_global
        return real_loss_grad(grad, w_local, w_global, *rest)

    def train(*args):
        client = real_train(*args)
        hold([client.params])
        hold(refs.values())
        refs.clear()
        return client

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


@pytest.mark.parametrize("algorithm", ["fedavg", "fedbn", "feddyn"])
def test_manifest_client_order_changes_no_output(tmp_path, algorithm):
    """A run sorts its clients by id once, so a manifest that lists them in
    reverse writes the same rounds, distances, result and checkpoints."""
    manifest = write_partition(benchmark_config("fedavg").data, tmp_path / "part")
    raw = json.loads(manifest.read_text())
    raw["clients"].reverse()
    reversed_manifest = manifest.with_name("reversed.json")
    reversed_manifest.write_text(json.dumps(raw))
    ordered, rev = tmp_path / "ordered", tmp_path / "reversed"
    for path, out in ((manifest, ordered), (reversed_manifest, rev)):
        cfg = replace(benchmark_config(algorithm, rounds=20, seeds=(0,)), data=str(path))
        run_experiment(cfg, 0, out_dir=out)

    for name in ("rounds.csv", "distances.csv"):
        assert (rev / name).read_bytes() == (ordered / name).read_bytes(), name
    results = [json.loads((out / "result.json").read_text()) for out in (ordered, rev)]
    for result in results:
        del result["elapsed_seconds"]
    assert json.dumps(results[1]) == json.dumps(results[0])  # the key order too
    files = sorted(p.relative_to(ordered) for p in ordered.rglob("*.npz"))
    assert files and files == sorted(p.relative_to(rev) for p in rev.rglob("*.npz"))
    for name in files:
        with np.load(ordered / name) as want, np.load(rev / name) as got:
            assert want.files == got.files
            for key in want.files:
                assert np.array_equal(got[key], want[key]), (name, key)
