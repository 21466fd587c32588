"""Full-participation round protocol under a fixed training-epoch budget.

Every round: E local epochs per client, barrier, aggregation, broadcast
(of the algorithm's shared prefix), then a validation pass per client.  A run
sorts its clients by id once, and training, aggregation, validation,
checkpoints and the test all follow that order; with client RNG streams
derived from (seed, client_id, round), neither the order in which a manifest
or a caller lists the clients nor the execution order can perturb the
results.  A run works on one ``nn.Plan``'s flat vectors (see ``params``).  A
client's ``ClientState`` is the one holder of its round outcome: local
training leaves the trained vector, the mean loss and the divergence flag on
it, and ``server_aggregate`` reads the round's clients themselves.  Each
client keeps one start vector, built once per round after aggregation from
the global's first ``k`` entries (``StrategyConfig.shared_prefix``) and the
rest of its own vector: it validates with it, trains from it in the next
round, and the selected round's is tested.
Under fedbn/fedpxn each client keeps its own norm parameters; all other
algorithms use the identical global vector.
"""

from __future__ import annotations

import json
import logging
import numbers
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .data_synth import ClientDataset, PartitionSpec, generate, load_partition
from .errors import (
    AllClientsDiverged,
    ConfigError,
    NoSelectableRound,
    NonFiniteLoss,
    SchemaMismatch,
    ShapeMismatch,
    SingleClass,
    check_int,
    check_real,
)
from .nn import (
    AdamState,
    Batch,
    ModelSpec,
    Plan,
    apply_running_stats,
    check_labels,
    init_params,
    labels_to_targets,
    local_adam_step,
    local_sgd_step,
    model_backward,
    model_forward,
)
from .params import l2_distance_excluding_norm, save_paramset
from .strategies import (
    ServerState,
    StrategyConfig,
    broadcast_fragment,
    init_server_state,
    local_loss_grad,
    server_aggregate,
    update_dyn_memory,
)

log = logging.getLogger(__name__)

SELECTION_METRICS = ("auroc", "auprc", "accuracy", "loss")


@dataclass
class ExperimentConfig:
    model: ModelSpec
    strategy: StrategyConfig
    data: PartitionSpec | str  # spec, or path to a partition manifest
    rounds: int
    eta: float
    local_epochs: int = 1
    local_optimizer: str = "sgd"  # sgd | adam
    batch_size: int = 32
    seeds: list[int] = field(default_factory=lambda: [0])
    selection_metric: str = "auroc"
    out_dir: str = "results"
    keep_all_checkpoints: bool = False

    def __post_init__(self):
        # _batches drops a singleton batch, so batch_size 1 would take no step
        for name, low in (("local_epochs", 1), ("rounds", 1), ("batch_size", 2)):
            check_int(getattr(self, name), name, low)
        check_real(self.eta, "eta")
        if not isinstance(self.seeds, (list, tuple)) or not self.seeds:
            raise ConfigError("seeds", f"must be a non-empty list of integers, got {self.seeds!r}")
        for seed in self.seeds:
            check_int(seed, "seeds", 0)
        if len(set(self.seeds)) != len(self.seeds):  # a seed run twice is not two replicates
            raise ConfigError("seeds", f"must not repeat a seed, got {self.seeds!r}")
        if not isinstance(self.keep_all_checkpoints, bool):
            raise ConfigError("keep_all_checkpoints", "must be true or false")
        if not isinstance(self.out_dir, (str, Path)):
            raise ConfigError("out_dir", "must be a path")
        if self.eta <= 0:
            raise ConfigError("eta", "must be > 0")
        if self.local_optimizer not in ("sgd", "adam"):
            raise ConfigError("local_optimizer", f"unknown optimizer {self.local_optimizer!r}")
        if self.selection_metric not in SELECTION_METRICS:
            raise ConfigError("selection_metric", f"unknown metric {self.selection_metric!r}")

    @property
    def total_budget(self) -> int:
        return self.local_epochs * self.rounds

    def check_splits(self, splits: list[tuple[int, int]]) -> None:
        """ConfigError on ``sweep.splits`` unless every (E, T) has E, T >= 1, E*T = budget."""
        for e, t in splits:
            if e < 1 or t < 1 or e * t != self.total_budget:
                raise ConfigError("sweep.splits", f"split ({e},{t}) needs E >= 1, T >= 1 "
                                  f"and E*T = budget {self.total_budget}")


@dataclass
class RoundRecord:
    round: int
    train_losses: dict[int, float]
    val_metrics: dict[int, float]
    mean_val_metric: float
    distances: dict[int, float]  # squared non-norm L2 to the round-start global
    elapsed_seconds: float
    diverged: list[int] = field(default_factory=list)


@dataclass
class ExperimentResult:
    selected_round: int
    test_metrics: dict[int, float]
    mean_test_metric: float
    rounds: list[RoundRecord]
    seed: int = 0


@dataclass
class ClientState:
    client_id: int
    n_k: int
    train: Batch  # the client's splits with their one-hot targets (see ``create``)
    val: Batch
    test: Batch
    params: np.ndarray  # its own vector: w_0, then each round's trained vector (read-only)
    eval_params: np.ndarray  # its round-start vector: w_0, then rebuilt after each aggregation
    adam_state: AdamState | None = None
    dyn: np.ndarray | None = None  # FedDyn's g_k over the trainable prefix; zero before round 1
    train_loss: float = float("nan")  # of the last local round, as are ``params`` and ``diverged``
    diverged: bool = False

    @classmethod
    def create(cls, ds: ClientDataset, w_0: np.ndarray, cfg: ExperimentConfig,
               plan: Plan) -> "ClientState":
        """A client at the start of a run, its ``n_k`` read from its rows.  Its
        targets are built here, once per run, from the labels ``_check_client``
        has passed, into new Batches: the ClientDataset may be shared between
        runs and is never written."""
        def split(batch: Batch) -> Batch:
            return replace(batch, targets=labels_to_targets(cfg.model, batch.labels))

        return cls(
            client_id=ds.client_id, n_k=ds.n_k,
            train=split(ds.train), val=split(ds.val), test=split(ds.test),
            params=w_0, eval_params=w_0,
            adam_state=AdamState.zeros(plan.n_train) if cfg.local_optimizer == "adam" else None,
            dyn=np.zeros(plan.n_train) if cfg.strategy.algorithm == "feddyn" else None,
        )


def client_rng(seed: int, client_id: int, round_idx: int) -> np.random.Generator:
    """Per-(seed, client, round) stream; immune to scheduling order."""
    return np.random.default_rng([seed, client_id, round_idx])


def _batches(batch: Batch, batch_size: int, rng: np.random.Generator):
    """Shuffled consecutive mini-batches with their rows of the targets, all
    gathered once per epoch (``take``, which copies the rows ``a[order]`` would,
    at a fraction of its cost); a trailing singleton is dropped (batch-norm
    train mode cannot use it)."""
    n = batch.size
    order = rng.permutation(n)
    inputs, labels = batch.inputs.take(order, 0), batch.labels.take(order, 0)
    targets = batch.targets.take(order, 0)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        if stop - start < 2:
            continue
        yield Batch(inputs=inputs[start:stop], labels=labels[start:stop],
                    targets=targets[start:stop])


def _merge(fragment: np.ndarray, own: np.ndarray) -> np.ndarray:
    """``own`` with the broadcast prefix ``fragment`` in place of its first
    entries, read-only; the fragment itself when it covers the whole vector."""
    k = fragment.shape[0]
    if k == own.shape[0]:
        return fragment
    vec = np.concatenate((fragment, own[k:]))
    vec.flags.writeable = False
    return vec


def run_local_training(
    client: ClientState,
    cfg: ExperimentConfig,
    seed: int,
    round_idx: int,
    plan: Plan,
) -> ClientState:
    """E local epochs with the strategy-modified gradient, trained in place in
    ``plan.params``, into which the client's round-start vector is copied
    first, with ``plan.grad`` for the gradient; then a read-only copy is
    published as ``client.params`` with the round's ``train_loss`` and
    ``diverged``.  Returns the client.  The plan's two vectors make a round
    single-threaded: no other forward may run on ``plan`` until it returns."""
    strat = cfg.strategy
    w_ref = client.eval_params  # round-start reference for prox/dyn terms
    work, grad = plan.params, plan.grad
    np.copyto(work, w_ref)
    eta, batch_size, n_non_norm = cfg.eta, cfg.batch_size, plan.n_non_norm
    dyn, adam = client.dyn, client.adam_state  # adam_state: None under SGD
    rng = client_rng(seed, client.client_id, round_idx)
    losses = []
    diverged = False
    for _ in range(cfg.local_epochs):
        for batch in _batches(client.train, batch_size, rng):
            try:
                _, loss, cache = model_forward(plan, work, batch, mode="train")
            except NonFiniteLoss:
                diverged = True
                break
            losses.append(loss)
            model_backward(plan, cache)
            apply_running_stats(work, cache)
            step_grad = local_loss_grad(grad, work, w_ref, n_non_norm, strat, dyn)
            if adam is None:
                local_sgd_step(work, step_grad, eta)
            else:
                local_adam_step(work, step_grad, adam, eta)
        if diverged:
            break
    if not diverged and not np.isfinite(work).all():
        diverged = True
    if strat.algorithm == "feddyn" and not diverged:
        client.dyn = update_dyn_memory(dyn, work, w_ref, strat.alpha)
    trained = work.copy()
    trained.flags.writeable = False
    client.params = trained
    client.train_loss = _mean(losses) if losses else float("nan")
    client.diverged = diverged
    return client


def evaluate(plan: Plan, params: np.ndarray, batch: Batch, metric: str) -> float:
    probs, loss, _ = model_forward(plan, params, batch, mode="eval")
    labels = np.asarray(batch.labels)
    if metric == "loss":
        return -loss  # selection maximizes
    if metric == "accuracy":
        if labels.ndim == 1:
            return float(np.mean(np.argmax(probs, axis=1) == labels))
        return float(np.mean((probs > 0.5) == (labels > 0.5)))
    scores = probs[:, 1] if (labels.ndim == 1 and probs.shape[1] == 2) else probs
    if metric == "auroc":
        return metrics_mod.auroc(scores, labels)
    return metrics_mod.auprc(scores, labels)


def _mean(values: list[float]) -> float:
    """``np.mean``'s arithmetic without its wrapper: the pairwise sum over n."""
    return float(np.add.reduce(values) / len(values))


def _nanmean(values: list[float]) -> float:
    """``np.nanmean``'s arithmetic without its wrapper (the NaNs zeroed, the
    pairwise sum over the count of the others), and NaN without numpy's
    "Mean of empty slice" warning when every value is NaN."""
    array = np.array(values, dtype=np.float64)
    nan = np.isnan(array)
    count = array.shape[0] - np.count_nonzero(nan)
    if not count:
        return float("nan")
    array[nan] = 0.0
    return float(np.add.reduce(array) / count)


def _score(plan: Plan, params: np.ndarray, batch: Batch, metric: str) -> float:
    """``evaluate``, or NaN where a diverged model or a single-class split
    cannot be ranked; validation and the test both score through it."""
    try:
        return evaluate(plan, params, batch, metric)
    except (NonFiniteLoss, SingleClass):
        return float("nan")


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: ExperimentConfig,
    seed: int,
    plan: Plan,
) -> tuple[ServerState, RoundRecord]:
    """local training -> aggregate -> broadcast -> per-client validation."""
    strat = cfg.strategy
    start = time.perf_counter()
    round_idx = server.round
    w_start = server.global_params
    for c in clients:
        run_local_training(c, cfg, seed, round_idx, plan)
    distances = {
        c.client_id: l2_distance_excluding_norm(c.params, w_start, plan.non_norm_slots)
        for c in clients
        if not c.diverged
    }
    diverged_ids = [c.client_id for c in clients if c.diverged]
    if diverged_ids:
        log.warning("round %d: diverged clients excluded from aggregation: %s",
                    round_idx + 1, diverged_ids)
    new_server = server_aggregate(server, clients, strat)
    fragment = broadcast_fragment(new_server, strat.shared_prefix(plan))
    val_metrics = {}
    for c in clients:
        c.eval_params = _merge(fragment, c.params)
        val_metrics[c.client_id] = _score(plan, c.eval_params, c.val, cfg.selection_metric)
    elapsed = time.perf_counter() - start
    record = RoundRecord(
        round=round_idx + 1,
        train_losses={c.client_id: c.train_loss for c in clients},
        val_metrics=val_metrics,
        mean_val_metric=_nanmean(list(val_metrics.values())),
        distances=distances,
        elapsed_seconds=elapsed,
        diverged=diverged_ids,
    )
    return new_server, record


def load_clients(cfg: ExperimentConfig) -> list[ClientDataset]:
    """``cfg.data``'s clients, the manifest's CSVs or the spec's generated
    data, each passed by ``_check_client``, so a command that loads its
    clients first writes nothing when they do not fit the model."""
    datasets = (load_partition(cfg.data) if isinstance(cfg.data, (str, Path))
                else generate(cfg.data))
    for ds in datasets:
        _check_client(ds, cfg.model)
    return datasets


def _check_client(ds: ClientDataset, model: ModelSpec) -> None:
    """The one rule between a client's data and the model.  A ConfigError on
    the model's field, naming the client, unless the client declares the
    model's ``num_classes`` and each split has ``model.input_dim`` columns.
    A SchemaMismatch naming the client, and the split at fault, unless its id
    is a non-negative integer (the sort and ``client_rng`` need one) and each
    split holds arrays: inputs, 2-D of bools, integers or reals, rows enough
    (2 in train, for one step, and 1 in validation and test) and finite
    features, and labels the model takes (``nn.check_labels``), one per row."""
    cid = ds.client_id
    if not isinstance(cid, numbers.Integral) or isinstance(cid, bool) or cid < 0:
        raise SchemaMismatch(f"client_id {cid!r} is not a non-negative integer")
    if ds.num_classes != model.num_classes:
        raise ConfigError("model.num_classes", f"the model has {model.num_classes} classes, "
                          f"client {cid} declares {ds.num_classes!r}")
    for name, least in (("train", 2), ("val", 1), ("test", 1)):
        batch, where = getattr(ds, name), f"client {cid} {name} split"
        for field_name in ("inputs", "labels"):
            value = getattr(batch, field_name)
            if not isinstance(value, np.ndarray):
                raise SchemaMismatch(f"{where} has {field_name} of type "
                                     f"{type(value).__name__}, not an array")
        if batch.inputs.ndim != 2 or batch.inputs.dtype.kind not in "biuf":
            raise SchemaMismatch(f"{where} has inputs of dtype {batch.inputs.dtype} and shape "
                                 f"{batch.inputs.shape}, not a 2-D array of bools, "
                                 "integers or reals")
        if batch.inputs.shape[1] != model.input_dim:
            raise ConfigError("model.input_dim", f"the model has {model.input_dim}, "
                              f"{where} has {batch.inputs.shape[1]} features")
        if batch.size < least:
            raise SchemaMismatch(f"{where} needs at least {least} rows, has {batch.size}")
        if not np.isfinite(batch.inputs).all():
            raise SchemaMismatch(f"{where} has a non-finite feature")
        try:
            check_labels(batch.labels, model.num_classes)
        except ShapeMismatch as exc:
            raise SchemaMismatch(f"{where} has {exc}") from exc
        if batch.labels.shape[0] != batch.size:
            raise SchemaMismatch(f"{where} has labels of shape {batch.labels.shape} "
                                 f"for {batch.size} rows")


def _snapshot(w_start: np.ndarray, server: ServerState,
              clients: list[ClientState]) -> dict[str, np.ndarray]:
    """One round's checkpoint rows, held in memory by reference: a published
    vector is never written again, and a round replaces ``client.params``
    instead of editing it (see ``params``)."""
    return {"global_start": w_start, "global_agg": server.global_params,
            **{f"client_{c.client_id}": c.params for c in clients}}


@np.errstate(over="ignore", invalid="ignore")  # an overflow ending finite is no divergence
def run_experiment(cfg: ExperimentConfig, seed: int, out_dir=None,
                   datasets: list[ClientDataset] | None = None) -> ExperimentResult:
    """T rounds, best-validation-round selection, test at the selected round.

    ``datasets`` are the clients' data when the caller has already loaded
    ``cfg.data`` (nothing writes to a ClientDataset, so runs can share them).
    Each client passes ``_check_client`` once, as ``load_clients`` loads it
    or as it is handed in, before anything is built or written.
    The run's client list is sorted by id here, the one place that orders it;
    no client, or a client_id given twice, is a SchemaMismatch.
    """
    if datasets is None:
        datasets = load_clients(cfg)
    else:
        for ds in datasets:
            _check_client(ds, cfg.model)
    if not datasets:  # else round 1 would raise AllClientsDiverged
        raise SchemaMismatch("no clients")
    datasets = sorted(datasets, key=lambda ds: ds.client_id)
    for prev, ds in zip(datasets, datasets[1:]):
        if prev.client_id == ds.client_id:
            raise SchemaMismatch(f"client_id {ds.client_id} is given twice")
    plan = Plan(cfg.model)
    w_0 = init_params(plan, seed)
    w_0.flags.writeable = False
    server = init_server_state(w_0, cfg.strategy, plan.n_train)
    clients = [ClientState.create(ds, w_0, cfg, plan) for ds in datasets]

    ckpt_dir = Path(out_dir) / "checkpoints" if out_dir is not None else None
    best_round, best_metric = 0, -np.inf
    best_eval_sets: list[np.ndarray] = []
    # the last and the best round's (file, snapshot), written once when the run ends
    last = best = None
    records: list[RoundRecord] = []
    try:
        for _ in range(cfg.rounds):
            w_start = server.global_params  # server_aggregate builds a fresh global
            server, record = run_round(server, clients, cfg, seed, plan)
            records.append(record)
            if ckpt_dir is not None:
                if last is None:
                    ckpt_dir.mkdir(parents=True, exist_ok=True)
                last = (ckpt_dir / f"round_{record.round:04d}.npz",
                        _snapshot(w_start, server, clients))
                if cfg.keep_all_checkpoints:
                    save_paramset(last[1], last[0], plan)
            if record.mean_val_metric > best_metric:
                best_metric = record.mean_val_metric
                best_round = record.round
                best_eval_sets = [c.eval_params for c in clients]
                best = last
        if not best_eval_sets:
            raise NoSelectableRound(
                f"mean validation {cfg.selection_metric} is NaN in all {cfg.rounds} rounds"
            )
    except (AllClientsDiverged, NoSelectableRound):
        if out_dir is not None and records:
            _write_logs(Path(out_dir), records)
        raise
    finally:
        if not cfg.keep_all_checkpoints:  # one file when the best round is the last
            for path, snapshot in dict(k for k in (last, best) if k is not None).items():
                save_paramset(snapshot, path, plan)

    # test once, at the selected round, with each client's own eval parameters
    test_metrics = {c.client_id: _score(plan, eval_params, c.test, cfg.selection_metric)
                    for c, eval_params in zip(clients, best_eval_sets)}
    result = ExperimentResult(
        selected_round=best_round,
        test_metrics=test_metrics,
        mean_test_metric=_nanmean(list(test_metrics.values())),
        rounds=records,
        seed=seed,
    )
    if out_dir is not None:
        _write_result(Path(out_dir), cfg, result)
    return result


def _write_logs(out_dir: Path, records: list[RoundRecord]) -> None:
    """``rounds.csv``, one row per round and client (its train loss and
    validation metric), and ``distances.csv`` (drift)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_csv(out_dir / "rounds.csv",
                          ["round", "client_id", "train_loss", "val_selection_metric"],
                          ([r.round, cid, repr(loss), repr(r.val_metrics[cid])]
                           for r in records for cid, loss in r.train_losses.items()))
    metrics_mod.write_csv(out_dir / "distances.csv", ["round", "client_id", "sq_distance"],
                          ([r.round, cid, repr(d)] for r in records
                           for cid, d in r.distances.items()))


def _write_result(out_dir: Path, cfg: ExperimentConfig, result: ExperimentResult) -> None:
    _write_logs(out_dir, result.rounds)
    summary = {
        "selected_round": result.selected_round,
        "seed": result.seed,
        "mean_test_metric": result.mean_test_metric,
        "test_metrics": {str(k): v for k, v in result.test_metrics.items()},
        "selection_metric": cfg.selection_metric,
        "algorithm": cfg.strategy.algorithm,
        "rounds": cfg.rounds,
        "local_epochs": cfg.local_epochs,
        "elapsed_seconds": sum(r.elapsed_seconds for r in result.rounds),
    }
    (out_dir / "result.json").write_text(json.dumps(summary, indent=2))


def sweep_local_epochs(
    cfg: ExperimentConfig, splits: list[tuple[int, int]], datasets: list[ClientDataset],
    out_dir=None,
) -> list[dict]:
    """One experiment per (E, T) split per seed under ``cfg``'s E*T budget,
    all on ``datasets``, ``cfg.data``'s clients loaded once by the caller."""
    cfg.check_splits(splits)  # every split, before the first one runs
    rows = []
    for e, t in splits:
        split_cfg = replace(cfg, local_epochs=e, rounds=t)
        for seed in cfg.seeds:
            run_dir = None if out_dir is None else Path(out_dir) / f"E{e}_T{t}" / f"seed_{seed}"
            result = run_experiment(split_cfg, seed, out_dir=run_dir, datasets=datasets)
            rows.append({
                "local_epochs": e,
                "rounds": t,
                "seed": seed,
                "selected_round": result.selected_round,
                "mean_val_metric": result.rounds[result.selected_round - 1].mean_val_metric,
                "mean_test_metric": result.mean_test_metric,
            })
    return rows

