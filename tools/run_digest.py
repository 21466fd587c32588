#!/usr/bin/env python3
"""Run a fixed set of fedbench experiments and print one SHA-256 per output file.

    python3 tools/run_digest.py OUT_DIR > digest.txt

Run it in two checkouts and diff the digests: equal lines mean that every
output file, checkpoints included, is bit-for-bit the same.  fedbench is
imported from the ``src/`` next to this script, and OUT_DIR must not exist.

The set:

* every algorithm, 50 rounds, E=1, on the feature-shift benchmark at seed 0,
  checkpointing every round (the selected and the last round are kept, each
  as ``round_NNNN/``), written to ``grid/``;
* fedyogi, 10 rounds, seed 0, with ``keep_all_checkpoints`` (every round's
  checkpoint is kept), written to ``grid_keep_all/``;
* 10 rounds at seed 0 of each other layer kind the model compiles, written
  to ``kinds/``: layer norm (fedpxn), group norm (feddyn with local Adam), no
  norm (fedprox) and a sigmoid-BCE head after batch norm (fedadam);
* 10 rounds at seed 0 of the other evaluation paths, written to
  ``paths/``: fedavg on a 2-class feature-shift partition (the binary AUROC
  path), and fedavg selecting by ``auprc``, ``accuracy`` and ``loss``;
* 1 round at seed 0 with ``keep_all_checkpoints`` of each model other than
  the batch-norm one, written to ``init/``: the layer-norm, group-norm,
  no-norm and sigmoid-BCE models of ``kinds/`` and the 2-class model of
  ``paths/``, so that each ``round_0001/global_start.npz`` pins that model's
  ``w_0`` (``grid_keep_all/`` pins the batch-norm one);
* ``fedbench partition`` of a K=10 label-skew spec, written to
  ``partition/``, then ``fedbench sweep --grid 5x4,10x2`` with fedpxn and
  local Adam over seeds 0-2, the shape of the benchmark's ``ls_sweep_cli``
  workload, written to ``sweep/``;
* ``fedbench run --seed 0 1`` of a 2-round fedavg config over that
  partition, written to ``cli_run/`` (its ``config_echo.yaml``,
  ``summary.csv`` and each seed's outputs);
* ``fedbench partition`` of a K=5 iid spec, written to ``partition_iid/``,
  so that each generator kind is pinned (feature shift by the runs above,
  label skew by ``partition/``);
* the rank tests, written to ``rank/``: fixed ``result.json`` trees with
  tied metrics (four algorithms of 10 seeds and one of 15, so ``--exact``
  counts n+m = 25), ``fedbench compare`` under the default method,
  ``--one-sided``, ``--exact`` and ``--approx``, ``fedbench report`` of each
  tree, and ``rank/p_values.txt``, the ``repr`` of every pair's p from
  ``metrics.significance_matrix`` under the same four settings
  (``significance.csv`` rounds p to 6 digits).

CSV, YAML and JSON files are hashed as bytes, except ``result.json``, which
is hashed without its wall-clock ``elapsed_seconds``.  ``.npz`` checkpoints
are hashed as ``fedbench.params.load_paramset`` reads them: the tags and
trainable flags, then each entry's name, dtype, shape and bytes.  So the
digest pins parameter values, not the zip container, which records write
times and whose members are the checkpoint format's own business.  All
paths handed to fedbench are relative to OUT_DIR, so the echoed config does
not depend on where OUT_DIR is.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedbench import benchmarks, cli, metrics, orchestrator  # noqa: E402
from fedbench.nn import LayerSpec  # noqa: E402
from fedbench.params import load_paramset  # noqa: E402
from fedbench.strategies import ALGORITHMS  # noqa: E402

ROUNDS = 50
KEEP_ALL_ROUNDS = 10
KIND_ROUNDS = 10
# run name -> (algorithm, norm kind, local optimizer, loss head)
KIND_RUNS = {
    "layer_norm": ("fedpxn", "layer_norm", "sgd", "softmax_ce_head"),
    "group_norm": ("feddyn", "group_norm", "adam", "softmax_ce_head"),
    "no_norm": ("fedprox", "", "sgd", "softmax_ce_head"),
    "sigmoid_bce": ("fedadam", "batch_norm", "sgd", "sigmoid_bce_head"),
}
# run name -> (number of classes, selection metric) of a fedavg run
PATH_RUNS = {
    "binary": (2, "auroc"),
    "select_auprc": (3, "auprc"),
    "select_accuracy": (3, "accuracy"),
    "select_loss": (3, "loss"),
}
SWEEP_GRID = "5x4,10x2"
SWEEP_SIZES = [400, 350, 282, 238, 226] * 2
# algorithm -> number of seeds of its result tree
RANK_SEEDS = {"fedavg": 10, "fedprox": 10, "fedbn": 10, "fedpxn": 10, "feddyn": 15}
# compare flags -> (method, alternative) of significance_matrix
RANK_SETTINGS = {
    "default": ([], "auto", "two-sided"),
    "one_sided": (["--one-sided"], "auto", "one-sided"),
    "exact": (["--exact"], "exact", "two-sided"),
    "approx": (["--approx"], "normal", "two-sided"),
}


def run_grid() -> None:
    for alg in ALGORITHMS:
        cfg = benchmarks.benchmark_config(alg, "feature_shift", rounds=ROUNDS, seeds=(0,))
        orchestrator.run_experiment(cfg, 0, out_dir=Path("grid") / alg)


def run_keep_all() -> None:
    cfg = benchmarks.benchmark_config("fedyogi", "feature_shift", rounds=KEEP_ALL_ROUNDS,
                                      seeds=(0,))
    cfg = replace(cfg, keep_all_checkpoints=True)
    orchestrator.run_experiment(cfg, 0, out_dir=Path("grid_keep_all"))


def kind_config(name: str, rounds: int):
    alg, norm_kind, optimizer, head = KIND_RUNS[name]
    cfg = benchmarks.benchmark_config(alg, "feature_shift", rounds=rounds, seeds=(0,),
                                      norm_kind=norm_kind)
    model = cfg.model
    if head == "sigmoid_bce_head":
        model = replace(model, layers=model.layers[:-1] + [LayerSpec(kind=head)],
                        loss="binary_cross_entropy")
    return replace(cfg, model=model, local_optimizer=optimizer)


def path_config(name: str, rounds: int):
    classes, metric = PATH_RUNS[name]
    cfg = benchmarks.benchmark_config("fedavg", "feature_shift", rounds=rounds, seeds=(0,))
    return replace(cfg, data=replace(cfg.data, num_classes=classes),
                   model=benchmarks.small_model(num_classes=classes),
                   selection_metric=metric)


def run_kinds() -> None:
    for name in KIND_RUNS:
        orchestrator.run_experiment(kind_config(name, KIND_ROUNDS), 0,
                                    out_dir=Path("kinds") / name)


def run_paths() -> None:
    for name in PATH_RUNS:
        orchestrator.run_experiment(path_config(name, KIND_ROUNDS), 0,
                                    out_dir=Path("paths") / name)


def run_init() -> None:
    configs = {name: kind_config(name, 1) for name in KIND_RUNS}
    configs["binary"] = path_config("binary", 1)
    for name, cfg in configs.items():
        cfg = replace(cfg, keep_all_checkpoints=True)
        orchestrator.run_experiment(cfg, 0, out_dir=Path("init") / name)


def cli_config(strategy: dict, **fields) -> dict:
    """A config file's mapping: the small batch-norm model and ``strategy``
    over the written partition, then ``fields`` in the order given."""
    model = benchmarks.small_model()
    return {
        "model": {
            "input_dim": model.input_dim, "num_classes": model.num_classes, "loss": model.loss,
            "layers": [
                {"kind": layer.kind, **({"width": layer.width} if layer.width else {})}
                for layer in model.layers
            ],
        },
        "strategy": strategy,
        "data": "partition/manifest.json",
        **fields,
    }


def run_sweep() -> None:
    spec = {"data": {
        "kind": "label_skew", "num_clients": len(SWEEP_SIZES), "num_classes": 3,
        "input_dim": 8, "sizes": SWEEP_SIZES, "skew_concentration": 0.3,
        "class_separation": 1.0, "seed": 0,
    }}
    Path("partition.yaml").write_text(yaml.safe_dump(spec, sort_keys=False))
    config = cli_config({"algorithm": "fedpxn", "mu": 0.1}, local_epochs=5, rounds=4, eta=0.1,
                        local_optimizer="adam", batch_size=32, seeds=[0, 1, 2],
                        selection_metric="auroc")
    Path("sweep.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    run_cli(["partition", "--spec", "partition.yaml", "--out", "partition"])
    run_cli(["sweep", "--config", "sweep.yaml", "--grid", SWEEP_GRID, "--out", "sweep"])


def run_cli_run() -> None:
    config = cli_config({"algorithm": "fedavg"}, rounds=2, eta=0.1)
    Path("run.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    run_cli(["run", "--config", "run.yaml", "--seed", "0", "1", "--out", "cli_run"])


def run_iid_partition() -> None:
    spec = {"data": {
        "kind": "iid", "num_clients": 5, "num_classes": 3, "input_dim": 8,
        "sizes": SWEEP_SIZES[:5], "seed": 0,
    }}
    Path("partition_iid.yaml").write_text(yaml.safe_dump(spec, sort_keys=False))
    run_cli(["partition", "--spec", "partition_iid.yaml", "--out", "partition_iid"])


def run_rank() -> None:
    rng = np.random.default_rng(0)
    results = {}
    for alg, seeds in RANK_SEEDS.items():
        # two decimals around a per-algorithm centre, so values tie within
        # and across trees
        values = np.round(rng.uniform(0.65, 0.8) + 0.02 * rng.standard_normal(seeds), 2)
        for i, value in enumerate(values.tolist()):
            run_dir = Path("rank") / "results" / alg / f"seed_{i}"
            run_dir.mkdir(parents=True)
            (run_dir / "result.json").write_text(json.dumps({
                "algorithm": alg, "seed": i, "mean_test_metric": value,
                "elapsed_seconds": 0.5 + i / 8,
            }, indent=2))
        results[alg] = values.tolist()
    dirs = [str(Path("rank") / "results" / alg) for alg in RANK_SEEDS]
    lines = []
    for name, (flags, method, alternative) in RANK_SETTINGS.items():
        run_cli(["compare", "--results", *dirs, *flags,
                 "--out", str(Path("rank") / f"compare_{name}")])
        matrix = metrics.significance_matrix(results, alternative=alternative, method=method)
        for (a, b), (res, _) in matrix.items():
            lines.append(f"{name} {a} {b} {res.p_value!r}")
    Path("rank", "p_values.txt").write_text("\n".join(lines) + "\n")
    for alg, d in zip(RANK_SEEDS, dirs):
        run_cli(["report", "--results", d, "--out", str(Path("rank") / f"report_{alg}")])


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fedbench {' '.join(argv)} exited {code}")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        paramset = load_paramset(path)
        h.update(json.dumps([paramset.tags, paramset.trainable]).encode())
        for name, arr in paramset.entries.items():
            h.update(f"{name}|{arr.dtype.str}|{arr.shape}|".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    elif path.name == "result.json":
        record = json.loads(path.read_text())
        record.pop("elapsed_seconds", None)
        h.update(json.dumps(record, indent=2).encode())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True)
    os.chdir(out)
    run_grid()
    run_keep_all()
    run_kinds()
    run_paths()
    run_init()
    run_sweep()
    run_cli_run()
    run_iid_partition()
    run_rank()
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{file_digest(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
