#!/usr/bin/env python3
"""Run a fixed set of fedbench experiments and print one SHA-256 per output file.

    python3 tools/run_digest.py OUT_DIR > digest.txt

Run it in two checkouts and diff the digests: equal lines mean that every
output file, checkpoints included, is bit-for-bit the same.  fedbench is
imported from the ``src/`` next to this script, and OUT_DIR must not exist.

The set:

* every algorithm, 50 rounds, E=1, on the feature-shift benchmark at seed 0,
  checkpointing every round (``best/`` and the last round are kept);
* fedyogi, 10 rounds, seed 0, with ``keep_all_checkpoints`` (every round's
  checkpoint and ``best/`` are kept), written to ``grid_keep_all/``;
* ``fedbench partition`` of a K=10 label-skew spec, then ``fedbench sweep
  --grid 5x4,10x2`` with fedpxn and local Adam over seeds 0-2, the shape of
  the benchmark's ``ls_sweep_cli`` workload.

CSV, YAML and JSON files are hashed as bytes, except ``result.json``, which
is hashed without its wall-clock ``elapsed_seconds``.  ``.npz`` checkpoints
are hashed by their loaded arrays (name, dtype, shape, bytes), because the
zip container records write times.  All paths handed to fedbench are relative
to OUT_DIR, so the echoed config does not depend on where OUT_DIR is.
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

from fedbench import benchmarks, cli, orchestrator  # noqa: E402
from fedbench.strategies import ALGORITHMS  # noqa: E402

ROUNDS = 50
KEEP_ALL_ROUNDS = 10
SWEEP_GRID = "5x4,10x2"
SWEEP_SIZES = [400, 350, 282, 238, 226] * 2


def run_grid() -> None:
    for alg in ALGORITHMS:
        cfg = benchmarks.benchmark_config(alg, "feature_shift", rounds=ROUNDS, seeds=(0,))
        orchestrator.run_experiment(cfg, 0, out_dir=Path("grid") / alg)


def run_keep_all() -> None:
    cfg = benchmarks.benchmark_config("fedyogi", "feature_shift", rounds=KEEP_ALL_ROUNDS,
                                      seeds=(0,))
    cfg = replace(cfg, keep_all_checkpoints=True)
    orchestrator.run_experiment(cfg, 0, out_dir=Path("grid_keep_all"))


def run_sweep() -> None:
    spec = {"data": {
        "kind": "label_skew", "num_clients": len(SWEEP_SIZES), "num_classes": 3,
        "input_dim": 8, "sizes": SWEEP_SIZES, "skew_concentration": 0.3,
        "class_separation": 1.0, "seed": 0,
    }}
    Path("partition.yaml").write_text(yaml.safe_dump(spec, sort_keys=False))
    model = benchmarks.small_model()
    config = {
        "model": {
            "input_dim": model.input_dim, "num_classes": model.num_classes, "loss": model.loss,
            "layers": [
                {"kind": layer.kind, **({"width": layer.width} if layer.width else {})}
                for layer in model.layers
            ],
        },
        "strategy": {"algorithm": "fedpxn", "mu": 0.1},
        "data": "partition/manifest.json",
        "local_epochs": 5,
        "rounds": 4,
        "eta": 0.1,
        "local_optimizer": "adam",
        "batch_size": 32,
        "seeds": [0, 1, 2],
        "selection_metric": "auroc",
    }
    Path("sweep.yaml").write_text(yaml.safe_dump(config, sort_keys=False))
    for argv in (["partition", "--spec", "partition.yaml", "--out", "partition"],
                 ["sweep", "--config", "sweep.yaml", "--grid", SWEEP_GRID, "--out", "sweep"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"fedbench {' '.join(argv)} exited {code}")


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as data:
            for name in data.files:
                arr = data[name]
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
    run_sweep()
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{file_digest(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
