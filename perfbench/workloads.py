"""The three benchmark workloads: inputs, timed operations, output checks.

Every workload turns the workload seed into its inputs (``setup``), then
runs one pass of timed operations over them (``run_pass``).  An operation is
one ``run_experiment`` call or one CLI command; it fails when it raises,
exits non-zero or fails its output check.  Each workload also computes from
its inputs alone the work a pass must do (optimizer steps, rows, ...), which
the traced run checks against the spans.

* ``fs_grid_ckpt``: 8 algorithms x 3 seeds x 50 rounds, E=1, feature shift,
  K=5, each experiment checkpointing to disk.  Rounds dominate: aggregation,
  drift, evaluation and checkpoint I/O run 1,200 times against one local
  epoch per round, and it is the only workload using all 8 server rules.
* ``ls_sweep_cli``: ``fedbench partition`` then ``fedbench sweep --grid
  5x4,10x2`` with fedpxn + Adam on label skew, K=10.  20 local epochs per
  client against 2-4 rounds, so the nn forward/backward and the local
  optimizer dominate; it also covers CLI config parsing, CSV loading and the
  Adam and proximal paths.
* ``rank_compare``: ``fedbench compare`` and ``fedbench report`` over 4
  result directories x 10 seeds.  n+m = 20 is the largest exact
  Mann-Whitney case; no training, so it is the control on which an
  nn/params/strategies change must show no change.

Every timed operation runs between two timings of a fixed reference task
(``reference_s``), so that a pass can also be costed in units of the host's
speed at that moment.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from fedbench import benchmarks, cli, data_synth, metrics, orchestrator
from fedbench.strategies import ALGORITHMS

BATCH_SIZE = 32

_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((32, 8))
_REF_W = (_REF_RNG.standard_normal((8, 16)), _REF_RNG.standard_normal((16, 3)))


def reference_s() -> float:
    """Seconds a fixed CPU task takes now; it never calls fedbench.

    On a shared host the speed of one core moves by up to half between
    stretches of tens of seconds, and fedbench's operations, which are
    interpreter-bound small-array numpy, slow down with it.  The task mixes
    the same two kinds of work: a pure-Python loop and a tiny dense
    forward pass.  It takes about 30 ms on a 2-core Xeon.
    """
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i
    w1, w2 = _REF_W
    for _ in range(700):
        h = np.maximum(_REF_X @ w1, 0.0) @ w2
        h = np.exp(h - h.max(axis=1, keepdims=True))
        h /= h.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def timed(fn):
    """(seconds ``fn()`` took, mean reference seconds before and after, its value)."""
    before = reference_s()
    start = time.perf_counter()
    value = fn()
    seconds = time.perf_counter() - start
    return seconds, (before + reference_s()) / 2, value


@dataclass
class PassResult:
    """What one pass of timed operations did."""

    op_seconds: list[float] = field(default_factory=list)
    ref_seconds: list[float] = field(default_factory=list)  # reference time around each op
    attempted: int = 0
    failed: int = 0
    quality: list[float] = field(default_factory=list)  # mean_test_metric per experiment
    compare_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.op_seconds)

    @property
    def wall_ref(self) -> float:
        """The pass's wall time, each operation's in units of the reference time around it."""
        return sum(s / r for s, r in zip(self.op_seconds, self.ref_seconds))

    def record(self, seconds: float, ref_s: float, ok: bool) -> None:
        self.op_seconds.append(seconds)
        self.ref_seconds.append(ref_s)
        self.attempted += 1
        self.failed += not ok


def experiment_seeds(seed: int) -> list[int]:
    """Workload seed s runs experiment seeds 3s, 3s+1, 3s+2 on data seed s."""
    return [3 * seed, 3 * seed + 1, 3 * seed + 2]


def train_batches(n_train: int, batch_size: int = BATCH_SIZE) -> list[int]:
    """Rows of each mini-batch in one local epoch.

    The orchestrator drops a trailing singleton batch, since batch-norm
    train mode cannot use it.
    """
    rows = [min(batch_size, n_train - start) for start in range(0, n_train, batch_size)]
    return [r for r in rows if r >= 2]


def dense_macs(model) -> int:
    """Multiply-adds of the dense layers for one input row."""
    widths = [model.input_dim] + model.resolve_widths()
    return sum(
        widths[i] * widths[i + 1] for i, layer in enumerate(model.layers) if layer.kind == "dense"
    )


@dataclass
class Work:
    """Work of one pass, computed from the inputs alone."""

    steps: int = 0  # train-mode forwards (one per mini-batch)
    rows: int = 0  # rows fed to train-mode forward
    client_rounds: int = 0
    train_mflop: float = 0.0  # dense forward (2 flop/MAC) + backward (4 flop/MAC)
    mwu_arrangements: int = 0  # sum of C(n+m, n) over exact rank tests

    def add_experiment(self, model, n_ks: list[int], local_epochs: int, rounds: int) -> None:
        epochs = local_epochs * rounds
        batches = [train_batches(data_synth.split_sizes(n)[0]) for n in n_ks]
        rows = epochs * sum(sum(b) for b in batches)
        self.steps += epochs * sum(len(b) for b in batches)
        self.rows += rows
        self.client_rounds += rounds * len(n_ks)
        self.train_mflop += rows * 6 * dense_macs(model) / 1e6


def _failure(what: str) -> None:
    """Report a failed operation, with the traceback of the exception being handled."""
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc()


def _exit_code(argv: list[str]) -> int | None:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code
    except Exception:
        _failure(f"fedbench {argv[0]}")
        return None


def run_cli(argv: list[str]) -> tuple[float, float, bool]:
    """One CLI command in process; (seconds, reference seconds, exited 0).
    Its stdout is discarded."""
    seconds, ref_s, code = timed(lambda: _exit_code(argv))
    if code != 0:
        print(f"FAILED fedbench {' '.join(argv)}: exit {code}", file=sys.stderr)
    return seconds, ref_s, code == 0


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _unit_interval(value) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_experiment(run_dir: Path, rounds: int, unrankable_ok: bool = False) -> tuple[bool, float]:
    """rounds.csv, distances.csv and result.json present, ``rounds`` rounds,
    test metrics finite in [0, 1]; returns (ok, mean_test_metric).

    With ``unrankable_ok`` a client's test metric may be NaN, which fedbench
    reports for a single-class test split (common under strong label skew);
    their mean must still be finite.
    """
    try:
        result = json.loads((run_dir / "result.json").read_text())
        logged = {int(r["round"]) for r in _csv_rows(run_dir / "rounds.csv")}
        drift = {int(r["round"]) for r in _csv_rows(run_dir / "distances.csv")}
    except (OSError, ValueError, KeyError):
        _failure(f"output check of {run_dir}")
        return False, math.nan
    expected = set(range(1, rounds + 1))
    mean = result.get("mean_test_metric", math.nan)
    ok = (
        result.get("rounds") == rounds
        and logged == expected
        and drift == expected
        and all(
            _unit_interval(v) or (unrankable_ok and math.isnan(v))
            for v in result.get("test_metrics", {}).values()
        )
        and _unit_interval(mean)
    )
    if not ok:
        print(f"FAILED output check of {run_dir}", file=sys.stderr)
    return ok, mean


# ---------------------------------------------------------------------------

class FsGridCkpt:
    name = "fs_grid_ckpt"
    rounds = 50

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> PassResult:
        self.configs = [
            benchmarks.benchmark_config(
                alg, "feature_shift", rounds=self.rounds, local_epochs=1,
                seeds=experiment_seeds(self.seed), data_seed=self.seed,
            )
            for alg in ALGORITHMS
        ]
        self.work = Work()
        for cfg in self.configs:
            for _ in cfg.seeds:
                self.work.add_experiment(cfg.model, cfg.data.sizes, cfg.local_epochs, cfg.rounds)
        return PassResult()

    def run_pass(self, out: Path) -> PassResult:
        res = PassResult()
        for cfg in self.configs:
            for seed in cfg.seeds:
                run_dir = out / cfg.strategy.algorithm / f"seed_{seed}"
                seconds, ref_s, ran = timed(lambda: self._experiment(cfg, seed, run_dir))
                ok, mean = check_experiment(run_dir, cfg.rounds) if ran else (False, math.nan)
                res.record(seconds, ref_s, ok)
                res.quality.append(mean)
        return res

    @staticmethod
    def _experiment(cfg, seed: int, run_dir: Path) -> bool:
        try:
            orchestrator.run_experiment(cfg, seed, out_dir=run_dir)
            return True
        except Exception:
            _failure(f"run_experiment {cfg.strategy.algorithm} seed {seed}")
            return False


class LsSweepCli:
    name = "ls_sweep_cli"
    grid = ((5, 4), (10, 2))
    sizes = [400, 350, 282, 238, 226] * 2

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> PassResult:
        """Write the partition spec and the run config, then ``fedbench partition``."""
        work.mkdir(parents=True, exist_ok=True)
        spec = {"data": {
            "kind": "label_skew", "num_clients": len(self.sizes), "num_classes": 3,
            "input_dim": 8, "sizes": self.sizes, "skew_concentration": 0.3,
            "class_separation": 1.0, "seed": self.seed,
        }}
        spec_path = work / "partition.yaml"
        spec_path.write_text(yaml.safe_dump(spec, sort_keys=False))
        part_dir = work / "partition"
        seconds, ref_s, ok = run_cli(
            ["partition", "--spec", str(spec_path), "--out", str(part_dir)]
        )
        manifest = part_dir / "manifest.json"
        res = PassResult()
        res.record(seconds, ref_s, ok and manifest.exists())
        if res.failed:
            return res
        model = benchmarks.small_model()
        e0, t0 = self.grid[0]
        config = {
            "model": {
                "input_dim": model.input_dim, "num_classes": model.num_classes,
                "loss": model.loss,
                "layers": [
                    {"kind": layer.kind, **({"width": layer.width} if layer.width else {})}
                    for layer in model.layers
                ],
            },
            "strategy": {"algorithm": "fedpxn", "mu": 0.1},
            "data": str(manifest),
            "local_epochs": e0,
            "rounds": t0,
            "eta": 0.1,
            "local_optimizer": "adam",
            "batch_size": BATCH_SIZE,
            "seeds": experiment_seeds(self.seed),
            "selection_metric": "auroc",
        }
        self.config_path = work / "config.yaml"
        self.config_path.write_text(yaml.safe_dump(config, sort_keys=False))
        self.seeds = config["seeds"]
        n_ks = [c["n_k"] for c in json.loads(manifest.read_text())["clients"]]
        self.work = Work()
        for e, t in self.grid:
            for _ in self.seeds:
                self.work.add_experiment(model, n_ks, e, t)
        return res

    def run_pass(self, out: Path) -> PassResult:
        res = PassResult()
        grid = ",".join(f"{e}x{t}" for e, t in self.grid)
        seconds, ref_s, ok = run_cli(
            ["sweep", "--config", str(self.config_path), "--grid", grid, "--out", str(out)]
        )
        if ok:
            try:
                ok = len(_csv_rows(out / "sweep.csv")) == len(self.grid) * len(self.seeds)
            except OSError:
                ok = False
            if not ok:
                print("FAILED sweep.csv row count", file=sys.stderr)
        for e, t in self.grid:
            for seed in self.seeds:
                run_ok, mean = check_experiment(
                    out / f"E{e}_T{t}" / f"seed_{seed}", t, unrankable_ok=True
                )
                ok = ok and run_ok
                res.quality.append(mean)
        res.record(seconds, ref_s, ok)
        return res


class RankCompare:
    name = "rank_compare"
    algorithms = ("fedavg", "fedprox", "fedbn", "fedpxn")
    n_seeds = 10

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, work: Path) -> PassResult:
        """Per-seed result.json files, quantized to 3 decimals so ties occur."""
        rng = np.random.default_rng([self.seed, 7])
        self.dirs = []
        samples = []
        for alg in self.algorithms:
            centre = rng.uniform(0.62, 0.82)
            values = np.round(centre + 0.02 * rng.standard_normal(self.n_seeds), 3)
            d = work / "results" / alg
            for i, value in enumerate(values):
                run_dir = d / f"seed_{i}"
                run_dir.mkdir(parents=True, exist_ok=True)
                (run_dir / "result.json").write_text(json.dumps({
                    "selected_round": int(rng.integers(1, 51)),
                    "seed": i,
                    "mean_test_metric": float(value),
                    "test_metrics": {},
                    "selection_metric": "auroc",
                    "algorithm": alg,
                    "rounds": 50,
                    "local_epochs": 1,
                    "elapsed_seconds": float(rng.uniform(0.5, 1.0)),
                }, indent=2))
            self.dirs.append(d)
            samples.append(len(values))
        self.work = Work()
        for i, n in enumerate(samples):
            for j, m in enumerate(samples):
                if i != j and n + m <= metrics.EXACT_LIMIT:
                    self.work.mwu_arrangements += math.comb(n + m, n)
        self.tests = len(samples) * (len(samples) - 1)
        return PassResult()

    def run_pass(self, out: Path) -> PassResult:
        res = PassResult()
        seconds, ref_s, ok = run_cli(
            ["compare", "--results", *map(str, self.dirs), "--out", str(out / "compare")]
        )
        res.compare_s = seconds
        res.record(
            seconds, ref_s, ok and self.check_significance(out / "compare" / "significance.csv")
        )
        for d in self.dirs:
            report = out / f"report_{d.name}"
            seconds, ref_s, ok = run_cli(["report", "--results", str(d), "--out", str(report)])
            if ok:
                try:
                    summary = _csv_rows(report / "summary.csv")
                    ok = len(summary) == 1 and int(summary[0]["n_seeds"]) == self.n_seeds
                    ok = ok and (report / "timing.csv").exists()
                except (OSError, ValueError, KeyError):
                    ok = False
                if not ok:
                    print(f"FAILED report check of {report}", file=sys.stderr)
            res.record(seconds, ref_s, ok)
        return res

    def check_significance(self, path: Path) -> bool:
        """All pairs present, diagonal p = 1, p symmetric, every p in [0, 1]."""
        try:
            rows = _csv_rows(path)
            p = {(r["alg_a"], r["alg_b"]): float(r["p"]) for r in rows}
        except (OSError, ValueError, KeyError):
            _failure(f"significance check of {path}")
            return False
        names = self.algorithms
        ok = (
            len(rows) == len(names) ** 2
            and all((a, b) in p for a in names for b in names)
            and all(p[(a, a)] == 1.0 for a in names)
            and all(p[(a, b)] == p[(b, a)] for a in names for b in names)
            and all(_unit_interval(v) for v in p.values())
        )
        if not ok:
            print(f"FAILED significance check of {path}", file=sys.stderr)
        return ok


WORKLOADS = {w.name: w for w in (FsGridCkpt, LsSweepCli, RankCompare)}
