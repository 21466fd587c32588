"""Every name ``perfbench/spans.py`` hooks still exists in fedbench, ``traced`` puts it
back, and a traced run does the work that ``perfbench.workloads`` computes.

The benchmark's traced pass swaps wrappers into fedbench's module and class
attributes and checks its span counts against the computed work; a rename
under ``src/``, a hooked function returning something else or a skipped step
would otherwise surface only in that pass.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from fedbench import cli, orchestrator
from fedbench.benchmarks import benchmark_config, small_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Tracer, hooks, summarize, traced  # noqa: E402
from perfbench.workloads import BATCH_SIZE, Work  # noqa: E402


def originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in hooks(Tracer())]


def test_every_hooked_attribute_resolves():
    # hooks() looks every name up, so a missing one raises AttributeError here
    for owner, attr, wrapper in hooks(Tracer()):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        assert wrapper.__wrapped__ is getattr(owner, attr)


def test_traced_restores_the_originals():
    before = originals()
    with traced(Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


@pytest.mark.parametrize("algorithm,optimizer", [("fedavg", "sgd"), ("fedbn", "sgd"),
                                                 ("feddyn", "adam")])
def test_traced_run_does_the_computed_work(algorithm, optimizer):
    """Under the wrappers a run makes one train-mode forward per client step
    and feeds it the rows that ``Work.add_experiment`` computes from the
    inputs, as the benchmark's traced pass checks; its post-call hooks read
    what the hooked functions return.  Under fedbn, which shares no norm
    entry, each client validates its own merged vector, which the forward
    copies into the plan's."""
    cfg = benchmark_config(algorithm, "feature_shift", rounds=2, seeds=(0,))
    cfg = replace(cfg, local_optimizer=optimizer)
    work = Work()
    work.add_experiment(cfg.model, cfg.data.sizes, cfg.local_epochs, cfg.rounds)
    tracer = Tracer()
    with traced(tracer):
        orchestrator.run_experiment(cfg, 0)
    calls = {name: entry["calls"] for name, entry in summarize(tracer.spans).items()}
    assert calls["nn.forward_train"] == work.steps
    assert tracer.counts["nn.train_rows"] == work.rows
    assert calls["orchestrator.run_local_training"] == work.client_rounds == 10
    assert calls["strategies.server_aggregate"] == calls["params.weighted_average"] == 2
    assert "orchestrator.diverged_client_rounds" not in tracer.counts


def sweep_outputs(out: Path) -> dict[str, object]:
    """Every CSV under a sweep's ``out`` as text, and each result.json without
    its wall-clock time, keyed by path below ``out``."""
    found = {p.relative_to(out).as_posix(): p.read_text() for p in out.rglob("*.csv")}
    for path in out.rglob("result.json"):
        record = json.loads(path.read_text())
        record.pop("elapsed_seconds")
        found[path.relative_to(out).as_posix()] = record
    return found


def test_traced_sweep_does_the_computed_work_and_keeps_every_result(tmp_path):
    """``fedbench sweep`` with fedpxn and local Adam over a written K = 10
    label-skew partition, the shape of the benchmark's ``ls_sweep_cli``: under
    the wrappers it makes one train-mode forward per client step, with the
    rows that ``Work`` computes from the manifest's ``n_k`` (a 65-row train
    split takes two steps and drops its singleton), and writes the bits an
    untraced sweep writes."""
    model = small_model()
    spec = {"kind": "label_skew", "num_clients": 10, "num_classes": 3, "input_dim": 8,
            "sizes": [94, 70, 50, 40, 30] * 2, "skew_concentration": 0.3,
            "class_separation": 1.0, "seed": 0}
    (tmp_path / "partition.yaml").write_text(yaml.safe_dump({"data": spec}))
    assert cli.main(["partition", "--spec", str(tmp_path / "partition.yaml"),
                     "--out", str(tmp_path / "part")]) == 0
    manifest = tmp_path / "part" / "manifest.json"
    config = {
        "model": {"input_dim": model.input_dim, "num_classes": model.num_classes,
                  "loss": model.loss,
                  "layers": [{"kind": layer.kind, **({"width": layer.width} if layer.width else {})}
                             for layer in model.layers]},
        "strategy": {"algorithm": "fedpxn", "mu": 0.1}, "data": str(manifest),
        "local_epochs": 1, "rounds": 2, "eta": 0.1, "local_optimizer": "adam",
        "batch_size": BATCH_SIZE, "seeds": [0, 1],
    }
    (tmp_path / "sweep.yaml").write_text(yaml.safe_dump(config))
    grid = [(1, 2), (2, 1)]
    n_ks = [client["n_k"] for client in json.loads(manifest.read_text())["clients"]]
    work = Work()
    for e, t in grid:
        for _ in config["seeds"]:
            work.add_experiment(model, n_ks, e, t)
    argv = ["sweep", "--config", str(tmp_path / "sweep.yaml"),
            "--grid", ",".join(f"{e}x{t}" for e, t in grid), "--out"]
    tracer = Tracer()
    with traced(tracer):
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    calls = {name: entry["calls"] for name, entry in summarize(tracer.spans).items()}
    assert calls["nn.forward_train"] == work.steps
    assert tracer.counts["nn.train_rows"] == work.rows
    traced_out, plain_out = sweep_outputs(tmp_path / "traced"), sweep_outputs(tmp_path / "plain")
    assert len(traced_out) == 1 + len(grid) * len(config["seeds"]) * 3
    assert traced_out == plain_out


@pytest.mark.parametrize("flags,tests", [([], 3), (["--one-sided"], 6)])
def test_traced_compare_tests_each_pair_once_when_two_sided(tmp_path, flags, tests):
    """``fedbench compare`` over three result trees runs one two-sided rank test
    per unordered pair and mirrors it; a one-sided test runs both ways."""
    dirs = []
    for i, algorithm in enumerate(("fedavg", "fedprox", "fedbn")):
        for seed in range(4):
            run_dir = tmp_path / algorithm / f"seed_{seed}"
            run_dir.mkdir(parents=True)
            (run_dir / "result.json").write_text(json.dumps(
                {"algorithm": algorithm, "mean_test_metric": 0.6 + 0.05 * i + 0.01 * seed}))
        dirs.append(str(tmp_path / algorithm))
    tracer = Tracer()
    with traced(tracer):
        assert cli.main(["compare", "--results", *dirs, *flags]) == 0
    calls = {name: entry["calls"] for name, entry in summarize(tracer.spans).items()}
    assert calls["metrics.mann_whitney_u"] == tests
    assert calls["metrics.significance_matrix"] == calls["cli.main"] == 1
