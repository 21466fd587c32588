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

from fedbench import cli, orchestrator
from fedbench.benchmarks import benchmark_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import Tracer, hooks, summarize, traced  # noqa: E402
from perfbench.workloads import Work  # noqa: E402


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


@pytest.mark.parametrize("algorithm,optimizer", [("fedavg", "sgd"), ("feddyn", "adam")])
def test_traced_run_does_the_computed_work(algorithm, optimizer):
    """Under the wrappers a run makes one train-mode forward per client step
    and feeds it the rows that ``Work.add_experiment`` computes from the
    inputs, as the benchmark's traced pass checks; its post-call hooks read
    what the hooked functions return."""
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
