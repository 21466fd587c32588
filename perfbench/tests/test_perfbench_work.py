"""Step and row counts computed from the inputs, against a traced 2-round run."""

import dataclasses

import pytest

from fedbench import orchestrator
from fedbench.benchmarks import benchmark_config
from spans import Tracer, traced
from workloads import PassResult, Work, train_batches


def test_trailing_singleton_batch_is_dropped():
    assert train_batches(33) == [32]
    assert train_batches(34) == [32, 2]
    assert train_batches(64) == [32, 32]


def test_two_round_counts_by_hand():
    cfg = benchmark_config("fedavg", rounds=2, local_epochs=1, seeds=[0])
    work = Work()
    work.add_experiment(cfg.model, cfg.data.sizes, cfg.local_epochs, cfg.rounds)
    # train splits 280/244/197/166/158 (0.7 * 350 is just below 245 in float64)
    # -> 9+8+7+6+5 batches per epoch
    assert work.steps == 2 * 35
    assert work.rows == 2 * (280 + 244 + 197 + 166 + 158)
    assert work.client_rounds == 2 * 5
    # dense 8x16 + 16x3 = 176 MACs per row, 6 flop per MAC over forward+backward
    assert work.train_mflop == work.rows * 6 * 176 / 1e6


def test_computed_counts_match_a_traced_two_round_run():
    base = benchmark_config("fedprox", rounds=2, local_epochs=2, seeds=[0])
    # 48 examples -> 33 train rows: a trailing singleton batch the orchestrator drops
    data = dataclasses.replace(base.data, num_clients=2, sizes=[48, 60])
    cfg = dataclasses.replace(base, data=data)
    work = Work()
    work.add_experiment(cfg.model, data.sizes, cfg.local_epochs, cfg.rounds)
    tracer = Tracer()
    with traced(tracer):
        orchestrator.run_experiment(cfg, 0)
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    assert calls["nn.forward_train"] == work.steps == 2 * 2 * (1 + 2)
    assert tracer.counts["nn.train_rows"] == work.rows == 2 * 2 * (32 + 42)
    assert calls["orchestrator.run_local_training"] == work.client_rounds


def test_wall_ref_costs_each_operation_in_its_own_reference_time():
    res = PassResult()
    res.record(2.0, 0.02, True)
    res.record(1.0, 0.04, False)
    assert res.wall_s == 3.0
    assert res.wall_ref == pytest.approx(2.0 / 0.02 + 1.0 / 0.04)
    assert (res.attempted, res.failed) == (2, 1)
