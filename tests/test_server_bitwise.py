"""The round's vector code gives the same bits as its dict-based oracle.

``server_oracle`` holds aggregation, the FedOpt rules, the drift diagnostic,
the evaluation parameters and AUROC as they were written over named
ParamSet entries.  The server now works on one plan's flat vectors, with
the algorithm's shared prefix as the broadcast; ``nn_oracle.to_paramset`` and
``to_vector`` translate between the two forms, and every comparison here is
``np.array_equal`` or ``==``.
"""

import numpy as np
import pytest

import server_oracle as oracle
from nn_oracle import to_paramset, to_vector
from conftest import make_model, round_client, strategy_config
from fedbench import metrics, orchestrator
from fedbench.errors import SingleClass
from fedbench.nn import Plan, init_params
from fedbench.params import l2_distance_excluding_norm
from fedbench.strategies import (
    ALGORITHMS,
    NORM_EXCLUDING,
    broadcast_fragment,
    init_server_state,
    server_aggregate,
)

KINDS = {"batch_norm": ["batch_norm"], "layer_norm": ["layer_norm"],
         "group_norm": ["group_norm"], "no_norm": []}
# the middle of an id names the entries the algorithm keeps local
CASES = [
    pytest.param(algorithm, kind, id=f"{algorithm}-{local}-{kind}")
    for algorithm in ALGORITHMS
    for local in ["all_norm_excluded" if algorithm in NORM_EXCLUDING else "none"]
    for kind in KINDS
]


@pytest.mark.parametrize("algorithm,kind", CASES)
def test_round_vectors_match_oracle(algorithm, kind):
    """Global, m/v/h, drift and round-start vectors over six rounds of random clients."""
    plan = Plan(make_model(KINDS[kind], hidden=8, groups=2))
    cfg = strategy_config(algorithm, eta_g=0.1, gamma=0.01)
    k = cfg.shared_prefix(plan)
    rng = np.random.default_rng([ALGORITHMS.index(algorithm), len(plan.slots)])
    w_0 = init_params(plan, 0)
    server = init_server_state(w_0, cfg, plan.n_train)
    o_server = oracle.init_server_state(algorithm, to_paramset(plan, w_0), cfg)
    own = {cid: w_0 for cid in range(4)}  # each client's own vector
    for round_idx in range(6):
        start = orchestrator._merge(broadcast_fragment(server, k), own[0])
        o_start = oracle.eval_params(to_paramset(plan, own[0]), o_server, algorithm)
        assert np.array_equal(start, to_vector(plan, o_start.entries))
        clients, o_updates = [], []
        for cid in own:
            scale = rng.choice([1e-3, 0.1, 2.0])
            vec = server.global_params + scale * rng.standard_normal(plan.size)
            vec.flags.writeable = False
            diverged = round_idx == 2 and cid == 1
            clients.append(round_client(cid, vec, int(rng.integers(5, 60)), diverged))
            o_updates.append(oracle.ClientUpdate(cid, to_paramset(plan, vec), clients[-1].n_k,
                                                 diverged))
            d = l2_distance_excluding_norm(vec, server.global_params, plan.non_norm_slots)
            assert d == oracle.l2_distance_excluding_norm(
                to_paramset(plan, vec), o_server.global_params)
        server = server_aggregate(server, clients, cfg)
        o_server = oracle.server_aggregate(algorithm, o_server, o_updates, cfg)
        o_global = o_server.global_params.entries
        assert np.array_equal(server.global_params, to_vector(plan, o_global))
        assert not server.global_params.flags.writeable
        if algorithm in ("fedadam", "fedadagrad", "fedyogi"):
            assert np.array_equal(server.m, to_vector(plan, o_server.m))
            assert np.array_equal(server.v, to_vector(plan, o_server.v))
        if algorithm == "feddyn":
            assert np.array_equal(server.h, to_vector(plan, o_server.h))
        fragment = broadcast_fragment(server, k)
        for c, o_u in zip(clients, o_updates):
            own[c.client_id] = c.params
            got = orchestrator._merge(fragment, c.params)
            want = oracle.eval_params(o_u.params_after, o_server, algorithm)
            assert np.array_equal(got, to_vector(plan, want.entries))
            assert np.shares_memory(got, server.global_params) == (k == plan.size)


def tied_inputs(rng, n, classes):
    """Scores on a coarse grid (so ties are common) and labels that may leave
    a class out or give it every row."""
    levels = int(rng.integers(2, 12))
    shape = (n,) if classes == 2 else (n, classes)
    scores = rng.integers(0, levels, shape) / levels
    present = rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)
    return scores, rng.choice(present, n)


def test_auroc_matches_oracle_on_tied_inputs():
    rng = np.random.default_rng(2024)
    checked = single = 0
    for trial in range(18_000):
        classes = (2, 3, 4, 5)[trial % 4]
        scores, labels = tied_inputs(rng, int(rng.integers(2, 70)), classes)
        try:
            want = oracle.auroc(scores, labels)
        except SingleClass:
            with pytest.raises(SingleClass):
                metrics.auroc(scores, labels)
            single += 1
            continue
        assert metrics.auroc(scores, labels) == want
        checked += 1
    assert checked >= 10_000 and single > 100
