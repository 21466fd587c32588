import csv
import itertools

import numpy as np
import pytest

from fedbench.errors import EmptySample, SingleClass
from fedbench.metrics import (
    INSIGNIFICANT,
    auprc,
    auroc,
    mann_whitney_u,
    mean_std,
    significance_matrix,
    write_significance_csv,
    write_summary_csv,
)


def pairwise_auroc(scores, labels):
    """Independent O(n^2) oracle: ordered-pair counting ties = 1/2."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auroc_documented_example():
    scores = [0.1, 0.4, 0.35, 0.8]
    labels = [0, 0, 1, 1]
    assert auroc(scores, labels) == pytest.approx(0.75, abs=1e-12)
    assert auroc(scores, labels) == pytest.approx(pairwise_auroc(scores, labels), abs=1e-12)


def test_auroc_perfect_reversed_tied():
    assert auroc([0.1, 0.9], [0, 1]) == 1.0
    assert auroc([0.9, 0.1], [0, 1]) == 0.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_matches_pairwise_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        # quantized scores force ties
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        assert auroc(scores, labels) == pytest.approx(
            pairwise_auroc(scores, labels), abs=1e-12
        )


def test_auroc_single_class_raises():
    with pytest.raises(SingleClass):
        auroc([0.1, 0.2], [1, 1])


def test_auprc_documented_example():
    # scores 0.9,0.8,0.7 labels 1,0,1: precisions 1, 1/2, 2/3 at recalls 1/2,1/2,1
    # AP = 1/2*1 + 0*1/2 + 1/2*2/3 = 0.83333...
    assert auprc([0.9, 0.8, 0.7], [1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_auprc_perfect_and_tied():
    assert auprc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    # all-tied scores: one threshold, precision = prevalence, recall jumps to 1
    assert auprc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5, abs=1e-12)


def step_ap_oracle(scores, labels):
    """Independent AP oracle: iterate thresholds descending, sum P * dR."""
    thresholds = sorted(set(scores), reverse=True)
    n_pos = sum(labels)
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 0)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_auprc_matches_step_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(4, 25))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        assert auprc(scores, labels) == pytest.approx(
            step_ap_oracle(list(scores), list(labels)), abs=1e-12
        )


def test_macro_multiclass_is_mean_of_one_vs_rest():
    rng = np.random.default_rng(2)
    scores = rng.random((30, 3))
    labels = rng.integers(0, 3, 30)
    expected = np.mean(
        [auroc(scores[:, c], (labels == c).astype(int)) for c in range(3)]
    )
    assert auroc(scores, labels) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Mann-Whitney U

def test_mwu_documented_example():
    res = mann_whitney_u([1, 2, 3], [4, 5, 6])
    assert res.u_statistic == 0.0
    assert res.p_value == pytest.approx(0.1, abs=1e-12)
    assert res.method == "exact"
    assert not res.significant


def test_mwu_all_ties_p_one():
    res = mann_whitney_u([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert res.p_value == 1.0


def test_mwu_empty_sample():
    with pytest.raises(EmptySample):
        mann_whitney_u([], [1.0])


def test_mwu_shift_and_monotone_invariance():
    a = [0.3, 0.7, 1.4, 2.0]
    b = [0.9, 1.1, 2.5]
    base = mann_whitney_u(a, b)
    shifted = mann_whitney_u([x + 10 for x in a], [x + 10 for x in b])
    cubed = mann_whitney_u([x**3 for x in a], [x**3 for x in b])
    assert shifted.u_statistic == base.u_statistic
    assert shifted.p_value == pytest.approx(base.p_value, abs=1e-15)
    assert cubed.u_statistic == base.u_statistic
    assert cubed.p_value == pytest.approx(base.p_value, abs=1e-15)


def midranks_oracle(pooled):
    out = []
    for v in pooled:
        less = sum(1 for w in pooled if w < v)
        equal = sum(1 for w in pooled if w == v)
        out.append(less + (equal + 1) / 2.0)
    return out


def exact_mwu_oracle(a, b):
    """Two-sided exact p by direct enumeration, written independently."""
    n, m = len(a), len(b)
    pooled = list(a) + list(b)
    ranks = midranks_oracle(pooled)
    u_obs = sum(ranks[:n]) - n * (n + 1) / 2.0
    le = ge = total = 0
    for combo in itertools.combinations(range(n + m), n):
        u = sum(ranks[i] for i in combo) - n * (n + 1) / 2.0
        total += 1
        if u <= u_obs + 1e-9:
            le += 1
        if u >= u_obs - 1e-9:
            ge += 1
    return u_obs, min(1.0, 2.0 * min(le / total, ge / total))


def test_mwu_exact_matches_independent_enumeration_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        a = rng.integers(0, 5, n).astype(float)  # heavy ties
        b = rng.integers(0, 5, m).astype(float)
        u, p = exact_mwu_oracle(list(a), list(b))
        res = mann_whitney_u(a, b, method="exact")
        assert res.u_statistic == pytest.approx(u, abs=1e-12)
        assert res.p_value == pytest.approx(p, abs=1e-12)


def test_mwu_normal_close_to_exact_at_boundary():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10) + 0.5
        exact = mann_whitney_u(a, b, method="exact")
        normal = mann_whitney_u(a, b, method="normal")
        assert abs(exact.p_value - normal.p_value) <= 0.02


def test_mwu_one_sided():
    res = mann_whitney_u([1, 2, 3], [4, 5, 6], alternative="one-sided")
    assert res.p_value == pytest.approx(0.05, abs=1e-12)
    assert res.significant is False  # strict < threshold


def test_mwu_auto_switches_to_normal_above_limit():
    a = np.arange(11.0)
    b = np.arange(10.0) + 0.5
    assert mann_whitney_u(a, b).method == "normal"
    assert mann_whitney_u(a[:10], b).method == "exact"


# ---------------------------------------------------------------------------
# comparison matrix & reports

def test_significance_matrix_self_and_antisymmetry():
    results = {
        "fedavg": [0.70, 0.71, 0.72],
        "fedprox": [0.70, 0.71, 0.72],
        "fedbn": [0.90, 0.91, 0.92],
    }
    matrix = significance_matrix(results)
    for alg in results:
        res, label = matrix[(alg, alg)]
        assert res.p_value == 1.0 and label == INSIGNIFICANT
    for a in results:
        for b in results:
            pa = matrix[(a, b)][0].p_value
            pb = matrix[(b, a)][0].p_value
            assert pa == pytest.approx(pb, abs=1e-12)


def test_mean_std_example():
    mean, std = mean_std([70.0, 72.0, 74.0])
    assert mean == pytest.approx(72.0, abs=1e-12)
    assert std == pytest.approx(2.0, abs=1e-12)
    assert mean_std([5.0]) == (5.0, 0.0)


def test_csv_writers(tmp_path):
    summary = tmp_path / "summary.csv"
    write_summary_csv(summary, {"fedavg": {"auroc": [0.7, 0.8], "auprc": [0.6]}})
    rows = list(csv.reader(open(summary)))
    assert rows[0] == ["algorithm", "metric", "mean", "std", "n_seeds"]
    assert len(rows) == 3

    sig = tmp_path / "significance.csv"
    matrix = significance_matrix({"a": [1.0, 2.0], "b": [1.5, 2.5]})
    write_significance_csv(sig, matrix)
    rows = list(csv.reader(open(sig)))
    assert rows[0] == ["alg_a", "alg_b", "u", "p", "label"]
    assert len(rows) == 5
