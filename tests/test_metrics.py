import csv
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from fedbench.errors import ConfigError, EmptySample, NonFiniteScore, ShapeMismatch, SingleClass
from fedbench.metrics import (
    INSIGNIFICANT,
    LOSE,
    WIN,
    _doubled_midranks,
    _rank_sum_counts,
    auprc,
    auroc,
    mann_whitney_u,
    mean_std,
    significance_matrix,
    write_csv,
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


@pytest.mark.parametrize("metric", [auroc, auprc])
def test_multi_hot_labels_take_the_macro_mean_over_label_columns(metric):
    rng = np.random.default_rng(4)
    scores = rng.random((10, 3))
    labels = (rng.random((10, 3)) < 0.5).astype(float)
    labels[:, 2] = 1.0  # a column with one outcome only is skipped
    expected = np.mean([metric(scores[:, c], labels[:, c]) for c in range(2)])
    assert metric(scores, labels) == expected
    with pytest.raises(ShapeMismatch):
        metric(scores, labels[:, :2])
    with pytest.raises(ShapeMismatch):
        metric(scores[:, 0], labels)
    with pytest.raises(ShapeMismatch):
        metric(scores[:, 0], labels[:9, 0])


@pytest.mark.parametrize("metric", [auroc, auprc])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scores_raise(metric, bad):
    with pytest.raises(NonFiniteScore):
        metric([0.1, bad, 0.4], [0, 1, 1])
    with pytest.raises(NonFiniteScore):
        metric([[0.1, 0.9], [bad, 0.5]], [0, 1])


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


def test_significance_matrix_rejects_a_nan_seed_metric():
    """A seed whose test metric is NaN (every client's test split single-class)
    cannot be ranked against the others."""
    results = {"a": [0.6, float("nan"), 0.7], "b": [0.5, 0.55, 0.65]}
    with pytest.raises(NonFiniteScore, match="samples must not hold NaN"):
        significance_matrix(results)


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


def enumerate_mwu(a, b):
    """U and the counts of arrangements with U <= and >= it, by direct enumeration."""
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
    return u_obs, le, ge, total


def exact_mwu_oracle(a, b):
    """Two-sided exact p by direct enumeration, written independently."""
    u_obs, le, ge, total = enumerate_mwu(a, b)
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


@pytest.mark.parametrize("n,m,levels", [(3, 4, 2), (6, 6, 3), (5, 9, 4), (10, 10, 3), (7, 13, 2), (9, 11, 5)])
def test_mwu_exact_equals_enumeration_up_to_limit(n, m, levels):
    """The recurrence counts exactly the arrangements the enumeration counts."""
    rng = np.random.default_rng(n * 100 + m)
    a = rng.integers(0, levels, n).astype(float)  # heavy ties
    b = rng.integers(0, levels, m).astype(float) + 0.5 * rng.integers(0, 2, m)
    u_obs, le, ge, total = enumerate_mwu(list(a), list(b))
    two = mann_whitney_u(a, b, alternative="two-sided", method="exact")
    one = mann_whitney_u(a, b, alternative="one-sided", method="exact")
    assert two.u_statistic == u_obs and one.u_statistic == u_obs
    assert two.p_value == min(1.0, 2.0 * min(le / total, ge / total))
    assert one.p_value == le / total


def test_midranks_match_oracle():
    rng = np.random.default_rng(6)
    cases = [np.array([]), np.array([0.3]), np.full(7, 2.0)]
    for _ in range(300):
        n = int(rng.integers(0, 40))
        q = int(rng.integers(1, 6))
        cases.append(np.round(rng.random(n) * q) / q)
    for values in cases:
        doubled, ties = _doubled_midranks(np.sort(values), values)
        assert np.array_equal(doubled, 2 * np.array(midranks_oracle(list(values))))
        assert np.array_equal(ties, [np.count_nonzero(values == v) for v in values])


def test_mwu_exact_large_samples_with_ties():
    """n = m = 40 is out of reach of enumeration; counts must not overflow."""
    rng = np.random.default_rng(8)
    a = np.round(rng.random(40), 1)
    b = np.round(rng.random(40) + 0.1, 1)
    pooled = np.concatenate([a, b])
    doubled, _ = _doubled_midranks(np.sort(pooled), pooled)
    assert _rank_sum_counts(doubled, 40).sum() == math.comb(80, 40)
    exact = mann_whitney_u(a, b, method="exact")
    normal = mann_whitney_u(a, b, method="normal")
    assert exact.method == "exact"
    assert 0.0 <= exact.p_value <= 1.0
    assert abs(exact.p_value - normal.p_value) <= 0.01


def object_rank_sum_counts(doubled, n):
    """The rank-sum recurrence over Python ints, row by row from the top (so
    each value is folded in once), written apart from the module's table."""
    width = int(doubled.sum()) + 1
    rows = [np.zeros(width, dtype=object) for _ in range(n + 1)]
    rows[0][0] = 1
    for d in doubled.tolist():
        for k in range(n, 0, -1):
            rows[k][d:] += rows[k - 1][:width - d]
    return rows[n]


@pytest.mark.parametrize("n,m,levels", [(10, 10, 4), (7, 13, 3), (25, 25, 6)])
def test_int64_rank_sum_counts_equal_python_int_counts(n, m, levels):
    rng = np.random.default_rng(n * 100 + m)
    pooled = rng.integers(0, levels, n + m).astype(float)  # heavy ties
    doubled, _ = _doubled_midranks(np.sort(pooled), pooled)
    counts = _rank_sum_counts(doubled, n)
    assert counts.dtype == np.int64
    assert counts.tolist() == object_rank_sum_counts(doubled, n).tolist()


@pytest.mark.parametrize("n,m,dtype", [
    (10, 10, np.int64), (33, 33, np.int64), (34, 34, object), (62, 6, object), (6, 62, np.int64),
])
def test_rank_sum_counts_dtype_follows_the_largest_count(n, m, dtype):
    """Rows 0..n hold counts up to C(N, min(n, N // 2)); int64 only below 2**63."""
    doubled = np.arange(2, 2 * (n + m) + 1, 2)  # untied ranks 1..N, doubled
    assert _rank_sum_counts(doubled, n).dtype == dtype


def test_mwu_exact_unbalanced_equals_its_mirror():
    """n = 62, m = 6: C(68, 62) fits int64 but the middle rows, up to C(68, 34),
    do not, so this side counts in Python ints and the mirror in int64."""
    rng = np.random.default_rng(12)
    a = np.round(rng.random(62), 1)
    b = np.round(rng.random(6) + 0.2, 1)
    ab = mann_whitney_u(a, b, method="exact")
    ba = mann_whitney_u(b, a, method="exact")
    assert 0.0 < ab.p_value < 1.0
    assert ab.p_value == ba.p_value
    assert ab.u_statistic + ba.u_statistic == 62 * 6


@pytest.mark.parametrize("n,m", [(3, 3), (10, 10), (62, 6)])
@pytest.mark.parametrize("alternative", ["two-sided", "one-sided"])
def test_mwu_exact_result_types(n, m, alternative):
    rng = np.random.default_rng(n + m)
    res = mann_whitney_u(np.round(rng.random(n), 1), np.round(rng.random(m) + 0.3, 1),
                         alternative=alternative, method="exact")
    assert type(res.u_statistic) is float
    assert type(res.p_value) is float
    assert type(res.significant) is bool


def test_mwu_exact_matches_scipy_without_ties():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(9)
    for _ in range(20):
        n, m = (int(k) for k in rng.integers(1, 11, 2))
        a = rng.standard_normal(n)
        b = rng.standard_normal(m) + 0.5
        for alternative, scipy_alt in (("two-sided", "two-sided"), ("one-sided", "less")):
            ours = mann_whitney_u(a, b, alternative=alternative, method="exact")
            ref = stats.mannwhitneyu(a, b, alternative=scipy_alt, method="exact")
            assert ours.u_statistic == ref.statistic
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-15)


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


@pytest.mark.parametrize("option,value", [("method", "exakt"), ("method", "Exact"),
                                          ("alternative", "less"), ("alternative", "greater")])
def test_mwu_rejects_an_unknown_method_or_alternative(option, value):
    with pytest.raises(ConfigError) as exc:
        mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], **{option: value})
    assert exc.value.field == option
    # a matrix over one algorithm builds only its diagonal entry and runs no test
    for results in ({"a": [1.0, 2.0, 3.0], "b": [4.0, 5.0, 6.0]}, {"a": [1.0, 2.0]}):
        with pytest.raises(ConfigError) as exc:
            significance_matrix(results, **{option: value})
        assert exc.value.field == option


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


def tied(rng, n, shift=0.0):
    return np.round(rng.random(n) + shift, 1).tolist()


_RNG = np.random.default_rng(17)
MATRIX_CASES = {
    "10_10_10": {"a": tied(_RNG, 10), "b": tied(_RNG, 10, 0.3), "c": tied(_RNG, 10, 0.1)},
    "15_10": {"a": tied(_RNG, 15), "b": tied(_RNG, 10, 0.2)},
    "62_6": {"a": tied(_RNG, 62), "b": tied(_RNG, 6, 0.2)},  # int64 one way, object the other
    "all_equal": {"a": [0.7] * 5, "b": [0.7] * 4},  # variance 0
}


@pytest.mark.parametrize("method", ["auto", "exact", "normal"])
@pytest.mark.parametrize("alternative", ["two-sided", "one-sided"])
@pytest.mark.parametrize("case", list(MATRIX_CASES))
def test_significance_matrix_entries_equal_the_direct_test(case, alternative, method):
    """Each off-diagonal entry, mirrored or not, is field for field and type for
    type what ``mann_whitney_u`` returns for its ordered pair."""
    results = MATRIX_CASES[case]
    matrix = significance_matrix(results, alternative=alternative, method=method)
    assert len(matrix) == len(results) ** 2
    for (a, b), (res, label) in matrix.items():
        if a == b:
            continue
        ref = mann_whitney_u(results[a], results[b], alternative=alternative, method=method)
        assert res == ref
        assert [type(v) for v in astuple(res)] == [type(v) for v in astuple(ref)]
        won = np.mean(results[a]) > np.mean(results[b])
        assert label == ((WIN if won else LOSE) if ref.significant else INSIGNIFICANT)


def test_mean_std_example():
    mean, std = mean_std([70.0, 72.0, 74.0])
    assert mean == pytest.approx(72.0, abs=1e-12)
    assert std == pytest.approx(2.0, abs=1e-12)
    assert mean_std([5.0]) == (5.0, 0.0)


def test_csv_writers(tmp_path):
    summary = tmp_path / "summary.csv"
    write_summary_csv(summary, "fedavg", "auroc", [0.7, 0.8])
    rows = list(csv.reader(open(summary)))
    assert rows[0] == ["algorithm", "metric", "mean", "std", "n_seeds"]
    assert len(rows) == 2
    assert rows[1] == ["fedavg", "auroc", "0.750000", "0.070711", "2"]

    sig = tmp_path / "significance.csv"
    matrix = significance_matrix({"a": [1.0, 2.0], "b": [1.5, 2.5]})
    write_csv(sig, ["alg_a", "alg_b", "u", "p", "label"],
              ([a, b, res.u_statistic, res.p_value, label]
               for (a, b), (res, label) in sorted(matrix.items())))
    rows = list(csv.reader(open(sig)))
    assert rows[0] == ["alg_a", "alg_b", "u", "p", "label"]
    assert len(rows) == 5
    assert sig.read_bytes().endswith(b"\r\n")  # the default dialect's line ending
