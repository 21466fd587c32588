"""Evaluation metrics and the exact rank-sum test.

AUROC is the midrank (ties = 1/2) pairwise-ordering probability; AUPRC is
average precision with step-wise interpolation.  Multiclass tasks report the
macro one-vs-rest mean.  The Mann-Whitney U test is exact (full arrangement
enumeration, midranks) for n+m <= 20 and falls back to the tie-corrected
normal approximation beyond.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, SingleClass

SIGNIFICANCE_LEVEL = 0.05
EXACT_LIMIT = 20  # full enumeration up to C(20, n) arrangements


def _midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); ties share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties 1/2).

    1-D scores: binary labels.  2-D scores (n, C): integer class ids, macro
    one-vs-rest mean over classes with both outcomes present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 2:
        return _multiclass(auroc, scores, labels)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUROC needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision with step-wise interpolation."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 2:
        return _multiclass(auprc, scores, labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise SingleClass("AUPRC needs both classes present")
    # walk thresholds at distinct scores, high to low
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order].astype(np.float64)
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(1.0 - sorted_pos)
    # keep the last index of each distinct score (full tie group counted at once)
    distinct = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    tp_d, fp_d = tp[distinct], fp[distinct]
    recall = tp_d / n_pos
    precision = tp_d / (tp_d + fp_d)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def _multiclass(metric, scores: np.ndarray, labels: np.ndarray) -> float:
    n, c = scores.shape
    vals = []
    for cls in range(c):
        binary = (labels == cls).astype(int)
        if binary.sum() in (0, n):
            continue
        vals.append(metric(scores[:, cls], binary))
    if not vals:
        raise SingleClass("no class with both outcomes present")
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Mann-Whitney U

@dataclass
class RankTestResult:
    u_statistic: float
    p_value: float
    significant: bool
    method: str  # exact | normal
    alternative: str  # two-sided | one-sided


def _u_from_ranks(rank_sum_a: float, n: int) -> float:
    return rank_sum_a - n * (n + 1) / 2.0


def mann_whitney_u(a, b, alternative: str = "two-sided", method: str = "auto") -> RankTestResult:
    """Rank-sum test with midrank tie handling.

    Exact p enumerates all C(n+m, n) rank arrangements (n+m <= 20 under
    ``auto``); the normal path uses the tie-corrected variance with
    continuity correction.  One-sided alternative: a tends smaller than b.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise EmptySample("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u_obs = _u_from_ranks(ranks[:n].sum(), n)

    if method == "auto":
        method = "exact" if n + m <= EXACT_LIMIT else "normal"

    if method == "exact":
        total = math.comb(n + m, n)
        le = ge = 0
        eps = 1e-9
        for combo in itertools.combinations(range(n + m), n):
            u = _u_from_ranks(sum(ranks[i] for i in combo), n)
            if u <= u_obs + eps:
                le += 1
            if u >= u_obs - eps:
                ge += 1
        p_low, p_high = le / total, ge / total
        if alternative == "two-sided":
            p = min(1.0, 2.0 * min(p_low, p_high))
        else:
            p = p_low  # evidence that a ranks below b
    else:
        mean = n * m / 2.0
        # tie-corrected variance
        _, counts = np.unique(pooled, return_counts=True)
        tie_term = np.sum(counts**3 - counts)
        var = n * m / 12.0 * ((n + m + 1) - tie_term / ((n + m) * (n + m - 1.0)))
        if var == 0:
            p = 1.0
        else:
            sd = math.sqrt(var)
            if alternative == "two-sided":
                z = (abs(u_obs - mean) - 0.5) / sd
                p = math.erfc(max(z, 0.0) / math.sqrt(2.0))
            else:
                # one-sided: P(U <= u_obs), continuity-corrected
                z = (u_obs - mean + 0.5) / sd
                p = 0.5 * math.erfc(-z / math.sqrt(2.0))
        p = min(1.0, max(p, 0.0))
    return RankTestResult(
        u_statistic=float(u_obs),
        p_value=float(p),
        significant=p < SIGNIFICANCE_LEVEL,
        method=method,
        alternative=alternative,
    )


# ---------------------------------------------------------------------------
# cross-algorithm comparison

WIN = "win-significant"
LOSE = "lose-significant"
INSIGNIFICANT = "insignificant"


def significance_matrix(
    results: dict[str, list[float]],
    alternative: str = "two-sided",
    method: str = "auto",
) -> dict[tuple[str, str], tuple[RankTestResult, str]]:
    """Pairwise rank tests over per-seed metrics; labels read row-vs-column."""
    out = {}
    for alg_a, vals_a in results.items():
        for alg_b, vals_b in results.items():
            if alg_a == alg_b:
                res = RankTestResult(
                    u_statistic=len(vals_a) ** 2 / 2.0,
                    p_value=1.0,
                    significant=False,
                    method=method,
                    alternative=alternative,
                )
                out[(alg_a, alg_b)] = (res, INSIGNIFICANT)
                continue
            res = mann_whitney_u(vals_a, vals_b, alternative=alternative, method=method)
            if res.significant:
                label = WIN if np.mean(vals_a) > np.mean(vals_b) else LOSE
            else:
                label = INSIGNIFICANT
            out[(alg_a, alg_b)] = (res, label)
    return out


def mean_std(values) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation; std 0.0 for a single value."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def write_summary_csv(path, per_algorithm: dict[str, dict[str, list[float]]]) -> None:
    """``algorithm,metric,mean,std,n_seeds`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "metric", "mean", "std", "n_seeds"])
        for alg, metrics in per_algorithm.items():
            for metric, values in metrics.items():
                mean, std = mean_std(values)
                writer.writerow([alg, metric, f"{mean:.6f}", f"{std:.6f}", len(values)])


def write_significance_csv(path, matrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alg_a", "alg_b", "u", "p", "label"])
        for (alg_a, alg_b), (res, label) in sorted(matrix.items()):
            writer.writerow([alg_a, alg_b, f"{res.u_statistic:.6f}", f"{res.p_value:.6g}", label])


def write_distance_csv(path, rounds) -> None:
    """``round,client_id,sq_distance`` rows from a RoundRecord series."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "client_id", "sq_distance"])
        for record in rounds:
            for cid in sorted(record.distances):
                writer.writerow([record.round, cid, repr(record.distances[cid])])


def write_timing_csv(path, per_algorithm_elapsed: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "elapsed_seconds"])
        for alg, elapsed in per_algorithm_elapsed.items():
            writer.writerow([alg, f"{elapsed:.3f}"])
