"""Evaluation metrics and the exact rank-sum test.

AUROC is the midrank (ties = 1/2) pairwise-ordering probability; AUPRC is
average precision with step-wise interpolation.  Both score columns: a binary
task is one column, and multiclass (class ids) and multi-label (multi-hot)
tasks report the macro mean over the columns with both outcomes present.
The Mann-Whitney U test is exact (the rank-sum distribution is counted by the
Mann & Whitney (1947) recurrence) for n+m <= 20 and falls back to the
tie-corrected normal approximation beyond.  The counts are int64 when none can
reach 2**63 and Python integers otherwise; either way p is the correctly
rounded quotient of two exact integers.  AUROC and U rank by one
primitive, ``_doubled_midranks``: twice each midrank, an exact integer, from
two binary searches in the sorted sample.  ``write_csv`` is the one CSV
writer: round logs, distances, summaries, the significance matrix, timings
and the partition CSVs all go through it (the CLI writes ``sweep.csv`` as
text).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample, NonFiniteScore, ShapeMismatch, SingleClass

SIGNIFICANCE_LEVEL = 0.05
EXACT_LIMIT = 20  # auto picks the exact rank-sum recurrence up to n+m = 20


def _doubled_midranks(ranked: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Twice the 1-based midrank of each of ``x`` among the sorted ``ranked``,
    and how many of ``ranked`` tie with it.

    With ``left``/``right`` the #values below / at or below it (two binary
    searches), the midrank is (left + right + 1) / 2: ties share the mean of
    their ranks, and doubled it is an exact integer.
    """
    left, right = ranked.searchsorted(x, "left"), ranked.searchsorted(x, "right")
    return left + right + 1, right - left


def _columns(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """(n, C) finite scores and the (n, C) mask of their positives.

    1-D scores are one binary column, positives ``labels == 1``.  2-D scores
    take class ids, positives ``labels == c`` in column c, or (n, C)
    multi-hot labels, positives ``labels[:, c] == 1``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 1 and labels.shape == scores.shape:
        scores, positives = scores[:, None], (labels == 1)[:, None]
    elif scores.ndim == 2 and labels.shape == scores.shape[:1]:
        positives = labels[:, None] == np.arange(scores.shape[1])
    elif scores.ndim == 2 and labels.shape == scores.shape:
        positives = labels == 1
    else:
        raise ShapeMismatch(f"labels of shape {labels.shape} do not fit scores of shape "
                            f"{scores.shape}")
    if not np.isfinite(scores).all():
        raise NonFiniteScore("scores must be finite to be ranked")
    return scores, positives


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties 1/2),
    macro-averaged over the columns of ``_columns``.

    The columns are sorted once, and the doubled rank sum of a column's p
    positives (``_doubled_midranks``) is an exact integer.
    """
    scores, positives = _columns(scores, labels)
    ranked = np.sort(scores, axis=0)
    n = scores.shape[0]
    vals = []
    for c in range(scores.shape[1]):
        pos = positives[:, c]
        p = int(np.count_nonzero(pos))
        if p in (0, n):
            continue
        doubled = int(np.add.reduce(_doubled_midranks(ranked[:, c], scores[pos, c])[0]))
        vals.append((doubled / 2 - p * (p + 1) / 2.0) / (p * (n - p)))
    if not vals:
        raise SingleClass("AUROC needs both classes present")
    return float(np.add.reduce(vals) / len(vals))  # np.mean's arithmetic


def auprc(scores, labels) -> float:
    """Average precision with step-wise interpolation, macro-averaged over the
    columns of ``_columns``."""
    scores, positives = _columns(scores, labels)
    vals = []
    for c in range(scores.shape[1]):
        pos = positives[:, c]
        n_pos = int(np.count_nonzero(pos))
        if n_pos in (0, len(pos)):
            continue
        # walk thresholds at distinct scores, high to low
        order = np.argsort(-scores[:, c], kind="stable")
        sorted_scores = scores[order, c]
        sorted_pos = pos[order].astype(np.float64)
        tp = np.cumsum(sorted_pos)
        fp = np.cumsum(1.0 - sorted_pos)
        # keep the last index of each distinct score (full tie group counted at once)
        distinct = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
        tp_d, fp_d = tp[distinct], fp[distinct]
        recall = tp_d / n_pos
        precision = tp_d / (tp_d + fp_d)
        prev_recall = np.concatenate([[0.0], recall[:-1]])
        vals.append(float(np.sum((recall - prev_recall) * precision)))
    if not vals:
        raise SingleClass("AUPRC needs both classes present")
    return float(np.add.reduce(vals) / len(vals))


# ---------------------------------------------------------------------------
# Mann-Whitney U

@dataclass
class RankTestResult:
    u_statistic: float
    p_value: float
    significant: bool
    method: str  # exact | normal
    alternative: str  # two-sided | one-sided


def _rank_sum_counts(doubled: np.ndarray, n: int) -> np.ndarray:
    """Number of n-subsets of the pooled sample per doubled rank sum.

    Mann & Whitney (1947) recurrence: fold in one doubled midrank ``d`` at a
    time, ``counts[k, s] += counts[k - 1, s - d]``.  Row k counts k-subsets of
    the N pooled values, so no entry of rows 0..n exceeds C(N, min(n, N // 2)):
    the table is int64 when that bound is below 2**63 (every n + m <= 66) and
    exact Python integers beyond.
    """
    pooled = len(doubled)
    largest = math.comb(pooled, min(n, pooled // 2))
    width = int(doubled.sum()) + 1
    counts = np.zeros((n + 1, width), dtype=np.int64 if largest < 2**63 else object)
    counts[0, 0] = 1
    for d in doubled.tolist():
        counts[1:, d:] += counts[:-1, :width - d].copy()
    return counts[n]


def mann_whitney_u(a, b, alternative: str = "two-sided", method: str = "auto") -> RankTestResult:
    """Rank-sum test with midrank tie handling.

    Exact p counts all C(n+m, n) rank arrangements by the rank-sum recurrence
    (n+m <= 20 under ``auto``); the normal path uses the tie-corrected
    variance with continuity correction.  One-sided alternative: a tends
    smaller than b.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise EmptySample("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise NonFiniteScore("samples must not hold NaN to be ranked")
    doubled, ties = _doubled_midranks(np.sort(pooled), pooled)
    u_obs = doubled[:n].sum() / 2 - n * (n + 1) / 2.0

    if method == "auto":
        method = "exact" if n + m <= EXACT_LIMIT else "normal"

    if method == "exact":
        # U <= u_obs  <=>  doubled rank sum <= the observed doubled rank sum
        observed = int(doubled[:n].sum())
        counts = _rank_sum_counts(doubled, n)
        total = math.comb(n + m, n)
        # Python-int division: correctly rounded, and p stays a float
        p_low = int(counts[:observed + 1].sum()) / total
        p_high = int(counts[observed:].sum()) / total
        if alternative == "two-sided":
            p = min(1.0, 2.0 * min(p_low, p_high))
        else:
            p = p_low  # evidence that a ranks below b
    else:
        mean = n * m / 2.0
        # tie-corrected variance: a value tied t times adds t^3 - t, i.e. t^2 - 1
        # for each of its t copies
        tie_term = np.sum(ties * ties - 1)
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


def write_csv(path, header: list, rows) -> None:
    """The one writer of fedbench's tables: ``header``, then each of ``rows``,
    in the default ``csv`` dialect."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_csv(path, algorithm: str, metric: str, values) -> None:
    """One ``algorithm,metric,mean,std,n_seeds`` row over the per-seed ``values``."""
    mean, std = mean_std(values)
    write_csv(path, ["algorithm", "metric", "mean", "std", "n_seeds"],
              [[algorithm, metric, f"{mean:.6f}", f"{std:.6f}", len(values)]])
