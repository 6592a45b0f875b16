"""Statistical evaluation of episode batches.

Three tools: best-of-three recall and F1 over repeated trials, in closed
form (the bootstrap's limit as its replicates grow, Efron & Tibshirani 1993,
so nothing is drawn and equal success counts tie exactly), Bonferroni-
corrected paired t-tests against a baseline, and Nemenyi critical-difference
analysis of average ranks (Demsar 2006).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadRanks, LengthMismatch, TooFewTrials, UnsupportedK

# Critical values q_alpha(k) for the Nemenyi test, k = 2..10: studentized
# range quantiles at infinite degrees of freedom divided by sqrt(2)
# (Demsar 2006). Cross-checked against scipy.stats.studentized_range.
NEMENYI_Q = {
    0.05: {
        2: 1.959964, 3: 2.343701, 4: 2.569032, 5: 2.727774, 6: 2.849705,
        7: 2.948320, 8: 3.030879, 9: 3.101730, 10: 3.163684,
    },
    0.10: {
        2: 1.644854, 3: 2.052293, 4: 2.291341, 5: 2.459516, 6: 2.588521,
        7: 2.692732, 8: 2.779884, 9: 2.854606, 10: 2.919889,
    },
}


@dataclass(frozen=True)
class TrialRecord:
    """One episode's outcome: success flag and F1 in [0, 1]."""

    success: int
    f1: float


@dataclass(frozen=True)
class PassAt3Result:
    recall_mean: float
    recall_std: float
    f1_mean: float
    f1_std: float
    scenario_recalls: tuple[float, ...]  # per scenario, in sorted-scenario order


def pass_at_3_bootstrap(trials_by_scenario: dict[str, list[TrialRecord]]) -> PassAt3Result:
    """Exact best-of-three success and F1 across scenarios.

    Per scenario, the best of three trials drawn with replacement: with the n
    values sorted ascending and F(i) = (i/n)^3 the chance that the best draw
    is among the i lowest, the mean is v(n) - sum F(i) (v(i+1) - v(i)) and the
    variance sum (F(i) - F(i-1)) (v(i) - mean)^2. For 0/1 successes the mean
    is 1 - (1 - c/n)^3; equal values give that value and variance 0 exactly.
    The means are the means over scenarios; the std is sqrt(sum of the
    variances) / scenarios, the exact std of a mean of independent
    per-scenario maxima.
    """
    if not trials_by_scenario:
        raise TooFewTrials("no scenarios")
    scenarios = sorted(trials_by_scenario)
    for scn in scenarios:
        if (n := len(trials_by_scenario[scn])) < 3:
            raise TooFewTrials(f"scenario {scn} has {n} trials; need >= 3")
    recall = np.asarray([_best_of_three([t.success for t in trials_by_scenario[scn]])
                         for scn in scenarios])
    f1 = np.asarray([_best_of_three([t.f1 for t in trials_by_scenario[scn]])
                     for scn in scenarios])
    return PassAt3Result(
        recall_mean=float(recall[:, 0].mean()),
        recall_std=float(np.sqrt(recall[:, 1].sum()) / len(scenarios)),
        f1_mean=float(f1[:, 0].mean()),
        f1_std=float(np.sqrt(f1[:, 1].sum()) / len(scenarios)),
        scenario_recalls=tuple(map(float, recall[:, 0])),
    )


def _best_of_three(values) -> tuple[float, float]:
    """Mean and variance of the max of three draws with replacement from
    ``values``. The weights F(i) - F(i-1) are non-negative, so the variance
    is too."""
    v = np.sort(np.asarray(values, dtype=float))
    cdf = (np.arange(len(v) + 1) / len(v)) ** 3
    mean = v[-1] - np.dot(cdf[1:-1], np.diff(v))
    return mean, np.dot(np.diff(cdf), (v - mean) ** 2)


# --- paired t-tests --------------------------------------------------------------

@dataclass(frozen=True)
class PairedTestResult:
    t_stat: float
    p_raw: float
    p_adjusted: float
    significant: bool


def paired_t_bonferroni(baseline: np.ndarray, methods: dict[str, np.ndarray],
                        alpha: float = 0.05) -> dict[str, PairedTestResult]:
    """Two-sided paired t-tests of each method against the baseline.

    The correction multiplies each raw p-value by the number of methods
    (capped at 1). Degenerate difference vectors use explicit conventions:
    all-zero differences give p = 1; a nonzero constant difference has no
    variance, so p is reported as 0 (< 1e-12) and counts as significant.
    A NaN difference gives NaN p-values, which never count as significant.
    """
    baseline = np.asarray(baseline, dtype=float)
    if baseline.ndim != 1 or len(baseline) < 2:
        raise LengthMismatch("need per-scenario baseline values for >= 2 scenarios")
    m = len(methods)
    out: dict[str, PairedTestResult] = {}
    for name, values in methods.items():
        values = np.asarray(values, dtype=float)
        if values.shape != baseline.shape:
            raise LengthMismatch(
                f"method {name!r} has {values.shape} values, baseline {baseline.shape}"
            )
        diffs = values - baseline
        if np.all(diffs == 0.0):
            t_stat, p_raw = 0.0, 1.0
        elif np.std(diffs) <= 1e-12 * np.abs(diffs.mean()):
            # constant nonzero shift (up to float rounding): the statistic
            # diverges, so report the conventional p -> 0
            t_stat = np.inf if diffs.mean() > 0 else -np.inf
            p_raw = 0.0
        else:
            t_stat, p_raw = _ttest_rel(diffs)
        p_adj = float(np.minimum(1.0, m * p_raw))  # NaN stays NaN
        out[name] = PairedTestResult(
            t_stat=t_stat, p_raw=p_raw, p_adjusted=p_adj,
            significant=bool(p_adj < alpha),
        )
    return out


def _ttest_rel(diffs: np.ndarray) -> tuple[float, float]:
    """Two-sided t statistic and p-value of mean(diffs) = 0.

    The statistic's operations and their order are those of
    ``scipy.stats.ttest_1samp`` (scipy 1.17.1), so it equals ``ttest_rel``'s
    bit for bit. ``np.var(ddof=1)`` is not a substitute: it divides the sum
    of squares by n - 1, where scipy multiplies their mean by n / (n - 1),
    and the last bits differ. The p-value is ``_t_two_sided`` at n - 1
    degrees of freedom, within a relative 1e-13 of the exact tail.
    """
    n = np.float64(len(diffs))
    var = np.mean((diffs - diffs.mean(keepdims=True)) ** 2) * (n / (n - 1))
    t = float(diffs.mean() / np.sqrt(var / n))
    return t, _t_two_sided(t, len(diffs) - 1)


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with an integer ``df`` >= 1.

    The finite series of Abramowitz & Stegun (1964) 26.7.3 and 26.7.4, in
    theta = atan(|t| / sqrt(df)), s = sin(theta) and c = cos(theta), up to
    the power c^(df - 2): 1 - p = s (1 + 1/2 c^2 + 1*3/(2*4) c^4 + ...) for
    even df, and 2/pi (theta + s (c + 2/3 c^3 + ...)) for odd df (2 theta /
    pi, the Cauchy law, at df = 1). Both series continued to infinity give
    1 - p = 1, so p is also the sum of the terms past c^(df - 2), all
    positive. Below p = 0.1, ``1 - head`` would cancel, so that remainder is
    summed instead. Where p * df / 2 is below the smallest normal float, p
    is 0, as it is from scipy's ``stdtr``, whose incomplete beta underflows
    there. NaN gives NaN.
    """
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0
    t, q = abs(t), df + t * t
    # sin(theta) and cos(theta)^2; t * t overflows above 1.3e154
    s, c2 = (t / math.sqrt(q), df / q) if q < math.inf else (1.0, df / t / t)
    odd = df % 2
    # term j is a_j c^(2j) (even df) or b_j c^(2j+1) (odd df), and i is
    # 2j or 2j + 1, so each step multiplies by c^2 (i + 1) / (i + 2)
    term, i, head = (math.sqrt(c2), 1, 0.0) if odd else (1.0, 0, 0.0)
    while i <= df - 2:
        head += term
        term *= c2 * (i + 1) / (i + 2)
        i += 2
    p = (math.atan2(math.sqrt(df), t) - s * head) / (math.pi / 2) if odd else 1.0 - s * head
    if p >= 0.1 or df == 1:
        return p
    rest = 0.0
    while term > rest * 1e-17:
        rest += term
        term *= c2 * (i + 1) / (i + 2)
        i += 2
    p = s * rest / (math.pi / 2) if odd else s * rest
    return p if p * df / 2 >= sys.float_info.min else 0.0


# --- Nemenyi critical difference ---------------------------------------------------

@dataclass(frozen=True)
class NemenyiResult:
    method_ids: tuple[str, ...]
    avg_ranks: np.ndarray
    cd: float
    groups: tuple[tuple[str, ...], ...]  # maximal indistinguishable sets


def ranks_from_scores(scores: np.ndarray, higher_better: bool = True) -> np.ndarray:
    """Per-scenario ranks (1 = best) with mid-rank ties.

    ``scores`` is (methods, scenarios); the result has the same shape. A
    scenario column holding NaN or an infinity has no ranking and raises
    ``BadRanks``.
    """
    scores = np.asarray(scores, dtype=float)
    ranked = np.empty_like(scores)
    for col in range(scores.shape[1]):
        vals = -scores[:, col] if higher_better else scores[:, col]
        if not np.isfinite(vals).all():
            raise BadRanks(f"scenario column {col} holds non-finite scores: {scores[:, col]}")
        ranked[:, col] = _midranks(vals)
    return ranked


def _midranks(vals: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``vals`` from the smallest, each run of equal values
    sharing the mean of its positions (``rankdata(method="average")``).
    Mid-ranks are integers or halves, so they are exact."""
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(vals)]
    ranks = np.empty(len(vals))
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def nemenyi_cd(rank_matrix: np.ndarray, method_ids, alpha: float = 0.05) -> NemenyiResult:
    """Critical-difference analysis over a (methods x scenarios) rank matrix.

    cd = q_alpha(k) * sqrt(k (k+1) / (6 N)); methods whose average ranks
    differ by less than cd are statistically indistinguishable. Lower average
    rank is better.
    """
    ranks = np.asarray(rank_matrix, dtype=float)
    if ranks.ndim != 2:
        raise BadRanks("rank matrix must be (methods, scenarios)")
    k, n = ranks.shape
    if k < 2 or k > 10:
        raise UnsupportedK(f"k = {k} outside the tabulated range 2..10")
    if n < 2:
        raise BadRanks("need at least two scenarios")
    if alpha not in NEMENYI_Q:
        raise BadRanks(f"alpha must be one of {sorted(NEMENYI_Q)}")
    expected = k * (k + 1) / 2
    col_sums = ranks.sum(axis=0)
    if not np.allclose(col_sums, expected):
        raise BadRanks(
            f"each scenario's ranks must sum to k(k+1)/2 = {expected}; got {col_sums}"
        )
    method_ids = tuple(str(m) for m in method_ids)
    if len(method_ids) != k:
        raise BadRanks("method_ids length must match the rank matrix")

    avg = ranks.mean(axis=1)
    cd = NEMENYI_Q[alpha][k] * np.sqrt(k * (k + 1) / (6.0 * n))

    order = np.argsort(avg, kind="stable")
    sorted_avg = avg[order]
    groups: list[tuple[str, ...]] = []
    for i in range(k):
        j = i
        while j + 1 < k and sorted_avg[j + 1] - sorted_avg[i] < cd:
            j += 1
        members = tuple(method_ids[order[t]] for t in range(i, j + 1))
        if not groups or not set(members).issubset(set(groups[-1])):
            groups.append(members)
    return NemenyiResult(
        method_ids=method_ids, avg_ranks=avg, cd=float(cd), groups=tuple(groups)
    )


def render_cd_diagram(result: NemenyiResult) -> str:
    """Plain-text rendering of a critical-difference analysis."""
    order = np.argsort(result.avg_ranks, kind="stable")
    lines = [f"critical difference = {result.cd:.4f} (lower rank is better)"]
    width = max(len(m) for m in result.method_ids)
    for idx in order:
        name = result.method_ids[idx]
        rank = result.avg_ranks[idx]
        bar = "#" * max(1, round(rank * 4))
        lines.append(f"  {rank:6.3f}  {name.ljust(width)}  {bar}")
    for g, members in enumerate(result.groups, start=1):
        lines.append(f"  group {g} (indistinguishable): {', '.join(members)}")
    return "\n".join(lines)
