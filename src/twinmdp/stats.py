"""Statistical evaluation of episode batches.

Three tools: a bootstrap estimator of best-of-three recall and F1 over
repeated trials, Bonferroni-corrected paired t-tests against a baseline,
and Nemenyi critical-difference analysis of average ranks (Demsar 2006).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

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


def pass_at_3_bootstrap(trials_by_scenario: dict[str, list[TrialRecord]],
                        n_boot: int = 200, seed: int = 0) -> PassAt3Result:
    """Bootstrap best-of-three success and F1 across scenarios.

    Each replicate samples 3 trials with replacement per scenario; a scenario
    counts the max over its sample. Means and standard deviations are over
    the replicates. Deterministic given seed.

    All draws come from one ``rng.integers`` call of shape (n_boot, scenarios,
    3), the stream of one ``integers(n, size=3)`` call per replicate and sorted
    scenario. Each replicate sums its scenario maxima in that order with
    ``np.cumsum``, never ``.sum``, whose pairwise summation moves low bits, so
    the result equals that loop's bit for bit (``tests/oracles.py``).
    """
    if not trials_by_scenario:
        raise TooFewTrials("no scenarios")
    scenarios = sorted(trials_by_scenario)
    counts = np.asarray([len(trials_by_scenario[scn]) for scn in scenarios])
    for scn, n in zip(scenarios, counts):
        if n < 3:
            raise TooFewTrials(f"scenario {scn} has {n} trials; need >= 3")
    trials = [t for scn in scenarios for t in trials_by_scenario[scn]]
    success = np.asarray([t.success for t in trials], dtype=float)
    f1 = np.asarray([t.f1 for t in trials], dtype=float)

    rng = np.random.default_rng(seed)
    idx = rng.integers(counts[:, None], size=(n_boot, len(scenarios), 3))
    idx += (np.cumsum(counts) - counts)[:, None]  # offsets into the flat arrays
    recall_reps = np.cumsum(success[idx].max(axis=2), axis=1)[:, -1] / len(scenarios)
    f1_reps = np.cumsum(f1[idx].max(axis=2), axis=1)[:, -1] / len(scenarios)
    return PassAt3Result(
        recall_mean=float(recall_reps.mean()),
        recall_std=float(recall_reps.std()),
        f1_mean=float(f1_reps.mean()),
        f1_std=float(f1_reps.std()),
    )


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
        p_adj = min(1.0, m * p_raw)
        out[name] = PairedTestResult(
            t_stat=t_stat, p_raw=p_raw, p_adjusted=p_adj,
            significant=bool(p_adj < alpha),
        )
    return out


def _ttest_rel(diffs: np.ndarray) -> tuple[float, float]:
    """Two-sided t statistic and p-value of mean(diffs) = 0.

    The operations and their order are those of ``scipy.stats.ttest_1samp``
    (scipy 1.17.1), so the result equals ``ttest_rel`` bit for bit without
    importing ``scipy.stats``. ``np.var(ddof=1)`` is not a substitute: it
    divides the sum of squares by n - 1, where scipy multiplies their mean
    by n / (n - 1), and the last bits differ.
    """
    n = np.float64(len(diffs))
    var = np.mean((diffs - diffs.mean(keepdims=True)) ** 2) * (n / (n - 1))
    t = diffs.mean() / np.sqrt(var / n)
    return float(t), float(2 * stdtr(n - 1, -abs(t)))


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
