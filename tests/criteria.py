"""Criteria C08 and C09 as predicates over a report's ``methods`` record.

``test_acceptance.py`` asserts them on the demo run and
``scripts/seed_sweep.py`` counts the seeds where they hold; this module is
their only definition.
"""

from __future__ import annotations

BASELINE = "baseline"
C08_ARM, C08_RIVAL, C08_SECONDS = "rl_irl+prioritize", "bc+prioritize", 600.0
C09_ARM = "rl_irl+prune"


def c08_checks(methods: dict, elapsed_s: float) -> dict[str, bool]:
    """C08's parts: the reward-relabeled prioritize arm recalls more than the
    baseline, significantly after Bonferroni, ranks no worse than the behavior
    cloner, and the end-to-end run stays under the time limit."""
    arm, base, rival = methods[C08_ARM], methods[BASELINE], methods[C08_RIVAL]
    return {
        "improved": bool(arm["pass3_recall_mean"] > base["pass3_recall_mean"]),
        "significant": bool(arm["significant"] and arm["p_adjusted"] < 0.05),
        "rank_ok": bool(arm["avg_rank"] <= rival["avg_rank"]),
        "in_time": bool(elapsed_s < C08_SECONDS),
    }


def c09_holds(methods: dict) -> bool:
    """C09: the pruned arm explores no more entities than the baseline."""
    return bool(methods[C09_ARM]["mean_entities_explored"]
                <= methods[BASELINE]["mean_entities_explored"])
