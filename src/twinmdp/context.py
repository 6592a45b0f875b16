"""Policy-driven context interventions over a turn's candidate entities.

Three strategies, individually switchable:

* suggest     - entities whose policy probability reaches the suggestion
                percentile are offered as prompt hints.
* prune       - entities below the pruning percentile are dropped from the
                exploration queue (the top candidate always survives).
* prioritize  - surviving entities are reordered by descending probability.

Percentiles use the nearest-rank convention over the current candidate set
with inclusive comparison, which is exact on small candidate lists.

``intervene`` is a pure function of its inputs: the same input bytes make
the same BLAS call and give the same bits. The simulator relies on this
when ``simulator.CePlan`` memoises it, once per distinct turn and plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCandidates, MalformedRecord, check_ranges, ranged
from .offline_rl import QPolicy, policy_probs
from .trajectories import Entity

STRATEGIES = ("suggest", "prune", "prioritize")

SUGGESTION_TEMPLATE = (
    "The actions related to {entities} are often relevant in this scenario, "
    "so lean toward exploring them if they show up in the above observed evidence."
)


@dataclass(frozen=True)
class CeConfig:
    strategies: tuple[str, ...] = ("suggest", "prune", "prioritize")
    suggest_percentile: float = ranged(95.0, "(0, 100]")
    prune_percentile: float = ranged(85.0, "[0, 100)")

    def __post_init__(self):
        if not self.strategies:
            raise MalformedRecord("enable at least one strategy")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise MalformedRecord(f"unknown strategy {s!r}")
        check_ranges(self)

    def enabled(self, strategy: str) -> bool:
        return strategy in self.strategies


@dataclass
class Intervention:
    suggestions: list[Entity]
    retained: list[Entity]
    ordering: list[Entity]
    probs: dict[Entity, float]


def nearest_rank_threshold(values: np.ndarray, percentile: float) -> float:
    """The ceil(p/100 * n)-th smallest value (1-indexed, clamped to >= 1)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    idx = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[idx - 1])


def intervene(policy: QPolicy, state: np.ndarray, candidates, cfg: CeConfig) -> Intervention:
    """Score candidates with the policy and apply the enabled strategies.

    ``candidates`` is a list of (Entity, action representation). Disabled
    strategies are identities: no suggestions, nothing pruned, input order.
    """
    if not candidates:
        raise EmptyCandidates("intervention needs at least one candidate")
    entities = [e for e, _ in candidates]
    reprs = [r for _, r in candidates]
    probs = policy_probs(policy, state, reprs)
    prob_of = {e: float(p) for e, p in zip(entities, probs)}

    suggestions: list[Entity] = []
    if cfg.enabled("suggest"):
        threshold = nearest_rank_threshold(probs, cfg.suggest_percentile)
        suggestions = [e for e in entities if prob_of[e] >= threshold]

    if cfg.enabled("prune"):
        threshold = nearest_rank_threshold(probs, cfg.prune_percentile)
        retained = [e for e in entities if prob_of[e] >= threshold]
        if not retained:  # defensive: the inclusive threshold always keeps the max
            retained = [min(entities, key=lambda e: (-prob_of[e], e.name, e.etype))]
    else:
        retained = list(entities)

    if cfg.enabled("prioritize"):
        ordering = sorted(retained, key=lambda e: (-prob_of[e], e.name, e.etype))
    else:
        ordering = list(retained)

    return Intervention(
        suggestions=suggestions,
        retained=retained,
        ordering=ordering,
        probs=prob_of,
    )


def render_suggestion_text(suggestions) -> str:
    """Fill the suggestion prompt template; empty suggestions render empty."""
    if not suggestions:
        return ""
    listed = ", ".join(f"{e.name} ({e.etype})" for e in suggestions)
    return SUGGESTION_TEMPLATE.format(entities=listed)


# Adapters for agents that propose one action at a time instead of keeping a
# queue: membership in the retained set decides whether the proposal runs,
# and the ordering head picks among multiple proposals.

def should_skip_action(intervention: Intervention, entity: Entity) -> bool:
    return entity not in intervention.retained


def select_top_action(intervention: Intervention) -> Entity:
    return intervention.ordering[0]
