"""Fault-propagation diagnosis simulator.

Scenarios embed a directed propagation chain (root cause -> ... -> symptom)
in a random weakly connected graph. A scripted, deliberately noisy base
agent explores the graph from the symptom with a queue of candidate
entities: each turn it picks a candidate, collects a noisy anomaly signal,
updates its cumulative assessments, and enqueues unexplored neighbors.

A policy plus intervention config can be attached to an episode:
suggestions bias the pick, pruning filters what gets enqueued, and
prioritization replaces the agent's queue ordering. The judge scores
episodes against the ground-truth chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from .abstraction import SchemeSpec
from .context import CeConfig, Intervention, intervene
from .errors import InfeasibleConfig, MalformedRecord, ranged
from .hmm import Hmm, log_emission, viterbi_step
from .offline_rl import QPolicy
from .topology import (TopologyGraph, all_distances_from, graph_from_json, graph_to_json,
                       make_graph)
from .trajectories import (Entity, JudgeScores, RawStep, RawTrajectory, entity_from_json,
                           entity_to_json, read_jsonl, write_jsonl)

NODE_TYPES = ("Pod", "Service", "Deployment", "Node", "ConfigMap")


@dataclass(frozen=True)
class SimScenario:
    scenario_id: str
    graph: TopologyGraph
    root_cause: Entity
    chain: tuple[Entity, ...]
    symptom: Entity
    evidence_noise: float
    seed: int

    def __post_init__(self):
        if self.chain[0] != self.root_cause or self.chain[-1] != self.symptom:
            raise InfeasibleConfig("chain must run from root cause to symptom")
        edges = self.graph.edges
        for u, v in zip(self.chain[:-1], self.chain[1:]):
            if (u, v) not in edges:
                raise InfeasibleConfig(f"chain edge ({u}, {v}) missing from graph")


# The intervals are those a config file must meet; the constructors do not
# check them, so ``generate_scenario`` reports infeasible shapes itself.
@dataclass(frozen=True)
class ScenarioConfig:
    n_nodes: int = ranged(12, "[2, inf)")
    edge_density: float = ranged(0.08, "[0, 1)")
    chain_length: int = ranged(4, "[2, inf)")
    evidence_noise: float = ranged(0.1, "[0, 1)")


@dataclass(frozen=True)
class EpisodeConfig:
    max_turns: int = ranged(12, "[1, inf)")
    # chance the agent ignores ordering entirely
    epsilon: float = ranged(0.3, "[0, 1]")
    # chance a prompt suggestion beats the heuristic
    suggestion_uptake: float = ranged(0.8, "[0, 1]")


@dataclass
class CePlan:
    """Everything needed to intervene during an episode.

    ``hmm`` is given exactly when the scheme is ``with_hmm``. The features
    come from ``scheme.featurizer``, so plans that share a scheme share its
    featurizers. A plan memoises its interventions (one per distinct
    input). An intervention's key is its exact input: the strategy config,
    the state's bytes, the candidate entities and their representations (the
    bytes of the turn's feature matrix, or the vocabulary ids). The same
    input bytes make the same BLAS call and so give the same bits, so a hit
    returns exactly what recomputing would. With an HMM the plan also keeps
    what its pure functions give: each distinct observation's
    ``log_emission``, keyed by the observation's bytes, and each hidden
    state's likeliest successor as a one-hot row. The memos live and die
    with the plan; nothing carries over from one plan to the next.
    """

    policy: QPolicy
    config: CeConfig
    scheme: SchemeSpec
    hmm: Hmm | None = None
    # pruning acts on queue pushes, the other strategies on picks
    selection_config: CeConfig | None = field(default=None, init=False, repr=False,
                                              compare=False)
    prune_config: CeConfig | None = field(default=None, init=False, repr=False,
                                          compare=False)
    # with an HMM: the one-hot of the likeliest first hidden state, and row z
    # the one-hot of hidden state z's likeliest successor
    first_hidden: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)
    next_hidden: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)
    _interventions: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)
    _emissions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.scheme.with_hmm != (self.hmm is not None):
            raise MalformedRecord("a plan takes an HMM exactly when its scheme is with_hmm")
        kept = tuple(s for s in self.config.strategies if s != "prune")
        self.selection_config = replace(self.config, strategies=kept) if kept else None
        self.prune_config = (replace(self.config, strategies=("prune",))
                             if self.config.enabled("prune") else None)
        if self.hmm is not None:
            onehots = np.eye(self.hmm.n_states)  # row z: hidden state z's one-hot
            self.first_hidden = onehots[np.argmax(self.hmm.initial)]
            self.next_hidden = onehots[np.argmax(self.hmm.transition, axis=1)]

    def intervene(self, state: np.ndarray, candidates, reprs, cfg: CeConfig) -> Intervention:
        """``context.intervene`` of the plan's policy on ``candidates`` paired
        with ``reprs`` (the turn's feature matrix, or the vocabulary ids),
        computed once per distinct input; callers must not mutate the
        returned intervention."""
        key = (cfg, state.tobytes(), tuple(candidates),
               reprs.tobytes() if isinstance(reprs, np.ndarray) else tuple(reprs))
        hit = self._interventions.get(key)
        if hit is None:
            hit = self._interventions[key] = intervene(self.policy, state,
                                                       list(zip(candidates, reprs)), cfg)
        return hit

    def log_emission(self, observation: np.ndarray) -> np.ndarray:
        """``hmm.log_emission`` of the plan's HMM, computed once per distinct
        observation; callers must not mutate the returned row."""
        key = observation.tobytes()
        hit = self._emissions.get(key)
        if hit is None:
            hit = self._emissions[key] = log_emission(self.hmm, observation)
        return hit


@dataclass
class EpisodeResult:
    """An episode's trajectory, whose ``final_root_cause`` is the agent's
    answer and whose ``scores`` are the judge's, and the episode's counts.

    ``selections`` keeps, per turn that a selection intervention acted on,
    the references ``(turn, candidates, intervention, pruned)``; ``audit``
    spells them out when it is read."""

    trajectory: RawTrajectory
    turns_used: int
    entities_explored: int
    selections: list[tuple] = field(default_factory=list, repr=False)

    @property
    def audit(self) -> list[dict]:
        """Per selection turn: the candidates, their probabilities, the
        suggestions, the ordering and the entities pruned from the push."""
        return [
            {
                "turn": turn,
                "candidates": [(c.name, c.etype) for c in candidates],
                "probs": {c.name: iv.probs[c] for c in candidates},
                "suggestions": [e.name for e in iv.suggestions],
                "ordering": [e.name for e in iv.ordering],
                "pruned": [e.name for e in pruned],
            }
            for turn, candidates, iv, pruned in self.selections
        ]


@cache
def _node_entities(n_nodes: int) -> tuple[Entity, ...]:
    """The nodes of an ``n_nodes`` scenario. Scenarios of one size share
    these objects, so the entities of a plan's memoised interventions are
    the episode's own and their lookups never reach ``Entity.__eq__``."""
    return tuple(Entity(name=f"svc-{i:02d}", etype=NODE_TYPES[i % len(NODE_TYPES)])
                 for i in range(n_nodes))


def generate_scenario(cfg: ScenarioConfig, seed: int,
                      scenario_id: str | None = None) -> SimScenario:
    """Seeded scenario: weakly connected digraph with an embedded chain."""
    if cfg.chain_length < 2:
        raise InfeasibleConfig("chain_length must be >= 2")
    if cfg.n_nodes < cfg.chain_length:
        raise InfeasibleConfig("n_nodes must be >= chain_length")
    rng = np.random.default_rng(seed)
    nodes = list(_node_entities(cfg.n_nodes))
    chain_idx = rng.choice(cfg.n_nodes, size=cfg.chain_length, replace=False)
    chain = tuple(nodes[i] for i in chain_idx)
    edges = {(u, v) for u, v in zip(chain[:-1], chain[1:])}

    for i in range(cfg.n_nodes):
        for j in range(cfg.n_nodes):
            if i == j:
                continue
            pair = (nodes[i], nodes[j])
            if pair in edges:
                continue
            if rng.random() < cfg.edge_density:
                edges.add(pair)

    # stitch stray components onto the chain's component, in node order
    undirected = make_graph(nodes, edges | {(v, u) for u, v in edges})
    seen: set[Entity] = set()
    components: list[list[Entity]] = []
    for n in nodes:
        if n not in seen:
            components.append(sorted(all_distances_from(undirected, n)))
            seen.update(components[-1])
    main_idx = next(i for i, c in enumerate(components) if chain[0] in c)
    main = components[main_idx]
    for i, comp in enumerate(components):
        if i == main_idx:
            continue
        u = main[rng.integers(len(main))]
        v = comp[rng.integers(len(comp))]
        edges.add((u, v))
        main = sorted(set(main) | set(comp))

    return SimScenario(
        scenario_id=scenario_id or f"scn-{seed}",
        graph=make_graph(nodes, edges),
        root_cause=chain[0],
        chain=chain,
        symptom=chain[-1],
        evidence_noise=cfg.evidence_noise,
        seed=seed,
    )


# --- judging ----------------------------------------------------------------------

def judge(identified_root: Entity | None, assessments: dict[Entity, str],
          scn: SimScenario) -> JudgeScores:
    """Exact ground-truth scoring.

    Root-cause identification is all-or-nothing. Chain accuracy is the F1
    between the entities flagged primary-or-cascading and the true chain
    entity set; an empty prediction scores zero.
    """
    rce = 100.0 if identified_root == scn.root_cause else 0.0
    predicted = {e for e, label in assessments.items() if label in ("primary", "cascading")}
    truth = set(scn.chain)
    if not predicted:
        return JudgeScores(fpc_accuracy=0.0, rce_identification=rce)
    overlap = len(predicted & truth)
    precision = overlap / len(predicted)
    recall = overlap / len(truth)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return JudgeScores(fpc_accuracy=100.0 * f1, rce_identification=rce)


# --- runtime feature assembly --------------------------------------------------------

class _SchemeRuntime:
    """Builds the policy's state during a run.

    The features come from the scheme's featurizer for the scenario's graph,
    the same one that abstracts logged episodes; each candidate set takes
    one ``turn_features`` call on it, which gives the state row and the
    candidates' feature matrix (or vocabulary ids) whole. The runtime adds
    only the online hidden-state bits of ``with_hmm`` schemes. For those it
    carries the Viterbi log-score vector of the observed prefix forward by
    one ``viterbi_step`` per turn, which gives the bits that decoding the
    whole prefix again would; the emissions and the successor one-hots come
    from the plan's caches.
    """

    def __init__(self, plan: CePlan, scn: SimScenario):
        self.plan = plan
        self.featurizer = plan.scheme.featurizer(scn.graph)
        self.symptom = scn.symptom
        self.delta: np.ndarray | None = None  # Viterbi log-scores of the prefix
        self.hidden = plan.first_hidden  # one-hot of the predicted hidden state

    def features(self, candidates, previous,
                 assessments) -> tuple[np.ndarray, np.ndarray | list[int]]:
        """The policy's state now, and the representations of ``candidates``
        (a feature matrix, or vocabulary ids): the input ``CePlan.intervene``
        takes with them."""
        state, reprs = self.featurizer.turn_features(candidates, previous, self.symptom,
                                                     assessments)
        if self.hidden is not None:
            state = np.concatenate([state, self.hidden])
        return state, reprs

    def record_turn(self, pre_state: np.ndarray, chosen_repr) -> None:
        """Take in the (pre-action state, action) observation the HMM was fit on.

        Online stand-in for the decoded hidden state: training-time
        augmentation decodes complete sequences; mid-episode the last state
        of the prefix's Viterbi path steps the most likely transition.
        """
        if self.hidden is None:
            return
        plan = self.plan
        obs = np.concatenate([pre_state[:2], np.asarray(chosen_repr, dtype=float)])
        log_emis = plan.log_emission(obs)
        if self.delta is None:
            self.delta = plan.hmm.log_initial + log_emis
        else:
            self.delta, _ = viterbi_step(self.delta, plan.hmm.log_transition, log_emis)
        self.hidden = plan.next_hidden[np.argmax(self.delta)]


# --- episode loop ---------------------------------------------------------------------

def run_episode(
    scn: SimScenario,
    ce: CePlan | None,
    cfg: EpisodeConfig,
    seed: int,
    trajectory_id: str | None = None,
) -> EpisodeResult:
    """Simulate one diagnosis episode; fully determined by (scn, ce, cfg, seed).

    After each turn the agent's strongest primary finding is the entity
    labeled primary at the end of the most consecutive turns up to now
    (ties to the lowest (name, etype)). The agent stops once that run
    reaches two turns, or once its queue runs dry while a primary is on
    record, and answers with its strongest primary, if any.
    """
    rng = np.random.default_rng(seed)
    runtime = _SchemeRuntime(ce, scn) if ce is not None else None

    chain_set = set(scn.chain)
    explored: set[Entity] = set()
    queued: set[Entity] = {scn.symptom}
    queue: list[Entity] = [scn.symptom]
    assessments: dict[Entity, str] = {}
    runs: dict[Entity, int] = {}  # each current primary's run of primary turn ends
    strongest: Entity | None = None
    steps: list[RawStep] = []
    selections: list[tuple] = []
    previous: Entity | None = None

    for turn in range(cfg.max_turns):
        if not queue:
            fallback = _fallback_entity(steps, assessments, scn)
            queue = [fallback]
            queued.add(fallback)

        candidates = list(queue)
        selection_iv: Intervention | None = None
        state_vec = reprs = None
        # a prune-only plan without an HMM reads no turn features
        if runtime is not None and (ce.selection_config is not None
                                    or runtime.hidden is not None):
            state_vec, reprs = runtime.features(candidates, previous, assessments)
            if ce.selection_config is not None:
                selection_iv = ce.intervene(state_vec, candidates, reprs, ce.selection_config)

        pos = _position(candidates,
                        _select(candidates, assessments, scn, rng, cfg, ce, selection_iv))
        chosen = candidates[pos]  # the queue's own object

        # collect noisy evidence and update the cumulative assessment
        explored.add(chosen)
        on_chain = chosen in chain_set
        anomalous = on_chain != (rng.random() < scn.evidence_noise)
        if anomalous:
            is_root = (chosen == scn.root_cause) != (rng.random() < scn.evidence_noise)
            label = "primary" if is_root else "cascading"
        else:
            label = "normal"
        assessments[chosen] = label

        if reprs is not None:
            runtime.record_turn(state_vec, reprs[pos])

        queue = candidates[:pos] + candidates[pos + 1:]  # the queue holds no repeats

        # push unexplored neighbors, optionally pruned by the policy
        push = [
            n for n in scn.graph.neighbors(chosen)
            if n not in explored and n not in queued
        ]
        pruned: list[Entity] = []
        if runtime is not None and ce.prune_config is not None and push:
            push_state, push_reprs = runtime.features(push, chosen, assessments)
            push_iv = ce.intervene(push_state, push, push_reprs, ce.prune_config)
            retained = set(push_iv.retained)
            pruned = [e for e in push if e not in retained]
            push = [e for e in push if e in retained]
        queue.extend(push)
        queued.update(push)

        steps.append(
            RawStep(
                turn_index=turn,
                chosen_entity=chosen,
                candidate_entities=tuple(candidates),
                assessments=dict(assessments),
            )
        )
        if selection_iv is not None:
            selections.append((turn, candidates, selection_iv, pruned))

        runs = {e: runs.get(e, 0) + 1 for e, lab in assessments.items() if lab == "primary"}
        strongest = min(runs, key=lambda e: (-runs[e], e.name, e.etype), default=None)
        if strongest is not None and (runs[strongest] >= 2 or not queue):
            break
        previous = chosen

    trajectory = RawTrajectory(
        trajectory_id=trajectory_id or f"{scn.scenario_id}-ep{seed}",
        scenario_id=scn.scenario_id,
        symptom_entity=scn.symptom,
        steps=tuple(steps),
        scores=judge(strongest, assessments, scn),
        final_root_cause=strongest,
    )
    return EpisodeResult(
        trajectory=trajectory,
        turns_used=len(steps),
        entities_explored=len(explored),
        selections=selections,
    )


def _position(candidates: list[Entity], chosen: Entity) -> int:
    """Where ``chosen`` stands among ``candidates``: found by identity when it
    is one of their objects, which costs no ``Entity.__eq__`` call."""
    for i, c in enumerate(candidates):
        if c is chosen:
            return i
    return candidates.index(chosen)


def _fallback_entity(steps, assessments, scn: SimScenario) -> Entity:
    """With an empty queue the agent re-verifies its latest anomalous finding."""
    for step in reversed(steps):
        label = assessments.get(step.chosen_entity)
        if label in ("primary", "cascading"):
            return step.chosen_entity
    return scn.symptom


def _heuristic_order(candidates, assessments, scn: SimScenario,
                     suggested: set[Entity]) -> list[Entity]:
    """Greedy anomaly-adjacency: candidates bordering flagged entities first.

    Suggested entities win ties. Queue position breaks remaining ties, so the
    order is stable.
    """
    flagged = {e for e, lab in assessments.items() if lab in ("primary", "cascading")}
    flagged_neighbors: set[Entity] = set()
    for e in flagged:
        flagged_neighbors.update(scn.graph.neighbors(e))

    def key(pair):
        pos, c = pair
        return (-(c in flagged_neighbors), -(c in suggested), pos)

    return [c for _, c in sorted(enumerate(candidates), key=key)]


def _select(candidates, assessments, scn, rng, cfg: EpisodeConfig,
            ce: CePlan | None, iv: Intervention | None) -> Entity:
    suggested = set(iv.suggestions) if iv is not None else set()
    if ce is not None and ce.config.enabled("prioritize") and iv is not None:
        # the reordered queue replaces the agent's own ordering step, so the
        # agent's epsilon-noise does not apply here
        order = list(iv.ordering)
    elif rng.random() < cfg.epsilon:
        order = [candidates[i] for i in rng.permutation(len(candidates))]
    else:
        order = _heuristic_order(candidates, assessments, scn, suggested)

    if iv is not None and ce.config.enabled("suggest") and suggested:
        if rng.random() < cfg.suggestion_uptake:
            return min(suggested, key=lambda e: (-iv.probs[e], e.name, e.etype))
    return order[0]


# --- batches and persistence -------------------------------------------------------

def run_batch(scenarios, ce: CePlan | None, cfg: EpisodeConfig, trials: int,
              master_seed: int, method_id: str = "baseline", *, record) -> list[dict]:
    """Run ``trials`` episodes per scenario; returns result-table rows.

    Each episode's trajectory goes to ``record`` as the episode ends, and its
    row keeps only the scalar result fields, so the batch holds no finished
    episode. Episode seeds derive from (master_seed, scenario index, trial),
    so two batches over the same scenarios pair up seed-for-seed regardless
    of the intervention attached.
    """
    rows = []
    for s_idx, scn in enumerate(scenarios):
        for trial in range(trials):
            seed = int(
                np.random.SeedSequence([master_seed, s_idx, trial]).generate_state(1)[0]
            )
            res = run_episode(
                scn, ce, cfg, seed,
                trajectory_id=f"{scn.scenario_id}-{method_id}-t{trial}",
            )
            record(res.trajectory)
            rows.append(
                {
                    "scenario_id": scn.scenario_id,
                    "method_id": method_id,
                    "trial": trial,
                    "rce_identification": res.trajectory.scores.rce_identification,
                    "fpc_accuracy": res.trajectory.scores.fpc_accuracy,
                    "turns_used": res.turns_used,
                    "entities_explored": res.entities_explored,
                }
            )
    return rows


def scenario_to_json(scn: SimScenario) -> dict:
    return {
        "scenario_id": scn.scenario_id,
        "graph": graph_to_json(scn.graph),
        "root_cause": entity_to_json(scn.root_cause),
        "chain": [entity_to_json(e) for e in scn.chain],
        "symptom": entity_to_json(scn.symptom),
        "evidence_noise": scn.evidence_noise,
        "seed": scn.seed,
    }


def scenario_from_json(obj, entity=entity_from_json) -> SimScenario:
    """The scenario of a record; ``entity`` decodes each graph node."""
    graph = graph_from_json(obj["graph"], entity)
    by_key = {(e.name, e.etype): e for e in graph.nodes}

    def ent(o):
        return by_key[(o["name"], o["etype"])]

    return SimScenario(
        scenario_id=obj["scenario_id"],
        graph=graph,
        root_cause=ent(obj["root_cause"]),
        chain=tuple(ent(e) for e in obj["chain"]),
        symptom=ent(obj["symptom"]),
        evidence_noise=obj["evidence_noise"],
        seed=obj["seed"],
    )


def save_scenarios(scenarios, path: str | Path) -> None:
    write_jsonl(path, map(scenario_to_json, scenarios), "scenarios")


def load_scenarios(path: str | Path, entity=entity_from_json) -> list[SimScenario]:
    """The scenarios at ``path``; ``entity`` decodes each graph node (an
    ``interning_entity_decoder`` shared with ``load_corpus`` makes the
    corpus's entities the graphs' node objects)."""
    return list(read_jsonl(path, "scenarios", lambda obj: scenario_from_json(obj, entity)))
