"""Deterministic abstraction of raw trajectories into finite MDP views.

Three representation schemes:

* ``name``      - state: assessment code (2 primary / 1 cascading / 0 other)
                  per entity name; action: vocabulary index of the chosen name.
* ``nametype``  - same, keyed by (name, etype) pairs.
* ``topology``  - relativized features from the propagation graph: shortest
                  path distances between the acted-on entity, the previously
                  explored entity, the symptom, and the currently flagged
                  failure fronts; optionally a hub score and a decoded hidden
                  state appended by an HMM fitted on the feature sequences.

The state at turn t reflects the agent's knowledge *before* acting, i.e. the
cumulative assessments recorded at turn t-1 (empty at t = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TypeAlias, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EntityNotInGraph,
    EntityNotInVocabulary,
    MalformedRecord,
    SchemeMismatch,
    UnknownEntity,
)
from .hmm import Hmm, viterbi_decode
from .topology import TopologyGraph, all_distances_from, hubs_scores
from .trajectories import (Entity, JudgeScores, RawTrajectory, _dumps, _json, atomic_open,
                           read_jsonl)

ASSESSMENT_CODE = {"primary": 2.0, "cascading": 1.0, "normal": 0.0}

SCHEME_KINDS = ("name", "nametype", "topology")

# an action is either a vocabulary index or a feature vector
ActionRepr: TypeAlias = Union[int, np.ndarray]


@dataclass(frozen=True)
class SchemeSpec:
    """Configuration of one abstraction scheme."""

    kind: str
    vocabulary: tuple = ()               # names or (name, etype) pairs
    with_hubs: bool = False              # topology only
    with_hmm: bool = False               # topology only
    unreachable_sentinel: float | None = None  # default: graph diameter + 1

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise MalformedRecord(f"unknown scheme kind {self.kind!r}")
        if self.kind != "topology" and (self.with_hubs or self.with_hmm):
            raise MalformedRecord("with_hubs/with_hmm require the topology scheme")
        if self.kind != "topology" and len(set(self.vocabulary)) != len(self.vocabulary):
            raise MalformedRecord("vocabulary entries must be unique")

    def featurizer(self, graph: TopologyGraph | None = None) -> Featurizer:
        """The step featurizer of this scheme for episodes on ``graph``.

        Built once per graph and kept as long as the spec, so every episode
        on a graph, logged or live, reads the same featurizer. Topology
        features need the episode's graph; the name schemes ignore it and
        share one featurizer.
        """
        if self.kind != "topology":
            graph = None
        elif graph is None:
            raise MalformedRecord("the topology scheme needs the episode's graph")
        if graph not in self._featurizers:
            self._featurizers[graph] = (
                VocabularyFeaturizer(self.vocabulary, self.kind) if graph is None
                else TopologyFeaturizer(graph, self.unreachable_sentinel, self.with_hubs))
        return self._featurizers[graph]

    @cached_property
    def _featurizers(self) -> dict:
        return {}


def build_vocabulary(trajs, kind: str, graphs=()) -> tuple:
    """Collect the sorted entity vocabulary for the name/nametype schemes."""
    if kind not in ("name", "nametype"):
        raise SchemeMismatch("vocabularies apply to name/nametype schemes")
    keys = set()

    def add(e: Entity):
        keys.add(e.name if kind == "name" else (e.name, e.etype))

    for traj in trajs:
        add(traj.symptom_entity)
        for step in traj.steps:
            add(step.chosen_entity)
            for c in step.candidate_entities:
                add(c)
            for e in step.assessments:
                add(e)
    for g in graphs:
        for e in g.nodes:
            add(e)
    return tuple(sorted(keys))


@dataclass
class AbstractStep:
    state: np.ndarray
    action: "int | np.ndarray"
    reward: float
    candidates: list  # ActionRepr per candidate, same order as the raw step


@dataclass
class AbstractTrajectory:
    trajectory_id: str
    scenario_id: str
    scheme: str
    steps: list[AbstractStep]
    scores: JudgeScores


class TopologyFeaturizer:
    """Distance and hub features of one turn on one graph.

    Used both when abstracting logged trajectories and when scoring live
    candidates during an episode, so the two paths cannot drift apart.

    ``rows`` holds, per node, a plain list of its directed distances to every
    node in graph order, with the sentinel where a node is unreachable, plus
    one trailing sentinel column that stands for "no entity": no previous
    action, or a label nothing carries. Every feature is a ``min`` over
    columns of one row, and a turn's label columns are gathered once for all
    of its candidates.
    """

    def __init__(self, graph: TopologyGraph, sentinel: float | None = None,
                 with_hubs: bool = False):
        self._column = {e: i for i, e in enumerate(graph.nodes)}
        dists = [all_distances_from(graph, e) for e in graph.nodes]
        diameter = max((max(d.values()) for d in dists), default=0)
        self.sentinel = float(sentinel) if sentinel is not None else float(diameter + 1)
        if self.sentinel <= diameter:
            raise MalformedRecord(
                f"unreachable sentinel {self.sentinel} must exceed graph diameter "
                f"{diameter}"
            )
        self.rows = {
            e: [float(d[v]) if v in d else self.sentinel for v in graph.nodes]
            + [self.sentinel]
            for e, d in zip(graph.nodes, dists)
        }
        self.hubs = hubs_scores(graph) if with_hubs else None

    def _row(self, e: Entity) -> list[float]:
        try:
            return self.rows[e]
        except KeyError:
            raise EntityNotInGraph(f"{e} not in graph") from None

    def _label_columns(self, assessments) -> tuple[list[int], list[int]]:
        """The columns of the primary and of the cascading entities, each
        ending in the "no entity" column."""
        cols = {"primary": [], "cascading": []}
        for e, label in assessments.items():
            if label in cols:
                col = self._column.get(e)
                if col is None:
                    raise EntityNotInGraph(f"{e} not in graph")
                cols[label].append(col)
        none = len(self._column)
        return cols["primary"] + [none], cols["cascading"] + [none]

    def action_features(self, targets, previous: Entity | None, symptom: Entity,
                        assessments) -> np.ndarray:
        """One row per target: its distance to the previous action, to the
        symptom, to the nearest primary and cascading entity, then its hub
        score when the scheme has hubs."""
        for e in (previous, symptom):
            if e is not None and e not in self._column:
                raise UnknownEntity(f"{e} not in graph")
        prev = len(self._column) if previous is None else self._column[previous]
        sym = self._column[symptom]
        primary, cascading = self._label_columns(assessments)
        feats = []
        for t in targets:
            row = self._row(t)
            feats.append([row[prev], row[sym], min([row[j] for j in primary]),
                          min([row[j] for j in cascading])])
            if self.hubs is not None:
                feats[-1].append(self.hubs[t])
        return np.array(feats, dtype=float)

    def state_features(self, symptom: Entity, assessments) -> np.ndarray:
        row = self._row(symptom)
        primary, cascading = self._label_columns(assessments)
        return np.array([min([row[j] for j in primary]), min([row[j] for j in cascading])])


class VocabularyFeaturizer:
    """Assessment-coded states and vocabulary-index actions (name/nametype)."""

    def __init__(self, vocabulary, kind: str):
        self.kind = kind
        self.index = {key: i for i, key in enumerate(vocabulary)}

    def _id(self, e: Entity) -> int:
        key = e.name if self.kind == "name" else (e.name, e.etype)
        if key not in self.index:
            raise EntityNotInVocabulary(f"{e} not in vocabulary")
        return self.index[key]

    def action_features(self, targets, previous: Entity | None, symptom: Entity,
                        assessments) -> list[int]:
        return [self._id(t) for t in targets]

    def state_features(self, symptom: Entity, assessments) -> np.ndarray:
        state = np.zeros(len(self.index))
        for e, label in assessments.items():
            i = self._id(e)
            # identical names with different types collapse under the name
            # scheme; keep the most severe code
            state[i] = max(state[i], ASSESSMENT_CODE[label])
        return state


Featurizer: TypeAlias = Union[TopologyFeaturizer, VocabularyFeaturizer]


def abstract(raw: RawTrajectory, spec: SchemeSpec,
             graph: TopologyGraph | None = None) -> AbstractTrajectory:
    """Map a raw trajectory into its abstract (state, action, reward) view.

    ``graph`` is the trajectory's graph; the name schemes need none. The
    features come from ``spec.featurizer(graph)``. Rewards initialize to 0;
    reward learning relabels them later. Pure and deterministic: identical
    inputs produce identical outputs.
    """
    featurizer = spec.featurizer(graph)
    symptom = raw.symptom_entity
    steps = []
    previous = None
    assessments: dict[Entity, str] = {}
    for step in raw.steps:
        state = featurizer.state_features(symptom, assessments)
        cands = list(featurizer.action_features(step.candidate_entities, previous,
                                                symptom, assessments))
        action = cands[step.candidate_entities.index(step.chosen_entity)]
        steps.append(AbstractStep(state=state, action=action, reward=0.0,
                                  candidates=cands))
        previous = step.chosen_entity
        assessments = dict(step.assessments)
    return AbstractTrajectory(
        trajectory_id=raw.trajectory_id,
        scenario_id=raw.scenario_id,
        scheme=spec.kind,
        steps=steps,
        scores=raw.scores,
    )


# --- HMM hidden-state feature -------------------------------------------------

def hmm_observations(traj: AbstractTrajectory) -> np.ndarray:
    """Per-step observation for HMM fitting: state ++ action features.

    Only meaningful for the topology scheme, whose actions are real vectors.
    """
    if traj.scheme != "topology":
        raise SchemeMismatch("HMM observations require the topology scheme")
    return np.stack(
        [np.concatenate([s.state, np.asarray(s.action, dtype=float)])
         for s in traj.steps]
    )


def augment_with_hmm(traj: AbstractTrajectory, hmm: Hmm) -> AbstractTrajectory:
    """Append a 1-hot of the decoded hidden state to each step's state."""
    obs = hmm_observations(traj)
    if obs.shape[1] != hmm.n_features:
        raise DimensionMismatch(
            f"trajectory features ({obs.shape[1]}) do not match HMM emissions "
            f"({hmm.n_features})"
        )
    path = viterbi_decode(hmm, obs)
    steps = []
    for step, z in zip(traj.steps, path):
        onehot = np.zeros(hmm.n_states)
        onehot[z] = 1.0
        steps.append(replace(step, state=np.concatenate([step.state, onehot])))
    return AbstractTrajectory(
        trajectory_id=traj.trajectory_id,
        scenario_id=traj.scenario_id,
        scheme=traj.scheme,
        steps=steps,
        scores=traj.scores,
    )


# --- serialization --------------------------------------------------------------

def _action_from_json(obj):
    if "index" in obj:
        return int(obj["index"])
    return np.asarray(obj["features"], dtype=float)


class _AbstractEncoder:
    """The abstract-corpus line of a trajectory, as text: ``json.dumps(record,
    sort_keys=True)`` of the record that ``load_abstract_corpus`` decodes,
    byte for byte. An index action is ``{"index": i}``; a feature action is
    ``{"features": [...]}`` of its float64 values. Each distinct state and
    feature row is encoded once per encoder, keyed by its array's bytes (so
    -0.0 and 0.0 stay apart)."""

    def __init__(self):
        self.states: dict[tuple, str] = {}
        self.features: dict[tuple, str] = {}

    def state(self, state: np.ndarray) -> str:
        key = (state.dtype.str, state.shape, state.tobytes())
        text = self.states.get(key)
        if text is None:
            text = self.states[key] = _dumps(state.tolist())
        return text

    def action(self, action) -> str:
        if isinstance(action, (int, np.integer)):
            return f'{{"index": {int(action)}}}'
        row = np.asarray(action, dtype=float)
        key = (row.shape, row.tobytes())
        text = self.features.get(key)
        if text is None:
            text = self.features[key] = f'{{"features": {_dumps(row.tolist())}}}'
        return text

    def step(self, s: AbstractStep) -> str:
        return "".join((
            '{"action": ', self.action(s.action),
            ', "candidates": [', ", ".join(map(self.action, s.candidates)),
            '], "reward": ', _json(s.reward), ', "state": ', self.state(s.state), "}",
        ))

    def line(self, t: AbstractTrajectory) -> str:
        return "".join((
            '{"scenario_id": ', _json(t.scenario_id), ', "scheme": ', _json(t.scheme),
            ', "scores": {"fpc_accuracy": ', _json(t.scores.fpc_accuracy),
            ', "rce_identification": ', _json(t.scores.rce_identification),
            '}, "steps": [', ", ".join(map(self.step, t.steps)),
            '], "trajectory_id": ', _json(t.trajectory_id), "}\n",
        ))


def abstract_from_json(obj) -> AbstractTrajectory:
    steps = [
        AbstractStep(
            state=np.asarray(s["state"], dtype=float),
            action=_action_from_json(s["action"]),
            reward=float(s["reward"]),
            candidates=[_action_from_json(c) for c in s["candidates"]],
        )
        for s in obj["steps"]
    ]
    return AbstractTrajectory(
        trajectory_id=obj["trajectory_id"],
        scenario_id=obj["scenario_id"],
        scheme=obj["scheme"],
        steps=steps,
        scores=JudgeScores(
            fpc_accuracy=obj["scores"]["fpc_accuracy"],
            rce_identification=obj["scores"]["rce_identification"],
        ),
    )


def save_abstract_corpus(trajs, path: str | Path) -> None:
    """Write abstract trajectories as line-delimited JSON; load_abstract_corpus
    inverts it."""
    encode = _AbstractEncoder().line
    with atomic_open(path, "abstract corpus") as fh:
        for traj in trajs:
            fh.write(encode(traj))


def load_abstract_corpus(path: str | Path) -> list[AbstractTrajectory]:
    return read_jsonl(path, "abstract corpus", abstract_from_json)
