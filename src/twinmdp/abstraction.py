"""Deterministic abstraction of raw trajectories into the DT-MDP's finite tables.

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

``abstract`` reads raw trajectories one at a time into the finite tables of
their DT-MDP (``MdpTables``): each distinct state and action row once, and
per step the ids that name them. ``pack_corpus`` packs hand-built
``AbstractTrajectory`` lists into the same tables, and
``save_abstract_corpus`` writes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import NamedTuple, TypeAlias, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EntityNotInGraph,
    EntityNotInVocabulary,
    MalformedRecord,
    MissingCandidateSets,
    SchemeMismatch,
    UnknownEntity,
)
from .hmm import Hmm, viterbi_decode
from .topology import TopologyGraph, all_distances_from, hubs_scores
from .trajectories import Entity, JudgeScores, read_json, write_json

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


def build_vocabulary(graphs, kind: str) -> tuple:
    """The sorted entity vocabulary of the name/nametype schemes: the names,
    or (name, etype) pairs, of the graphs' nodes."""
    if kind not in ("name", "nametype"):
        raise SchemeMismatch("vocabularies apply to name/nametype schemes")
    return tuple(sorted({e.name if kind == "name" else (e.name, e.etype)
                         for g in graphs for e in g.nodes}))


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
    columns of one row, and a turn's label columns are gathered once
    (``turn_features``) for its state and all of its candidates.
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

    def turn_features(self, targets, previous: Entity | None, symptom: Entity,
                      assessments) -> tuple[np.ndarray, np.ndarray]:
        """The state row and the targets' action rows of one turn, from one
        pass over its labels."""
        labels = self._label_columns(assessments)
        return (self.state_features(symptom, assessments, labels),
                self.action_features(targets, previous, symptom, assessments, labels))

    def action_features(self, targets, previous: Entity | None, symptom: Entity,
                        assessments, labels=None) -> np.ndarray:
        """One row per target: its distance to the previous action, to the
        symptom, to the nearest primary and cascading entity, then its hub
        score when the scheme has hubs. ``labels`` are the assessments'
        ``_label_columns``, when the caller has them."""
        for e in (previous, symptom):
            if e is not None and e not in self._column:
                raise UnknownEntity(f"{e} not in graph")
        prev = len(self._column) if previous is None else self._column[previous]
        sym = self._column[symptom]
        primary, cascading = labels or self._label_columns(assessments)
        feats = []
        for t in targets:
            row = self._row(t)
            feats.append([row[prev], row[sym], min([row[j] for j in primary]),
                          min([row[j] for j in cascading])])
            if self.hubs is not None:
                feats[-1].append(self.hubs[t])
        return np.array(feats, dtype=float)

    def state_features(self, symptom: Entity, assessments, labels=None) -> np.ndarray:
        row = self._row(symptom)
        primary, cascading = labels or self._label_columns(assessments)
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

    def turn_features(self, targets, previous: Entity | None, symptom: Entity,
                      assessments) -> tuple[np.ndarray, list[int]]:
        return (self.state_features(symptom, assessments),
                self.action_features(targets, previous, symptom, assessments))

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


def abstract(raws, spec: SchemeSpec, graphs, hmm: Hmm | None = None) -> MdpTables:
    """The DT-MDP tables of the raw trajectories ``raws``, read one at a time,
    under ``spec``: ``spec.featurizer(graph)``'s rows, ``graphs`` mapping
    scenario ids to graphs (the name schemes need none), and rewards 0 until
    reward learning relabels them. With ``hmm``, each state also gets its
    decoded hidden state (``MdpTables.with_hidden_states``). Deterministic."""
    states, cands, taken, counts, lengths, ids, scenario_ids, scores = ([] for _ in range(8))
    for raw in raws:
        featurizer = spec.featurizer(graphs.get(raw.scenario_id))
        symptom, previous, assessments = raw.symptom_entity, None, {}
        for step in raw.steps:
            state, actions = featurizer.turn_features(step.candidate_entities, previous, symptom,
                                                      assessments)
            states.append(state)
            cands.append(actions)
            taken.append(step.candidate_entities.index(step.chosen_entity))
            counts.append(len(step.candidate_entities))
            previous, assessments = step.chosen_entity, step.assessments
        lengths.append(len(raw.steps))
        ids.append(raw.trajectory_id)
        scenario_ids.append(raw.scenario_id)
        scores.append(raw.scores)
    if spec.kind == "topology":
        flat = np.concatenate(cands) if cands else _rows([])
    else:
        flat = np.fromiter(chain.from_iterable(cands), dtype=int)
    taken = flat[_offsets(counts)[:-1] + np.array(taken, dtype=np.intp)]
    tables = _pack(spec.kind, _rows(states), np.concatenate([taken, flat]), counts,
                   np.zeros(len(states)), lengths, ids, scenario_ids, scores)
    return tables if hmm is None or not lengths else tables.with_hidden_states(hmm)


# --- the DT-MDP as finite tables --------------------------------------------------

TABLES_FORMAT_VERSION = 1


class ScoreColumns(NamedTuple):
    """The judge scores of a packed corpus's trajectories, one array per score."""

    fpc_accuracy: np.ndarray
    rce_identification: np.ndarray


@dataclass(frozen=True, eq=False)
class MdpTables:
    """An abstract corpus packed into the finite tables of its DT-MDP.

    ``states`` holds each distinct state row once, ``actions`` each distinct
    action once: feature rows, or vocabulary ids (1-D, ascending). Rows are
    in byte order, the order ``np.unique`` gives their float64 bytes, so -0.0
    and 0.0 stay apart. Step i is in state ``state_id[i]``, is offered the
    actions ``cand_id[cand_offsets[i]:cand_offsets[i + 1]]``, takes the one at
    position ``taken[i]`` among them and earns ``rewards[i]``; trajectory j
    owns the steps ``step_offsets[j]:step_offsets[j + 1]``. A selection
    (``select``) keeps the row tables, so its distinct rows are its ids in
    ascending order. Item j is trajectory j as an AbstractTrajectory; tables
    that differ only in rewards (``with_rewards``) share its step objects.
    Every array is read-only.
    """

    scheme: str
    states: np.ndarray
    actions: np.ndarray
    state_id: np.ndarray
    cand_offsets: np.ndarray
    cand_id: np.ndarray
    taken: np.ndarray
    rewards: np.ndarray
    step_offsets: np.ndarray
    trajectory_ids: tuple
    scenario_ids: tuple
    scores: ScoreColumns
    _decoded: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for value in (*vars(self).values(), *self.scores):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def index_actions(self) -> bool:
        return self.actions.ndim == 1

    def __len__(self) -> int:
        return len(self.trajectory_ids)

    def steps_of(self, trajs: np.ndarray) -> np.ndarray:
        """The steps of the trajectories ``trajs``, in their order."""
        return _ranges(self.step_offsets[trajs], np.diff(self.step_offsets)[trajs])

    def select(self, trajs: np.ndarray) -> "MdpTables":
        """The trajectories ``trajs``, in their order, over the same row tables."""
        steps = self.steps_of(trajs)
        counts = np.diff(self.cand_offsets)[steps]
        return MdpTables(
            self.scheme, self.states, self.actions, self.state_id[steps], _offsets(counts),
            self.cand_id[_ranges(self.cand_offsets[steps], counts)], self.taken[steps],
            self.rewards[steps], _offsets(np.diff(self.step_offsets)[trajs]),
            tuple(map(self.trajectory_ids.__getitem__, trajs)),
            tuple(map(self.scenario_ids.__getitem__, trajs)),
            ScoreColumns(*(column[trajs] for column in self.scores)))

    def with_rewards(self, rewards: np.ndarray) -> "MdpTables":
        return replace(self, rewards=np.asarray(rewards, dtype=float))

    @property
    def taken_id(self) -> np.ndarray:
        """Each step's taken action, as its id among ``actions``."""
        return self.cand_id[self.cand_offsets[:-1] + self.taken]

    def observations(self) -> list[np.ndarray]:
        """Each trajectory's HMM observations: per step its state row ++ its
        taken action's feature row. Only the topology scheme has them."""
        if self.scheme != "topology":
            raise SchemeMismatch("HMM observations require the topology scheme")
        rows = np.hstack([self.states[self.state_id], self.actions[self.taken_id]])
        off = self.step_offsets.tolist()
        return [rows[lo:hi] for lo, hi in zip(off, off[1:])]

    def with_hidden_states(self, hmm: Hmm) -> "MdpTables":
        """These tables with a 1-hot of each step's hidden state, decoded per
        trajectory from its ``observations``, appended to its state row."""
        sequences = self.observations()
        width = self.states.shape[1] + self.actions.shape[1]
        if width != hmm.n_features:
            raise DimensionMismatch(
                f"trajectory features ({width}) do not match HMM emissions ({hmm.n_features})")
        path = [z for obs in sequences for z in viterbi_decode(hmm, obs)]
        states, state_id = _distinct_rows(
            np.hstack([self.states[self.state_id], np.eye(hmm.n_states)[path]]))
        return replace(self, states=states, state_id=state_id, _decoded={})

    def __getitem__(self, j: int) -> AbstractTrajectory:
        """Trajectory j; its steps' objects are made once, on the first call."""
        if "steps" not in self._decoded:  # each step's state, action and candidates
            states = list(self.states)
            actions = self.actions.tolist() if self.index_actions else list(self.actions)
            cands = [actions[k] for k in self.cand_id.tolist()]
            off = self.cand_offsets.tolist()
            self._decoded["steps"] = [(states[s], cands[lo + t], cands[lo:hi]) for s, t, lo, hi
                                      in zip(self.state_id.tolist(), self.taken.tolist(), off,
                                             off[1:])]
        j = range(len(self))[j]
        lo, hi = self.step_offsets[j:j + 2].tolist()
        return AbstractTrajectory(
            self.trajectory_ids[j], self.scenario_ids[j], self.scheme,
            [AbstractStep(state, action, reward, cands) for (state, action, cands), reward
             in zip(self._decoded["steps"][lo:hi], self.rewards[lo:hi].tolist())],
            JudgeScores(*(float(column[j]) for column in self.scores)))

    def to_json(self) -> dict:
        """Every field as a JSON column, each score column in place of ``scores``."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("scores", "_decoded")}
        columns.update(self.scores._asdict(), format_version=TABLES_FORMAT_VERSION)
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in columns.items()}


def _offsets(counts) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """start, start + 1, ..., start + count - 1 of each (start, count), back to back."""
    heads = _offsets(counts)
    return np.arange(heads[-1]) + np.repeat(starts - heads[:-1], counts)


def _rows(values) -> np.ndarray:
    """A list of equal-length rows as a 2-D float array, also when empty."""
    rows = np.array(values, dtype=float)
    if rows.ndim == 2:
        return rows
    if rows.size:
        raise ValueError("rows must be lists of one length")
    return rows.reshape(0, 0)


def _ids(values) -> np.ndarray:
    ids = np.array(values)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind != "i"):
        raise ValueError("ids must be a list of integers")
    return ids.astype(np.intp)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in byte order, compared by their bytes,
    and each row's index among them: ``distinct[row_id]`` is ``rows`` bit for bit."""
    if not rows.size:  # no rows, or rows of no columns: all equal
        return rows[:1], np.zeros(len(rows), dtype=np.intp)
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, row_id = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], row_id


def pack_corpus(trajs) -> MdpTables:
    """Abstract trajectories as the tables of their DT-MDP (``_pack``); tables
    are returned as they are. A step without candidates raises
    MissingCandidateSets, a trajectory without steps MalformedRecord."""
    if isinstance(trajs, MdpTables):
        return trajs
    trajs = list(trajs)
    if len({t.scheme for t in trajs}) > 1:
        raise SchemeMismatch("an abstract corpus has one scheme")
    for traj in trajs:
        if not traj.steps:
            raise MalformedRecord(f"trajectory {traj.trajectory_id} has no steps")
        for turn, step in enumerate(traj.steps):
            if not len(step.candidates):
                raise MissingCandidateSets(
                    f"trajectory {traj.trajectory_id} turn {turn} has no candidates")
    steps = [s for t in trajs for s in t.steps]
    index = bool(steps) and isinstance(steps[0].action, (int, np.integer))
    acts = [s.action for s in steps] + [c for s in steps for c in s.candidates]
    try:
        states, acts = _rows([s.state for s in steps]), (np.array(acts, dtype=int) if index
                                                          else _rows(acts))
    except ValueError as exc:
        raise MalformedRecord(f"abstract steps of unequal shapes: {exc}") from exc
    return _pack(trajs[0].scheme if trajs else "", states, acts,
                 [len(s.candidates) for s in steps], [s.reward for s in steps],
                 [len(t.steps) for t in trajs], [t.trajectory_id for t in trajs],
                 [t.scenario_id for t in trajs], [t.scores for t in trajs])


def concat_tables(parts) -> MdpTables:
    """The trajectories of the tables ``parts``, one after another, as one."""
    parts = [p for p in parts if len(p)] or [pack_corpus([])]

    def cat(column) -> np.ndarray:
        return np.concatenate([column(p) for p in parts])

    return _pack(parts[0].scheme, cat(lambda p: p.states[p.state_id]),
                 np.concatenate([cat(lambda p: p.actions[p.taken_id]),
                                 cat(lambda p: p.actions[p.cand_id])]),
                 cat(lambda p: np.diff(p.cand_offsets)), cat(lambda p: p.rewards),
                 cat(lambda p: np.diff(p.step_offsets)), sum((p.trajectory_ids for p in parts), ()),
                 sum((p.scenario_ids for p in parts), ()),
                 list(map(JudgeScores, *(cat(lambda p, k=k: p.scores[k]) for k in range(2)))))


def _pack(scheme: str, states: np.ndarray, acts: np.ndarray, cand_counts, rewards, lengths,
          trajectory_ids, scenario_ids, scores) -> MdpTables:
    """The tables of n steps given row by row: ``states``, each step's state
    row; ``acts``, each step's taken action, then every step's candidates
    (vocabulary ids, or feature rows); ``scores``, each trajectory's
    JudgeScores. A step takes the first of its candidates with its action's
    bytes; a negative id or an action none of them has is MalformedRecord."""
    n, index = len(states), acts.ndim == 1
    states, state_id = _distinct_rows(states)
    actions, action_id = (np.unique(acts, return_inverse=True) if index
                          else _distinct_rows(acts))
    if index and len(actions) and actions[0] < 0:  # the ids ascend
        raise MalformedRecord(f"negative vocabulary id {actions[0]}")
    cand_offsets = _offsets(cand_counts)
    ids, off = action_id[n:].tolist(), cand_offsets.tolist()
    try:
        taken = [ids[lo:hi].index(a) for a, lo, hi in zip(action_id[:n].tolist(), off, off[1:])]
    except ValueError:
        raise MalformedRecord("taken action missing from its candidate set") from None
    return MdpTables(scheme, states, actions, state_id, cand_offsets, action_id[n:],
                     np.array(taken, dtype=np.intp), np.array(rewards, dtype=float),
                     _offsets(lengths), tuple(trajectory_ids), tuple(scenario_ids),
                     ScoreColumns(*(np.array([getattr(s, name) for s in scores], dtype=float)
                                    for name in ScoreColumns._fields)))


def save_abstract_corpus(trajs, path: str | Path) -> None:
    """Write abstract trajectories, or their tables, as one sorted-key JSON
    document of the tables; load_abstract_corpus inverts it."""
    write_json(path, pack_corpus(trajs).to_json(), "abstract corpus")


def load_abstract_corpus(path: str | Path) -> MdpTables:
    """The tables of the abstract corpus at ``path``; tables that do not fit
    together raise MalformedRecord naming the file."""
    return read_json(path, "abstract corpus", _tables_from_json, version=TABLES_FORMAT_VERSION)


def _tables_from_json(obj: dict) -> MdpTables:
    """The tables of a decoded file; ValueError where they do not fit together."""
    actions = np.array(obj["actions"])
    t = MdpTables(obj["scheme"], _rows(obj["states"]),
                  _ids(actions) if actions.ndim == 1 else _rows(actions),
                  *(_ids(obj[key]) for key in ("state_id", "cand_offsets", "cand_id", "taken")),
                  np.array(obj["rewards"], dtype=float), _ids(obj["step_offsets"]),
                  tuple(obj["trajectory_ids"]), tuple(obj["scenario_ids"]),
                  ScoreColumns(*(np.array(obj[name], dtype=float)
                                 for name in ScoreColumns._fields)))
    counts, n = np.diff(t.cand_offsets), len(t.state_id)
    if not all(((0 <= ids) & (ids < bound)).all() for ids, bound in (
            (t.state_id, len(t.states)), (t.cand_id, len(t.actions)))):
        raise ValueError("an id out of range of its table")
    if t.index_actions and (t.actions < 0).any():
        raise ValueError("a negative vocabulary id")
    if (t.cand_offsets[:1].tolist() != [0] or t.cand_offsets[-1] != len(t.cand_id)
            or (counts <= 0).any()):
        raise ValueError("candidate offsets must ascend from 0 to the candidates")
    if not len(counts) == n == len(t.taken) == len(t.rewards):
        raise ValueError("step columns of unequal lengths")
    if ((t.taken < 0) | (t.taken >= counts)).any():
        raise ValueError("a taken position at or past its step's candidates")
    if (t.step_offsets[:1].tolist() != [0] or t.step_offsets[-1] != n
            or (np.diff(t.step_offsets) < 0).any()):
        raise ValueError(f"trajectory step ranges disagree with the {n} steps")
    if (np.diff(t.step_offsets) == 0).any():
        raise ValueError("a trajectory with no steps")
    if len({len(t), len(t.scenario_ids), len(t.step_offsets) - 1, *map(len, t.scores)}) > 1:
        raise ValueError("trajectory columns of unequal lengths")
    fpc, rce = t.scores
    if not (((0 <= fpc) & (fpc <= 100)).all() and np.isin(rce, (0.0, 100.0)).all()):
        raise ValueError("judge scores outside their ranges")
    return t
