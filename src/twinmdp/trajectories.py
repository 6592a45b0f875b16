"""Trajectory data model, and the file format of every pipeline artifact.

A corpus is a line-delimited JSON file, one diagnosis episode per line.
Every record is validated on load; the first violation raises a typed
error carrying the offending line number. Every other artifact is read and
written by the JSON helpers at the end of this module.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .errors import (
    ChosenEntityNotInCandidates,
    CorpusError,
    DimensionMismatch,
    IoFailure,
    MalformedRecord,
    NonMonotoneTurnIndex,
    ScoreOutOfRange,
)

LABELS = ("primary", "cascading", "normal")


class Entity(namedtuple("Entity", ["name", "etype"])):
    """A typed node of the system under diagnosis, e.g. ("frontend", "Pod").

    A tuple, so hashing and ordering run in C: ``hash(e)`` is
    ``hash((name, etype))`` and entities sort by (name, etype). Equality is
    strict: an entity equals only an entity, never the plain tuple of its
    fields. Equality is the one Python-level method, and set and dict
    lookups skip it for the identical object, so the hot paths hold one
    object per entity (a graph's nodes, ``load_corpus``'s interned entities).
    """

    __slots__ = ()  # no per-instance dict: corpora hold many

    def __new__(cls, name: str, etype: str):
        if not (isinstance(name, str) and name and isinstance(etype, str) and etype):
            raise MalformedRecord("entity name and etype must be non-empty strings")
        return tuple.__new__(cls, (name, etype))

    def __eq__(self, other):
        return self is other or (isinstance(other, Entity) and tuple.__eq__(self, other))

    def __ne__(self, other):
        return self is not other and not (isinstance(other, Entity)
                                          and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__


@dataclass(frozen=True)
class JudgeScores:
    """Trajectory-level quality scores on a 0-100 scale.

    ``fpc_accuracy`` grades the identified fault propagation chain (F1-style,
    any value in [0, 100]); ``rce_identification`` is all-or-nothing: 100 if
    the final answer names the true root-cause entity, else 0.
    """

    fpc_accuracy: float
    rce_identification: float

    def __post_init__(self):
        if not 0.0 <= self.fpc_accuracy <= 100.0:
            raise ScoreOutOfRange(f"fpc_accuracy {self.fpc_accuracy} outside [0, 100]")
        if self.rce_identification not in (0.0, 100.0, 0, 100):
            raise ScoreOutOfRange(
                f"rce_identification {self.rce_identification} must be 0 or 100"
            )


@dataclass(frozen=True)
class RawStep:
    """One turn of an episode.

    ``assessments`` is the agent's cumulative failure judgment after this
    turn: entity -> label in {"primary", "cascading", "normal"}. Entities
    never inspected are simply absent.
    """

    turn_index: int
    chosen_entity: Entity
    candidate_entities: tuple[Entity, ...]
    assessments: dict[Entity, str] = field(default_factory=dict)
    intermediate_reward: float | None = None

    __hash__ = None  # the assessments dict is unhashable

    def __post_init__(self):
        if self.turn_index < 0:
            raise MalformedRecord(f"turn_index {self.turn_index} is negative")
        # a set lookup: a tuple scan calls Entity.__eq__ on each candidate it passes
        if self.chosen_entity not in set(self.candidate_entities):
            raise ChosenEntityNotInCandidates(
                f"turn {self.turn_index}: chosen {self.chosen_entity} not among candidates"
            )
        for label in self.assessments.values():
            if label not in LABELS:
                raise MalformedRecord(f"unknown assessment label {label!r}")


@dataclass(frozen=True)
class RawTrajectory:
    """A full multi-turn diagnosis episode plus its judge scores."""

    trajectory_id: str
    scenario_id: str
    symptom_entity: Entity
    steps: tuple[RawStep, ...]
    scores: JudgeScores
    final_root_cause: Entity | None = None

    __hash__ = None  # its steps are unhashable

    def __post_init__(self):
        if not (isinstance(self.trajectory_id, str) and isinstance(self.scenario_id, str)):
            raise MalformedRecord("trajectory_id and scenario_id must be strings")
        if not self.steps:
            raise MalformedRecord("trajectory has no steps")
        for t, step in enumerate(self.steps):
            if step.turn_index != t:
                raise NonMonotoneTurnIndex(
                    f"expected turn_index {t}, found {step.turn_index}"
                )


# --- JSON encoding ----------------------------------------------------------

_ENTITY_KEYS = {"name", "etype"}
_STEP_KEYS = {
    "turn_index",
    "chosen_entity",
    "candidate_entities",
    "assessments",
    "intermediate_reward",
}
_TRAJ_KEYS = {
    "trajectory_id",
    "scenario_id",
    "symptom_entity",
    "steps",
    "scores",
    "final_root_cause",
}
_SCORE_KEYS = {"fpc_accuracy", "rce_identification"}


def _check_keys(obj: dict, allowed: set[str], what: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise MalformedRecord(f"{what} has unknown fields {sorted(unknown)}")


def entity_to_json(e: Entity) -> dict:
    return {"name": e.name, "etype": e.etype}


def entity_from_json(obj) -> Entity:
    if not isinstance(obj, dict):
        raise MalformedRecord(f"entity must be an object, got {type(obj).__name__}")
    _check_keys(obj, _ENTITY_KEYS, "entity")
    try:
        return Entity(name=obj["name"], etype=obj["etype"])
    except KeyError as exc:
        raise MalformedRecord(f"entity missing field {exc}") from exc


def interning_entity_decoder():
    """``entity_from_json`` that validates each distinct entity object once
    and returns one ``Entity`` for all of its mentions, so lookups of the
    decoded entities stay on identity. Pass one decoder to ``load_corpus``
    and ``load_scenarios`` to share the objects between their results."""
    seen: dict[tuple[str, str], Entity] = {}
    return _entity_decoder(seen, lambda e: seen.setdefault(tuple(e), e))


def node_decoder(nodes):
    """``entity_from_json`` onto the graph nodes ``nodes``: each entity object
    decodes to the node equal to it, and an entity that is no node raises
    MalformedRecord."""
    def unknown(e: Entity):
        raise MalformedRecord(f"entity ({e.name}, {e.etype}) is a node of no scenario graph")

    return _entity_decoder({tuple(e): e for e in nodes}, unknown)


def _entity_decoder(seen: dict, new):
    """Entities in ``seen`` by (name, etype), others validated and passed to ``new``."""
    def decode(obj) -> Entity:
        if type(obj) is dict and len(obj) == 2:
            try:  # a hit has exactly the fields of an entity validated before
                hit = seen.get((obj["name"], obj["etype"]))
            except (KeyError, TypeError):
                hit = None
            if hit is not None:
                return hit
        return new(entity_from_json(obj))

    return decode


def _step_from_json(obj, entity) -> RawStep:
    if not isinstance(obj, dict):
        raise MalformedRecord("step must be an object")
    _check_keys(obj, _STEP_KEYS, "step")
    try:
        assessments = {}
        for pair in obj.get("assessments", []):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise MalformedRecord("assessment entries must be [entity, label] pairs")
            assessments[entity(pair[0])] = pair[1]
        return RawStep(
            turn_index=obj["turn_index"],
            chosen_entity=entity(obj["chosen_entity"]),
            candidate_entities=tuple(entity(e) for e in obj["candidate_entities"]),
            assessments=assessments,
            intermediate_reward=obj.get("intermediate_reward"),
        )
    except KeyError as exc:
        raise MalformedRecord(f"step missing field {exc}") from exc


def trajectory_from_json(obj, entity) -> RawTrajectory:
    """The trajectory of a corpus record; ``entity`` decodes each entity
    object (``entity_from_json``, or an ``interning_entity_decoder``)."""
    if not isinstance(obj, dict):
        raise MalformedRecord("trajectory must be an object")
    _check_keys(obj, _TRAJ_KEYS, "trajectory")
    try:
        scores_obj = obj["scores"]
        if not isinstance(scores_obj, dict):
            raise MalformedRecord("scores must be an object")
        _check_keys(scores_obj, _SCORE_KEYS, "scores")
        scores = JudgeScores(
            fpc_accuracy=float(scores_obj["fpc_accuracy"]),
            rce_identification=float(scores_obj["rce_identification"]),
        )
        final = obj.get("final_root_cause")
        return RawTrajectory(
            trajectory_id=obj["trajectory_id"],
            scenario_id=obj["scenario_id"],
            symptom_entity=entity(obj["symptom_entity"]),
            steps=tuple(_step_from_json(s, entity) for s in obj["steps"]),
            scores=scores,
            final_root_cause=entity(final) if final is not None else None,
        )
    except KeyError as exc:
        raise MalformedRecord(f"trajectory missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc


_dumps = json.JSONEncoder(sort_keys=True).encode  # json.dumps(obj, sort_keys=True)
_dumps_str = json.encoder.encode_basestring_ascii  # the same, for a str


def _json(x) -> str:
    """``json.dumps(x, sort_keys=True)``, with a str, int, finite float or
    None encoded inline."""
    t = type(x)
    if t is str:
        return _dumps_str(x)
    if t is float and math.isfinite(x):
        return float.__repr__(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    return _dumps(x)


class _CorpusEncoder:
    """The corpus line of a trajectory, as text: ``json.dumps(record,
    sort_keys=True)`` of the record that ``load_corpus`` decodes, byte for
    byte. Assessments are written as a pair list sorted by entity (JSON keys
    must be strings). Each entity's JSON object and each [entity, label]
    pair's JSON array is encoded once per encoder."""

    def __init__(self):
        self.entities: dict[Entity, str] = {}
        self.pairs: dict[tuple[Entity, str], str] = {}

    def entity(self, e: Entity) -> str:
        text = self.entities.get(e)
        if text is None:
            text = self.entities[e] = (
                f'{{"etype": {_json(e.etype)}, "name": {_json(e.name)}}}')
        return text

    def pair(self, item: tuple[Entity, str]) -> str:
        text = self.pairs.get(item)
        if text is None:
            text = self.pairs[item] = f"[{self.entity(item[0])}, {_json(item[1])}]"
        return text

    def step(self, s: RawStep) -> str:
        assessed = sorted(s.assessments.items(), key=itemgetter(0))
        return "".join((
            '{"assessments": [', ", ".join(map(self.pair, assessed)),
            '], "candidate_entities": [', ", ".join(map(self.entity, s.candidate_entities)),
            '], "chosen_entity": ', self.entity(s.chosen_entity),
            ', "intermediate_reward": ', _json(s.intermediate_reward),
            ', "turn_index": ', _json(s.turn_index), "}",
        ))

    def line(self, t: RawTrajectory) -> str:
        final = t.final_root_cause
        return "".join((
            '{"final_root_cause": ', self.entity(final) if final else "null",
            ', "scenario_id": ', _json(t.scenario_id),
            ', "scores": {"fpc_accuracy": ', _json(t.scores.fpc_accuracy),
            ', "rce_identification": ', _json(t.scores.rce_identification),
            '}, "steps": [', ", ".join(map(self.step, t.steps)),
            '], "symptom_entity": ', self.entity(t.symptom_entity),
            ', "trajectory_id": ', _json(t.trajectory_id), "}\n",
        ))


# --- artifact I/O: sorted-key JSON, one document per file or one per line ------

@contextmanager
def atomic_open(path: str | Path, what: str = "file", newline: str | None = None):
    """Open the ``what`` at ``path`` for writing through a temp file in its directory.

    ``os.replace`` puts it in place once the block completes, so no reader sees
    a partial file; if the block raises, the previous file stays as it was. An
    OSError becomes IoFailure.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise IoFailure(f"cannot write {what} {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_text(path: str | Path, text: str, what: str = "file") -> None:
    with atomic_open(path, what) as fh:
        fh.write(text)


def write_json(path: str | Path, obj, what: str, indent: int | None = None) -> None:
    """Write ``obj`` as one sorted-key JSON document; read_json inverts it."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=indent) + "\n", what)


def write_jsonl(path: str | Path, objs, what: str) -> None:
    """Write each of ``objs`` as one sorted-key JSON line; read_jsonl inverts it."""
    with atomic_open(path, what) as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True))
            fh.write("\n")


class reading:
    """Reads of the ``what`` at ``path``: an OSError becomes IoFailure, and
    invalid JSON, a missing or mistyped field, or parts whose sizes disagree
    (DimensionMismatch) become MalformedRecord; both name the file. With
    ``line``, a MalformedRecord or other CorpusError also names the file and
    carries that 1-based line of it.

    A class, not a generator context manager: JSON-lines readers enter one
    per line, and this costs a fraction of a generator's set-up."""

    def __init__(self, path: str | Path, what: str, line: int | None = None):
        self.path, self.what, self.line = path, what, line

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot read {self.what} {self.path}: {exc}") from exc
        if isinstance(exc, CorpusError):
            if self.line is None or exc.line is not None:
                return False
            raise type(exc)(f"{self.what} {self.path}: {exc}", line=self.line) from exc
        if isinstance(exc, (AttributeError, DimensionMismatch, KeyError, TypeError,
                            ValueError)):
            raise MalformedRecord(f"malformed {self.what} {self.path}: "
                                  f"{type(exc).__name__}: {exc}", line=self.line) from exc
        return False


def read_json(path: str | Path, what: str, decode=lambda obj: obj, version=None):
    """``decode`` of the JSON document at ``path``. With ``version``, its
    ``format_version`` field must equal it."""
    with reading(path, what):
        obj = json.loads(Path(path).read_text())
        if version is not None and obj.get("format_version") != version:
            raise MalformedRecord(
                f"unsupported {what} format {obj.get('format_version')} in {path}")
        return decode(obj)


def read_jsonl(path: str | Path, what: str, decode):
    """``decode`` of each non-blank line of the JSON-lines file at ``path``,
    one line read at a time; the error of a malformed line names its
    1-based line."""
    with reading(path, what), Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                with reading(path, what, lineno):
                    record = decode(json.loads(line))
                yield record


def iter_corpus(path: str | Path, entity):
    """The trajectories of a line-delimited corpus, each validated as its line
    is read (``read_jsonl``); duplicate trajectory_ids only warn, as ids are
    labels, not keys. ``entity`` decodes each entity object (an
    ``interning_entity_decoder``, or a ``node_decoder``)."""
    seen_ids: set[str] = set()
    for traj in read_jsonl(path, "corpus", lambda obj: trajectory_from_json(obj, entity)):
        if traj.trajectory_id in seen_ids:
            warnings.warn(f"duplicate trajectory_id {traj.trajectory_id!r} in corpus {path}",
                          stacklevel=2)
        seen_ids.add(traj.trajectory_id)
        yield traj


def load_corpus(path: str | Path, entity=None) -> list[RawTrajectory]:
    """Every trajectory of a line-delimited corpus (``iter_corpus``), as a
    list; ``entity`` is by default a new ``interning_entity_decoder``."""
    return list(iter_corpus(path, entity or interning_entity_decoder()))


@contextmanager
def corpus_writer(path: str | Path):
    """Write a corpus one trajectory at a time: the block gets a function that
    writes a trajectory's line as it is called, and the file appears at
    ``path`` once the block completes (``atomic_open``); load_corpus inverts it."""
    encode = _CorpusEncoder().line
    with atomic_open(path, "corpus") as fh:
        yield lambda traj: fh.write(encode(traj))


def save_corpus(trajs, path: str | Path) -> None:
    """Write trajectories as line-delimited JSON; load_corpus inverts it."""
    with corpus_writer(path) as write:
        for traj in trajs:
            write(traj)
