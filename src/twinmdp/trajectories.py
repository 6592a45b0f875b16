"""Trajectory data model, and the file format of every pipeline artifact.

A corpus is a line-delimited JSON file, one diagnosis episode per line.
Every record is validated on load; the first violation raises a typed
error carrying the offending line number. Every other artifact is read and
written by the JSON helpers at the end of this module.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    ChosenEntityNotInCandidates,
    IoFailure,
    MalformedRecord,
    NonMonotoneTurnIndex,
    ScoreOutOfRange,
)

LABELS = ("primary", "cascading", "normal")


@dataclass(frozen=True, order=True)
class Entity:
    """A typed node of the system under diagnosis, e.g. ("frontend", "Pod")."""

    __slots__ = ("name", "etype", "_hash")  # no per-instance dict: corpora hold many
    name: str
    etype: str

    def __post_init__(self):
        if not self.name or not self.etype:
            raise MalformedRecord("entity name and etype must be non-empty strings")
        # the generated hash's value, computed once: sets and dicts keep their order
        object.__setattr__(self, "_hash", hash((self.name, self.etype)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild rather than carry the hash: string hashes differ between processes
        return (Entity, (self.name, self.etype))


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

    def __post_init__(self):
        if self.turn_index < 0:
            raise MalformedRecord(f"turn_index {self.turn_index} is negative")
        if self.chosen_entity not in self.candidate_entities:
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

    def __post_init__(self):
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


def _step_to_json(s: RawStep) -> dict:
    # assessments serialize as a sorted pair list: JSON keys must be strings
    return {
        "turn_index": s.turn_index,
        "chosen_entity": entity_to_json(s.chosen_entity),
        "candidate_entities": [entity_to_json(e) for e in s.candidate_entities],
        "assessments": [
            [entity_to_json(e), label]
            for e, label in sorted(s.assessments.items(), key=lambda kv: kv[0])
        ],
        "intermediate_reward": s.intermediate_reward,
    }


def _step_from_json(obj) -> RawStep:
    if not isinstance(obj, dict):
        raise MalformedRecord("step must be an object")
    _check_keys(obj, _STEP_KEYS, "step")
    try:
        assessments = {}
        for pair in obj.get("assessments", []):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise MalformedRecord("assessment entries must be [entity, label] pairs")
            assessments[entity_from_json(pair[0])] = pair[1]
        return RawStep(
            turn_index=obj["turn_index"],
            chosen_entity=entity_from_json(obj["chosen_entity"]),
            candidate_entities=tuple(
                entity_from_json(e) for e in obj["candidate_entities"]
            ),
            assessments=assessments,
            intermediate_reward=obj.get("intermediate_reward"),
        )
    except KeyError as exc:
        raise MalformedRecord(f"step missing field {exc}") from exc


def trajectory_to_json(traj: RawTrajectory) -> dict:
    return {
        "trajectory_id": traj.trajectory_id,
        "scenario_id": traj.scenario_id,
        "symptom_entity": entity_to_json(traj.symptom_entity),
        "steps": [_step_to_json(s) for s in traj.steps],
        "scores": {
            "fpc_accuracy": traj.scores.fpc_accuracy,
            "rce_identification": traj.scores.rce_identification,
        },
        "final_root_cause": (
            entity_to_json(traj.final_root_cause) if traj.final_root_cause else None
        ),
    }


def trajectory_from_json(obj) -> RawTrajectory:
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
            symptom_entity=entity_from_json(obj["symptom_entity"]),
            steps=tuple(_step_from_json(s) for s in obj["steps"]),
            scores=scores,
            final_root_cause=entity_from_json(final) if final is not None else None,
        )
    except KeyError as exc:
        raise MalformedRecord(f"trajectory missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedRecord(str(exc)) from exc


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


@contextmanager
def reading(path: str | Path, what: str):
    """Reads of the ``what`` at ``path``: an OSError becomes IoFailure, and
    invalid JSON or a missing or mistyped field becomes MalformedRecord; both
    name the file."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from exc


def read_json(path: str | Path, what: str, decode=lambda obj: obj, version=None):
    """``decode`` of the JSON document at ``path``. With ``version``, its
    ``format_version`` field must equal it."""
    with reading(path, what):
        obj = json.loads(Path(path).read_text())
        if version is not None and obj.get("format_version") != version:
            raise MalformedRecord(
                f"unsupported {what} format {obj.get('format_version')} in {path}")
        return decode(obj)


def read_jsonl(path: str | Path, what: str, decode) -> list:
    """``decode`` of each non-blank line of the JSON-lines file at ``path``."""
    with reading(path, what):
        return [decode(json.loads(line))
                for line in Path(path).read_text().splitlines() if line.strip()]


def load_corpus(path: str | Path) -> list[RawTrajectory]:
    """Load and validate a line-delimited trajectory corpus.

    Raises the first validation error encountered, annotated with the
    1-based line number. Duplicate trajectory_ids only warn: ids are labels,
    not keys.
    """
    path = Path(path)
    trajectories: list[RawTrajectory] = []
    seen_ids: set[str] = set()
    with reading(path, "corpus"):
        lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"invalid JSON: {exc}", line=lineno) from exc
        try:
            traj = trajectory_from_json(obj)
        except (MalformedRecord, ScoreOutOfRange,
                ChosenEntityNotInCandidates, NonMonotoneTurnIndex) as exc:
            raise type(exc)(str(exc), line=lineno) from exc
        if traj.trajectory_id in seen_ids:
            warnings.warn(
                f"duplicate trajectory_id {traj.trajectory_id!r} at line {lineno}",
                stacklevel=2,
            )
        seen_ids.add(traj.trajectory_id)
        trajectories.append(traj)
    return trajectories


def save_corpus(trajs, path: str | Path) -> None:
    """Write trajectories as line-delimited JSON; load_corpus inverts it."""
    write_jsonl(path, map(trajectory_to_json, trajs), "corpus")
