"""End-to-end workflow stages with content-hashed, reproducible artifacts.

Each stage reads files, writes files plus a manifest (input/output hashes,
config hash, derived seed), and nothing else, so any stage can be re-run in
isolation and must reproduce its artifacts byte for byte. A single master
seed fans out to per-stage seeds through stable hashing.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .abstraction import (
    SCHEME_KINDS,
    MdpTables,
    SchemeSpec,
    abstract,
    build_vocabulary,
    concat_tables,
    load_abstract_corpus,
    save_abstract_corpus,
)
from .context import STRATEGIES, CeConfig
from .errors import ConfigInvalid, MalformedRecord, MissingArtifact, StageFailed, in_range
from .hmm import Hmm, fit_hmm, log_likelihoods
from .offline_rl import (
    QPolicy,
    TrainConfig,
    bc_train,
    build_transitions,
    cql_train,
    load_policy,
    save_policy,
)
from .ope import fqe_many, rank_policies
from .reward_learning import (
    RANKING_SIGNALS,
    RELABEL_MODES,
    RewardTrainConfig,
    build_pairs,
    load_reward_net,
    relabel,
    save_reward_net,
    train_reward,
)
from .simulator import (
    CePlan,
    EpisodeConfig,
    ScenarioConfig,
    generate_scenario,
    load_scenarios,
    run_batch,
    save_scenarios,
)
from .stats import (
    NEMENYI_Q,
    TrialRecord,
    nemenyi_cd,
    paired_t_bonferroni,
    pass_at_3_bootstrap,
    ranks_from_scores,
    render_cd_diagram,
)
from .trajectories import (JudgeScores, atomic_open, atomic_write_text, corpus_writer,
                           interning_entity_decoder, iter_corpus, node_decoder, read_json,
                           reading, write_json, write_jsonl)

# evaluate ranks the arms plus the baseline; the Nemenyi table covers up to 10 methods
MAX_ARMS = max(NEMENYI_Q[0.05]) - 1

# artifact file names, relative to the output directory
F_TRAIN_SCENARIOS = "train_scenarios.jsonl"
F_TRAIN_CORPUS = "train_corpus.jsonl"
F_ABSTRACT = "abstract_corpus.jsonl"
F_SCHEME = "scheme_runtime.json"
F_HMM = "hmm_model.json"
F_REWARD = "reward_net.json"
F_TEST_SCENARIOS = "test_scenarios.jsonl"
F_RESULTS = "results.csv"
F_COMPARE_CORPUS = "compare_corpus.jsonl"
F_RANKING = "ranking.json"
F_RANKING_CSV = "ranking.csv"
F_REPORT = "report.json"
F_SUMMARY_CSV = "summary.csv"
F_CD = "cd_diagram.txt"
F_SUMMARY = "summary.json"


def rewards_file(mode: str) -> str:
    return f"rewards_{mode}.jsonl"


def policy_file(policy_id: str) -> str:
    return f"policy_{policy_id}.json"


# --- seeding and hashing -------------------------------------------------------------

def derive_seed(master_seed: int, *labels) -> int:
    """Stable 63-bit seed derived from the master seed and string labels."""
    digest = hashlib.blake2b(
        ":".join([str(master_seed), *map(str, labels)]).encode(),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(cfg: "PipelineConfig") -> str:
    return hashlib.sha256(
        json.dumps(cfg.raw, sort_keys=True).encode()
    ).hexdigest()


# --- configuration ---------------------------------------------------------------------

DEFAULT_GRID = [
    {"id": "rl_irl", "learner": "cql", "reward_mode": "irl"},
    {"id": "rl_sparse", "learner": "cql", "reward_mode": "sparse"},
    {"id": "bc", "learner": "bc", "reward_mode": "none"},
]
DEFAULT_ARMS = [
    {"id": "rl_irl+suggest", "policy": "rl_irl", "strategies": ["suggest"]},
    {"id": "rl_irl+prune", "policy": "rl_irl", "strategies": ["prune"]},
    {"id": "rl_irl+prioritize", "policy": "rl_irl", "strategies": ["prioritize"]},
    {"id": "rl_sparse+prioritize", "policy": "rl_sparse", "strategies": ["prioritize"]},
    {"id": "bc+prioritize", "policy": "bc", "strategies": ["prioritize"]},
]
_PAIRS = inspect.signature(build_pairs).parameters


@dataclass
class ArmSpec:
    arm_id: str
    policy_id: str
    strategies: tuple[str, ...]


def _key(path: str, default=MISSING, skip: tuple[str, ...] = ()):
    """A field read from config key ``path``. A field typed by a dataclass is a
    section: each field of that dataclass but ``skip`` is the key
    ``path.<name>``, with the dataclass's type and default."""
    return field(default=default, metadata={"key": path, "skip": skip})


@dataclass(kw_only=True)
class PipelineConfig:
    """The config schema: each field names its key; its type and default are the key's."""

    raw: dict
    master_seed: int = _key("master_seed", 0)
    corpus_path: str | None = _key("paths.corpus", None)
    scenarios_path: str | None = _key("paths.scenarios", None)
    scheme_kind: str = _key("scheme.kind", "topology")
    with_hubs: bool = _key("scheme.with_hubs", False)
    with_hmm: bool = _key("scheme.with_hmm", False)
    hmm_states: int = _key("scheme.hmm_states", 4)
    hmm_select_from: list[int] | None = _key("scheme.hmm_select_from", None)
    sentinel: float | None = _key("scheme.unreachable_sentinel", None)
    collect_scenarios: int = _key("collect.n_scenarios", 24)
    collect_episodes: int = _key("collect.episodes_per_scenario", 30)
    collect_scenario_cfg: ScenarioConfig = _key("collect.scenario")
    collect_episode_cfg: EpisodeConfig = _key("collect.episode")
    irl_signal: str = _key("irl.signal", _PAIRS["signal"].default)
    irl_margin: float = _key("irl.margin", _PAIRS["margin"].default)
    irl_max_pairs: int = _key("irl.max_pairs", _PAIRS["max_pairs"].default)
    irl_train: RewardTrainConfig = _key("irl", skip=("seed", "holdout_fraction"))
    rl_train: TrainConfig = _key("rl", skip=("seed",))
    rl_grid: list[dict] = _key("rl.grid")
    combined_blend: float = _key("rl.combined_blend", 1.0)
    ope_holdout: float = _key("ope.holdout_fraction", 0.25)
    ope_k: int = _key("ope.k", 3)
    eval_reward_mode: str = _key("ope.eval_reward_mode", "sparse")
    ce: CeConfig = _key("ce", skip=("strategies",))
    compare_scenarios: int = _key("compare.n_scenarios", 20)
    compare_trials: int = _key("compare.trials", 15)
    compare_scenario_cfg: ScenarioConfig = _key("compare.scenario")
    compare_episode_cfg: EpisodeConfig = _key("compare.episode")
    arms: list[ArmSpec] = _key("compare.arms")
    eval_alpha: float = _key("eval.alpha", 0.05)


_FIELD_TYPES = get_type_hints(PipelineConfig)


def _schema() -> tuple[dict[str, tuple], dict[str, str]]:
    """Config key -> (type, default, PipelineConfig field, section field or None),
    and the interval of each section key whose field is ``ranged``."""
    schema, ranges = {}, {}
    for f in fields(PipelineConfig):
        key, typ = f.metadata.get("key"), _FIELD_TYPES[f.name]
        if key and is_dataclass(typ):
            hints = get_type_hints(typ)
            for g in fields(typ):
                if g.name not in f.metadata["skip"]:
                    schema[f"{key}.{g.name}"] = (hints[g.name], g.default, f.name, g.name)
                    if "range" in g.metadata:
                        ranges[f"{key}.{g.name}"] = g.metadata["range"]
        elif key:
            schema[key] = (typ, f.default, f.name, None)
    return schema, ranges


SCHEMA, _FIELD_RANGES = _schema()
# every proper prefix of a key
_SECTIONS = {path.rsplit(".", i)[0] for path in SCHEMA for i in range(1, path.count(".") + 1)}

# the allowed values, or an interval (a section key's interval is its field's)
RANGES = {
    **_FIELD_RANGES,
    "master_seed": "[0, inf)",
    "scheme.kind": SCHEME_KINDS,
    "scheme.hmm_states": "[1, inf)", "scheme.hmm_select_from": "[1, inf)",
    "collect.n_scenarios": "[2, inf)", "collect.episodes_per_scenario": "[1, inf)",
    "irl.signal": RANKING_SIGNALS, "irl.margin": "[0, inf)", "irl.max_pairs": "[1, inf)",
    "rl.combined_blend": "[0, inf)", "ope.holdout_fraction": "(0, 1)",
    "ope.k": "[1, inf)", "ope.eval_reward_mode": RELABEL_MODES,
    "compare.n_scenarios": "[2, inf)", "compare.trials": "[3, inf)",
    "eval.alpha": "(0, 1)",
}


def _get(cfg: dict, path: str, default=None):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return default
        cur = cur[part]
    return cur


def _typed(value, typ):
    """``value`` as ``typ``: ints pass as floats, bools only as bools."""
    args = get_args(typ)
    if type(None) in args:  # X | None
        return None if value is None else _typed(value, args[0])
    if get_origin(typ) is list and isinstance(value, list):
        return [_typed(v, args[0]) for v in value]
    if typ is float and type(value) is int:
        return float(value)
    if type(value) is not typ:
        raise TypeError
    return value


def _unknown_keys(node: dict, prefix: str, problems: list[str]) -> None:
    for key, value in node.items():
        path = f"{prefix}{key}"
        if path in _SECTIONS:
            if isinstance(value, dict):
                _unknown_keys(value, path + ".", problems)
            else:
                problems.append(f"{path}: expected a mapping, got {type(value).__name__}")
        elif path not in SCHEMA:
            problems.append(f"{path}: unknown key")


def _entries(path: str, entries, keys: tuple[str, ...], problems: list[str]):
    """(index, entry) of each mapping in the list at ``path``; checks keys and ids."""
    if not isinstance(entries, list):
        problems.append(f"{path}: expected a list, got {type(entries).__name__}")
        return []
    found, ids = [], set()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            problems.append(f"{path}[{i}]: expected a mapping, got {type(entry).__name__}")
            continue
        problems.extend(f"{path}[{i}].{k}: unknown key" for k in entry if k not in keys)
        if not entry.get("id"):
            problems.append(f"{path}[{i}].id: missing")
        elif entry["id"] in ids:
            problems.append(f"{path}[{i}].id: duplicate {entry['id']!r}")
        ids.add(entry.get("id"))
        found.append((i, entry))
    return found


def validate_config(raw: dict) -> PipelineConfig:
    """Check every key before any stage runs; all problems are reported.

    A key the config omits takes its PipelineConfig default, or the default
    of the library dataclass its section builds."""
    problems: list[str] = []
    _unknown_keys(raw, "", problems)
    values: dict = {}
    sections: dict[str, dict] = {}
    for path, (typ, default, name, sub) in SCHEMA.items():
        if get_origin(typ) is list:
            continue  # rl.grid and compare.arms: their entries are checked below
        value = _get(raw, path, default)
        try:
            value = _typed(value, typ)
        except TypeError:
            expected = typ.__name__ if isinstance(typ, type) else typ
            problems.append(f"{path}: expected {expected}, got {type(value).__name__}")
            value = default
        spec = RANGES.get(path)
        if spec and value is not None and not in_range(value, spec):
            allowed = ", ".join(spec) if isinstance(spec, tuple) else spec
            problems.append(f"{path}: must be in {allowed}")
            value = default
        if sub is None:
            values[name] = value
        else:
            sections.setdefault(name, {})[sub] = value

    if values["scheme_kind"] != "topology" and (values["with_hubs"] or values["with_hmm"]):
        problems.append("scheme.with_hubs/with_hmm: require scheme.kind = topology")
    for side in ("collect", "compare"):
        scenario = sections[f"{side}_scenario_cfg"]
        if scenario["n_nodes"] < scenario["chain_length"]:
            problems.append(f"{side}.scenario.n_nodes: must be >= chain_length")

    grid = _entries("rl.grid", _get(raw, "rl.grid") or DEFAULT_GRID,
                    ("id", "learner", "reward_mode"), problems)
    for i, entry in grid:
        learner = entry.get("learner")
        modes = {"cql": RELABEL_MODES, "bc": ("none",)}.get(learner)
        if modes is None:
            problems.append(f"rl.grid[{i}].learner: must be in cql, bc")
        elif entry.get("reward_mode") not in modes:
            problems.append(f"rl.grid[{i}].reward_mode: {learner} takes {', '.join(modes)}")

    arm_entries = _entries("compare.arms", _get(raw, "compare.arms") or DEFAULT_ARMS,
                           ("id", "policy", "strategies"), problems)
    if len(arm_entries) > MAX_ARMS:
        problems.append(f"compare.arms: at most {MAX_ARMS} arms, got {len(arm_entries)}")
    policy_ids = {entry.get("id") for _, entry in grid}
    arms = []
    for i, entry in arm_entries:
        strategies = tuple(entry.get("strategies", ()))
        if not strategies or any(s not in STRATEGIES for s in strategies):
            problems.append(f"compare.arms[{i}].strategies: a non-empty subset of "
                            f"{', '.join(STRATEGIES)}")
        if entry.get("policy") not in policy_ids:
            problems.append(f"compare.arms[{i}].policy: not in rl.grid ids")
        arms.append(ArmSpec(arm_id=str(entry.get("id")), policy_id=str(entry.get("policy")),
                            strategies=strategies))

    if problems:
        raise ConfigInvalid(problems)
    for name, kwargs in sections.items():
        values[name] = _FIELD_TYPES[name](**kwargs)
    values["irl_train"] = replace(values["irl_train"],
                                  seed=derive_seed(values["master_seed"], "train_reward"))
    return PipelineConfig(raw=raw, rl_grid=[dict(entry) for _, entry in grid], arms=arms,
                          **values)


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid([f"config file {path} does not exist"])
    try:
        text = path.read_text()
        raw = yaml.safe_load(text) if path.suffix in (".yaml", ".yml") else json.loads(text)
    except (OSError, yaml.YAMLError, ValueError) as exc:
        raise ConfigInvalid([f"config file {path}: {type(exc).__name__}: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid(["config root must be a mapping"])
    return validate_config(raw)


# --- manifest helpers ---------------------------------------------------------------

def _write_manifest(out: Path, stage: str, cfg: PipelineConfig, seed: int,
                    inputs: list[Path], outputs: list[Path]) -> dict:
    manifest = {
        "stage": stage,
        "config_hash": config_hash(cfg),
        "seed": seed,
        "inputs": {p.name: file_sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: file_sha256(p) for p in sorted(outputs)},
    }
    write_json(out / f"{stage}.manifest.json", manifest, "manifest", indent=2)
    return manifest


def _require(paths: list[Path], stage: str) -> None:
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise MissingArtifact(f"stage '{stage}' needs missing artifacts: {missing}")


# --- stages --------------------------------------------------------------------------

def stage_collect(cfg: PipelineConfig, out: Path) -> dict:
    """Generate training scenarios and log the base agent's episodes."""
    out.mkdir(parents=True, exist_ok=True)
    seed = derive_seed(cfg.master_seed, "collect")
    scenarios = [
        generate_scenario(
            cfg.collect_scenario_cfg,
            derive_seed(cfg.master_seed, "collect", "scenario", i),
            scenario_id=f"train-{i:03d}",
        )
        for i in range(cfg.collect_scenarios)
    ]
    with corpus_writer(out / F_TRAIN_CORPUS) as write:
        run_batch(scenarios, None, cfg.collect_episode_cfg,
                  cfg.collect_episodes, seed, method_id="collect", record=write)
    save_scenarios(scenarios, out / F_TRAIN_SCENARIOS)
    return _write_manifest(out, "collect", cfg, seed, [],
                           [out / F_TRAIN_SCENARIOS, out / F_TRAIN_CORPUS])


def _input_paths(cfg: PipelineConfig, out: Path) -> tuple[Path, Path]:
    corpus = Path(cfg.corpus_path) if cfg.corpus_path else out / F_TRAIN_CORPUS
    scenarios = Path(cfg.scenarios_path) if cfg.scenarios_path else out / F_TRAIN_SCENARIOS
    return corpus, scenarios


def resolve_sentinel(cfg: PipelineConfig) -> float:
    """A priori bound that exceeds any stage graph's diameter."""
    if cfg.sentinel is not None:
        return cfg.sentinel
    return float(max(cfg.collect_scenario_cfg.n_nodes,
                     cfg.compare_scenario_cfg.n_nodes))


def stage_abstract(cfg: PipelineConfig, out: Path) -> dict:
    """Abstract the raw corpus under the configured scheme, one line at a time."""
    corpus_path, scenarios_path = _input_paths(cfg, out)
    _require([corpus_path, scenarios_path], "abstract")
    seed = derive_seed(cfg.master_seed, "abstract")
    entity = interning_entity_decoder()
    graphs = {s.scenario_id: s.graph for s in load_scenarios(scenarios_path, entity)}
    sentinel = resolve_sentinel(cfg)
    vocabulary = (() if cfg.scheme_kind == "topology"
                  else build_vocabulary(graphs.values(), cfg.scheme_kind))
    spec = SchemeSpec(kind=cfg.scheme_kind, vocabulary=vocabulary,
                      with_hubs=cfg.with_hubs, unreachable_sentinel=sentinel)
    # corpus entities are the graphs' node objects (lookups stop at identity), or errors
    nodes = node_decoder(e for g in graphs.values() for e in g.nodes)
    tables = abstract(iter_corpus(corpus_path, nodes), spec, graphs)

    outputs = []
    chosen_states = cfg.hmm_states
    if cfg.with_hmm:
        hmm_model, chosen_states = _fit_or_select_hmm(cfg, tables.observations(), seed)
        tables = tables.with_hidden_states(hmm_model)
        write_json(out / F_HMM, {
            "n_states": chosen_states,
            "initial": hmm_model.initial.tolist(),
            "transition": hmm_model.transition.tolist(),
            "means": hmm_model.means.tolist(),
            "variances": hmm_model.variances.tolist(),
        }, "hmm model")
        outputs.append(out / F_HMM)

    save_abstract_corpus(tables, out / F_ABSTRACT)
    write_json(out / F_SCHEME, {
        "kind": cfg.scheme_kind,
        "with_hubs": cfg.with_hubs,
        "with_hmm": cfg.with_hmm,
        "hmm_states": chosen_states,
        "sentinel": sentinel,
        "vocabulary": [list(v) if isinstance(v, tuple) else v for v in vocabulary],
    }, "scheme runtime")
    outputs.extend([out / F_ABSTRACT, out / F_SCHEME])
    return _write_manifest(out, "abstract", cfg, seed,
                           [corpus_path, scenarios_path], outputs)


def _fit_or_select_hmm(cfg: PipelineConfig, sequences, seed: int) -> tuple[Hmm, int]:
    """The HMM fitted on all ``sequences`` and its state count: the one
    configured, or of several the one whose fit on a seeded four fifths of
    the sequences scores the other fifth highest."""
    candidates = cfg.hmm_select_from or (cfg.hmm_states,)
    chosen = candidates[0]
    if len(candidates) > 1:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(sequences))
        n_val = max(1, len(sequences) // 5)
        val = [sequences[i] for i in order[:n_val]]
        train = [sequences[i] for i in order[n_val:]]
        best = None
        for k in candidates:
            model, _ = fit_hmm(train, k, seed=seed)
            score = sum(log_likelihoods(model, val).tolist())  # in validation order
            if best is None or score > best:
                best, chosen = score, k
    model, _ = fit_hmm(sequences, chosen, seed=seed)
    return model, chosen


def load_scheme_runtime(out: Path) -> tuple[SchemeSpec, Hmm | None]:
    """The scheme spec (and HMM, if any) as used at intervention time."""
    spec = read_json(out / F_SCHEME, "scheme runtime", lambda obj: SchemeSpec(
        kind=obj["kind"],
        vocabulary=tuple(tuple(v) if isinstance(v, list) else v for v in obj["vocabulary"]),
        with_hubs=obj["with_hubs"],
        with_hmm=obj["with_hmm"],
        unreachable_sentinel=obj["sentinel"],
    ))
    hmm_model = None
    if spec.with_hmm:
        hmm_model = read_json(out / F_HMM, "hmm model", lambda obj: Hmm(**{
            key: np.asarray(obj[key], dtype=float)
            for key in ("initial", "transition", "means", "variances")}))
    return spec, hmm_model


def split_scenarios(cfg: PipelineConfig, scenario_ids) -> tuple[set[str], set[str]]:
    """Scenario-level holdout: whole scenarios go to the evaluation split."""
    ids = sorted(set(scenario_ids))
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "split"))
    order = rng.permutation(len(ids))
    n_eval = max(1, int(round(cfg.ope_holdout * len(ids))))
    n_eval = min(n_eval, len(ids) - 1)
    eval_ids = {ids[i] for i in order[:n_eval]}
    train_ids = set(ids) - eval_ids
    return train_ids, eval_ids


def read_split(cfg: PipelineConfig, out: Path, train=(),
               held_out=()) -> tuple[dict[str, MdpTables], dict[str, MdpTables]]:
    """The abstract corpus's training-split tables under each ``train`` mode's
    rewards, and its eval-split tables under each ``held_out`` mode's, the
    trajectories in file order.

    The corpus is parsed once. Mode "none" keeps its zero rewards; any other
    mode takes the reward column of its reward file. The modes of a split
    share its tables but for the rewards.
    """
    corpus = load_abstract_corpus(out / F_ABSTRACT)
    _, eval_ids = split_scenarios(cfg, corpus.scenario_ids)
    held = np.array([s in eval_ids for s in corpus.scenario_ids], dtype=bool)
    split = ({}, {})
    for part, modes, side in ((split[0], train, False), (split[1], held_out, True)):
        kept = np.flatnonzero(held == side)
        tables, steps = corpus.select(kept), corpus.steps_of(kept)
        for mode in modes:
            part[mode] = tables if mode == "none" else tables.with_rewards(
                read_rewards(out / rewards_file(mode), corpus)[steps])
    return split


def read_rewards(path: Path, corpus: MdpTables) -> np.ndarray:
    """The reward column of the reward file at ``path``, whose line i holds
    trajectory i's id and one reward per step. A file that does not match
    ``corpus`` line for line raises MalformedRecord naming it and the
    1-based line."""
    with reading(path, "rewards"):
        lines = path.read_text().splitlines()
    ids = corpus.trajectory_ids
    rewards: list[float] = []
    for lineno, (line, tid, n) in enumerate(
            zip_longest(lines, ids, np.diff(corpus.step_offsets).tolist()), start=1):
        with reading(path, "rewards", lineno):
            if tid is None:
                raise MalformedRecord(f"rewards {path}: more lines than the abstract "
                                      f"corpus's {len(ids)} trajectories")
            if line is None:
                raise MalformedRecord(f"rewards {path}: no line for trajectory "
                                      f"{tid!r} of the abstract corpus")
            obj = json.loads(line)
            if obj["trajectory_id"] != tid:
                raise MalformedRecord(f"rewards {path}: trajectory {obj['trajectory_id']!r} "
                                      f"where the abstract corpus has {tid!r}")
            row = list(map(float, obj["rewards"]))
            if len(row) != n:
                raise MalformedRecord(f"rewards {path}: {len(row)} rewards for the "
                                      f"{n} steps of {tid!r}")
            rewards.extend(row)
    return np.array(rewards, dtype=float)


def stage_train_reward(cfg: PipelineConfig, out: Path) -> dict:
    _require([out / F_ABSTRACT], "train_reward")
    seed = derive_seed(cfg.master_seed, "train_reward")
    train_trajs = read_split(cfg, out, train=["none"])[0]["none"]
    scores = map(JudgeScores, *(column.tolist() for column in train_trajs.scores))
    pairs = build_pairs(
        list(zip(train_trajs.trajectory_ids, scores)),
        signal=cfg.irl_signal,
        margin=cfg.irl_margin,
        max_pairs=cfg.irl_max_pairs,
        seed=seed,
    )
    net = train_reward(pairs, train_trajs, cfg.irl_train)
    save_reward_net(net, out / F_REWARD)
    return _write_manifest(out, "train_reward", cfg, seed,
                           [out / F_ABSTRACT], [out / F_REWARD])


def _needed_reward_modes(cfg: PipelineConfig) -> list[str]:
    modes = {entry["reward_mode"] for entry in cfg.rl_grid} | {cfg.eval_reward_mode}
    return sorted(modes - {"none"})


def stage_relabel(cfg: PipelineConfig, out: Path) -> dict:
    modes = _needed_reward_modes(cfg)
    inputs = [out / F_ABSTRACT]
    net = None
    if any(m in ("irl", "combined") for m in modes):
        inputs.append(out / F_REWARD)
    _require(inputs, "relabel")
    seed = derive_seed(cfg.master_seed, "relabel")
    corpus = load_abstract_corpus(out / F_ABSTRACT)
    if (out / F_REWARD) in inputs:
        net = load_reward_net(out / F_REWARD)
    bounds = corpus.step_offsets.tolist()
    outputs = []
    for mode in modes:
        rewards = relabel(corpus, net, mode, corpus.scores.rce_identification,
                          cfg.combined_blend).rewards.tolist()
        write_jsonl(out / rewards_file(mode), (
            {"rewards": rewards[lo:hi], "trajectory_id": tid}
            for tid, lo, hi in zip(corpus.trajectory_ids, bounds, bounds[1:])), "rewards")
        outputs.append(out / rewards_file(mode))
    return _write_manifest(out, "relabel", cfg, seed, inputs, outputs)


def stage_train_policy(cfg: PipelineConfig, out: Path) -> dict:
    modes = _needed_reward_modes(cfg)
    inputs = [out / F_ABSTRACT] + [out / rewards_file(m) for m in modes]
    _require(inputs, "train_policy")
    seed = derive_seed(cfg.master_seed, "train_policy")
    outputs = []
    # bc entries take reward mode "none": the corpus's own zero rewards
    corpora, _ = read_split(cfg, out, train=sorted({e["reward_mode"] for e in cfg.rl_grid}))
    for entry in cfg.rl_grid:
        pid = entry["id"]
        train_cfg = replace(cfg.rl_train,
                            seed=derive_seed(cfg.master_seed, "train_policy", pid))
        trajs = corpora[entry["reward_mode"]]
        if entry["learner"] == "cql":
            qfun = cql_train(trajs, train_cfg)
            policy = QPolicy(q=qfun, temperature=train_cfg.temperature)
        else:
            policy = bc_train(trajs, train_cfg)
        meta = {
            "id": pid,
            "learner": entry["learner"],
            "reward_mode": entry["reward_mode"],
            "scheme": cfg.scheme_kind,
        }
        save_policy(policy, out / policy_file(pid), metadata=meta)
        outputs.append(out / policy_file(pid))
    return _write_manifest(out, "train_policy", cfg, seed, inputs, outputs)


def stage_rank(cfg: PipelineConfig, out: Path) -> dict:
    mode = cfg.eval_reward_mode
    inputs = [out / F_ABSTRACT, out / rewards_file(mode)] + [
        out / policy_file(e["id"]) for e in cfg.rl_grid]
    _require(inputs, "rank")
    seed = derive_seed(cfg.master_seed, "rank")
    eval_trajs = read_split(cfg, out, held_out=[mode])[1][mode]
    candidates = [load_policy(out / policy_file(entry["id"])) for entry in cfg.rl_grid]
    ranking = rank_policies(candidates, eval_trajs, cfg.rl_train, k=cfg.ope_k)
    report = {
        "eval_reward_mode": cfg.eval_reward_mode,
        "eval_scenarios": sorted(set(eval_trajs.scenario_ids)),
        "k": cfg.ope_k,
        "ranking": ranking,
    }
    write_json(out / F_RANKING, report, "ranking", indent=2)
    with atomic_open(out / F_RANKING_CSV, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "id", "scheme", "reward_mode", "learner",
                         "initial_value"])
        for entry in ranking:
            meta = entry["metadata"]
            writer.writerow([
                entry["rank"], entry["id"], meta.get("scheme", ""),
                meta.get("reward_mode", ""), meta.get("learner", ""),
                f"{entry['initial_value']:.6f}",
            ])
    return _write_manifest(out, "rank", cfg, seed, inputs,
                           [out / F_RANKING, out / F_RANKING_CSV])


def _compare_scenario_ids(cfg: PipelineConfig) -> list[str]:
    return [f"test-{i:03d}" for i in range(cfg.compare_scenarios)]


def stage_simulate(cfg: PipelineConfig, out: Path) -> dict:
    inputs = [out / F_SCHEME] + ([out / F_HMM] if cfg.with_hmm else []) + [
        out / policy_file(arm.policy_id) for arm in cfg.arms
    ]
    _require(inputs, "simulate")
    seed = derive_seed(cfg.master_seed, "simulate")
    scheme, hmm_model = load_scheme_runtime(out)
    # before the first episode, so that a malformed policy file stops the stage at once
    policies = {pid: load_policy(out / policy_file(pid))[0]
                for pid in {arm.policy_id for arm in cfg.arms}}
    scenarios = [
        generate_scenario(
            cfg.compare_scenario_cfg,
            derive_seed(cfg.master_seed, "simulate", "scenario", i),
            scenario_id=sid,
        )
        for i, sid in enumerate(_compare_scenario_ids(cfg))
    ]
    save_scenarios(scenarios, out / F_TEST_SCENARIOS)

    with corpus_writer(out / F_COMPARE_CORPUS) as write:
        all_rows = run_batch(scenarios, None, cfg.compare_episode_cfg,
                             cfg.compare_trials, seed, method_id="baseline", record=write)
        for arm in cfg.arms:
            plan = CePlan(policy=policies[arm.policy_id],
                          config=replace(cfg.ce, strategies=arm.strategies),
                          scheme=scheme, hmm=hmm_model)
            all_rows += run_batch(scenarios, plan, cfg.compare_episode_cfg, cfg.compare_trials,
                                  seed, method_id=arm.arm_id, record=write)
    with atomic_open(out / F_RESULTS, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "method_id", "trial", "rce_identification",
                         "fpc_accuracy", "turns_used", "entities_explored"])
        for row in all_rows:
            writer.writerow([
                row["scenario_id"], row["method_id"], row["trial"],
                f"{row['rce_identification']:.1f}", f"{row['fpc_accuracy']:.4f}",
                row["turns_used"], row["entities_explored"],
            ])
    return _write_manifest(
        out, "simulate", cfg, seed, inputs,
        [out / F_TEST_SCENARIOS, out / F_COMPARE_CORPUS, out / F_RESULTS],
    )


def read_results(path: Path) -> list[dict]:
    rows = []
    with reading(path, "results"), path.open() as fh:
        for record in csv.DictReader(fh):
            rows.append(
                {
                    "scenario_id": record["scenario_id"],
                    "method_id": record["method_id"],
                    "trial": int(record["trial"]),
                    "rce_identification": float(record["rce_identification"]),
                    "fpc_accuracy": float(record["fpc_accuracy"]),
                    "turns_used": int(record["turns_used"]),
                    "entities_explored": int(record["entities_explored"]),
                }
            )
    return rows


def _check_results(cfg: PipelineConfig, rows: list[dict], path: Path) -> None:
    """Every method (the baseline and each arm) has exactly one row per
    (test scenario, trial) that ``cfg`` implies; a truncated or padded table
    raises MalformedRecord naming ``path``."""
    want = {(m, s, t) for m in ["baseline", *(arm.arm_id for arm in cfg.arms)]
            for s in _compare_scenario_ids(cfg) for t in range(cfg.compare_trials)}
    got = Counter((r["method_id"], r["scenario_id"], r["trial"]) for r in rows)
    missing = len(want - got.keys())
    unexpected = len(got.keys() - want)
    repeated = sum(n - 1 for n in got.values())
    if missing or unexpected or repeated:
        raise MalformedRecord(
            f"results {path} do not match the config: of {len(want)} (method, scenario, "
            f"trial) rows, {missing} missing, {repeated} repeated, {unexpected} unexpected")


def stage_evaluate(cfg: PipelineConfig, out: Path) -> dict:
    _require([out / F_RESULTS], "evaluate")
    seed = derive_seed(cfg.master_seed, "evaluate")
    rows = read_results(out / F_RESULTS)
    _check_results(cfg, rows, out / F_RESULTS)

    methods = sorted({r["method_id"] for r in rows})
    scenarios = sorted({r["scenario_id"] for r in rows})
    trials: dict[str, dict[str, list[TrialRecord]]] = {
        m: {s: [] for s in scenarios} for m in methods
    }
    explored: dict[str, list[int]] = {m: [] for m in methods}
    turns: dict[str, list[int]] = {m: [] for m in methods}
    for r in rows:
        trials[r["method_id"]][r["scenario_id"]].append(
            TrialRecord(success=int(r["rce_identification"] >= 100.0),
                        f1=r["fpc_accuracy"] / 100.0)
        )
        explored[r["method_id"]].append(r["entities_explored"])
        turns[r["method_id"]].append(r["turns_used"])

    aggregate = {m: pass_at_3_bootstrap(trials[m]) for m in methods}
    per_scenario_recall = {m: np.asarray(aggregate[m].scenario_recalls) for m in methods}

    tests = paired_t_bonferroni(
        per_scenario_recall["baseline"],
        {m: per_scenario_recall[m] for m in methods if m != "baseline"},
        alpha=cfg.eval_alpha,
    )

    score_matrix = np.stack([per_scenario_recall[m] for m in methods])
    ranks = ranks_from_scores(score_matrix, higher_better=True)
    nemenyi = nemenyi_cd(ranks, methods, alpha=0.05 if cfg.eval_alpha <= 0.05 else 0.10)
    atomic_write_text(out / F_CD, render_cd_diagram(nemenyi) + "\n")

    report = {
        "alpha": cfg.eval_alpha,
        "methods": {},
        "nemenyi": {
            "cd": nemenyi.cd,
            "avg_ranks": {m: float(r) for m, r in zip(methods, nemenyi.avg_ranks)},
            "groups": [list(g) for g in nemenyi.groups],
        },
    }
    for m in methods:
        entry = {
            "pass3_recall_mean": aggregate[m].recall_mean,
            "pass3_recall_std": aggregate[m].recall_std,
            "pass3_f1_mean": aggregate[m].f1_mean,
            "pass3_f1_std": aggregate[m].f1_std,
            "mean_entities_explored": float(np.mean(explored[m])),
            "mean_turns": float(np.mean(turns[m])),
            "avg_rank": float(nemenyi.avg_ranks[methods.index(m)]),
        }
        if m != "baseline":
            entry.update(
                {
                    "t_stat": tests[m].t_stat,
                    "p_raw": tests[m].p_raw,
                    "p_adjusted": tests[m].p_adjusted,
                    "significant": tests[m].significant,
                }
            )
        report["methods"][m] = entry
    write_json(out / F_REPORT, report, "report", indent=2)

    with atomic_open(out / F_SUMMARY_CSV, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "method", "pass3_recall_mean", "pass3_recall_std", "pass3_f1_mean",
            "pass3_f1_std", "p_raw", "p_adjusted", "significant", "avg_rank",
            "mean_entities_explored", "mean_turns",
        ])
        for m in methods:
            e = report["methods"][m]
            writer.writerow([
                m, f"{e['pass3_recall_mean']:.4f}", f"{e['pass3_recall_std']:.4f}",
                f"{e['pass3_f1_mean']:.4f}", f"{e['pass3_f1_std']:.4f}",
                f"{e.get('p_raw', float('nan')):.3e}" if m != "baseline" else "",
                f"{e.get('p_adjusted', float('nan')):.3e}" if m != "baseline" else "",
                str(e.get("significant", "")), f"{e['avg_rank']:.3f}",
                f"{e['mean_entities_explored']:.3f}", f"{e['mean_turns']:.3f}",
            ])
    return _write_manifest(out, "evaluate", cfg, seed, [out / F_RESULTS],
                           [out / F_REPORT, out / F_SUMMARY_CSV, out / F_CD])


def robustness_sweep(cfg: PipelineConfig, out: Path,
                     counts=(100, 200, 300, 400)) -> dict:
    """Initial-value stability across successful-trajectory budgets.

    For each count, trains the reward-relabeled Q-learner and a behavior
    cloner on that many successful trajectories from the training split,
    then scores them all in one FQE call on the held-out split. Collects extra
    episodes on the training scenarios when the corpus lacks successes.
    """
    mode = cfg.eval_reward_mode
    _require([out / F_ABSTRACT, out / F_REWARD, out / rewards_file(mode),
              out / F_SCHEME] + ([out / F_HMM] if cfg.with_hmm else []), "robustness_sweep")
    net = load_reward_net(out / F_REWARD)
    train, held_out = read_split(cfg, out, train=["none"], held_out=[mode])
    train = train["none"]
    pool = train.select(np.flatnonzero(train.scores.rce_identification >= 100.0))

    needed = max(counts)
    if len(pool) < needed:
        pool = concat_tables([pool, _collect_extra_successes(cfg, out, needed - len(pool))])
    if len(pool) < needed:
        raise StageFailed("robustness_sweep",
                          RuntimeError(f"only {len(pool)} successful trajectories"))

    eval_table = build_transitions(held_out[mode])

    rng = np.random.default_rng(derive_seed(cfg.master_seed, "robustness_sweep"))
    order = rng.permutation(len(pool))

    policies = []
    for count in counts:
        subset = pool.select(order[:count])
        train_cfg = replace(cfg.rl_train,
                            seed=derive_seed(cfg.master_seed, "robustness_sweep", count))
        policies += [QPolicy(q=cql_train(relabel(subset, net, mode="irl"), train_cfg),
                             temperature=train_cfg.temperature),
                     bc_train(subset, train_cfg)]
    scores = [est.initial_value for est in fqe_many(policies, eval_table, cfg.rl_train)]
    values = {"rl_irl": scores[0::2], "bc": scores[1::2]}

    report = {
        "counts": list(counts),
        "initial_values": values,
        "range": {m: float(max(v) - min(v)) for m, v in values.items()},
    }
    write_json(out / "robustness.json", report, "robustness report", indent=2)
    return report


def _collect_extra_successes(cfg: PipelineConfig, out: Path, shortfall: int) -> MdpTables:
    """Top up the successful-trajectory pool from the training scenarios."""
    _, scenarios_path = _input_paths(cfg, out)
    scenarios = load_scenarios(scenarios_path)
    train_ids, _ = split_scenarios(cfg, [s.scenario_id for s in scenarios])
    train_scns = [s for s in scenarios if s.scenario_id in train_ids]
    spec, hmm_model = load_scheme_runtime(out)
    successes: list = []

    def keep_success(traj) -> None:
        if traj.scores.rce_identification >= 100.0:
            successes.append(traj)

    for round_no in range(8):
        if len(successes) >= shortfall:
            break
        run_batch(
            train_scns, None, cfg.collect_episode_cfg, trials=10,
            master_seed=derive_seed(cfg.master_seed, "robustness_sweep",
                                    "extra", round_no),
            method_id=f"sweep-extra-{round_no}", record=keep_success,
        )
    graphs = {s.scenario_id: s.graph for s in train_scns}
    return abstract(successes, spec, graphs, hmm_model)


# the stages in run order
STAGES = {
    "collect": stage_collect,
    "abstract": stage_abstract,
    "train_reward": stage_train_reward,
    "relabel": stage_relabel,
    "train_policy": stage_train_policy,
    "rank": stage_rank,
    "simulate": stage_simulate,
    "evaluate": stage_evaluate,
}


def stage_reproduce(cfg: PipelineConfig, out: Path) -> dict:
    """Run every stage in order, ``collect`` only when the corpus or the
    scenarios are missing, and write an overall summary."""
    out.mkdir(parents=True, exist_ok=True)
    manifests = {}
    for name, fn in STAGES.items():
        if name == "collect" and all(p.exists() for p in _input_paths(cfg, out)):
            continue
        try:
            manifests[name] = fn(cfg, out)
        except Exception as exc:
            if isinstance(exc, (MissingArtifact, ConfigInvalid)):
                raise
            raise StageFailed(name, exc) from exc

    report = read_json(out / F_REPORT, "report")
    summary = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "methods": report["methods"],
        "nemenyi": report["nemenyi"],
        "artifacts": {
            name: manifest["outputs"] for name, manifest in manifests.items()
        },
    }
    write_json(out / F_SUMMARY, summary, "summary", indent=2)
    return summary
