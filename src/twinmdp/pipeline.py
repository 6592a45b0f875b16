"""End-to-end workflow stages with content-hashed, reproducible artifacts.

Each stage reads files, writes files plus a manifest (input/output hashes,
config hash, derived seed), and nothing else, so any stage can be re-run in
isolation and must reproduce its artifacts byte for byte. A single master
seed fans out to per-stage seeds through stable hashing.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .abstraction import (
    AbstractTrajectory,
    SchemeSpec,
    TopologyFeaturizer,
    abstract,
    augment_with_hmm,
    build_vocabulary,
    hmm_observations,
    load_abstract_corpus,
    save_abstract_corpus,
)
from .context import CeConfig
from .errors import ConfigInvalid, MissingArtifact, StageFailed
from .hmm import Hmm, fit_hmm, sequence_log_likelihood
from .offline_rl import (
    CandidateSet,
    QPolicy,
    TrainConfig,
    bc_train,
    cql_train,
    load_policy,
    save_policy,
)
from .ope import rank_policies
from .reward_learning import (
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
from .trajectories import load_corpus, save_corpus

STAGES = (
    "collect",
    "abstract",
    "train_reward",
    "relabel",
    "train_policy",
    "rank",
    "simulate",
    "evaluate",
)

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


def relabeled_file(mode: str) -> str:
    return f"relabeled_{mode}.jsonl"


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

@dataclass
class ArmSpec:
    arm_id: str
    policy_id: str
    strategies: tuple[str, ...]


@dataclass
class PipelineConfig:
    raw: dict
    master_seed: int
    corpus_path: str | None
    scenarios_path: str | None
    scheme_kind: str
    with_hubs: bool
    with_hmm: bool
    hmm_states: int
    hmm_select_from: tuple[int, ...] | None
    sentinel: float | None
    collect_scenarios: int
    collect_episodes: int
    collect_scenario_cfg: ScenarioConfig
    collect_episode_cfg: EpisodeConfig
    irl_signal: str
    irl_margin: float
    irl_max_pairs: int
    irl_train: RewardTrainConfig
    rl_train: TrainConfig
    rl_grid: list[dict]
    ope_holdout: float
    ope_k: int
    eval_reward_mode: str
    combined_blend: float
    ce_suggest_percentile: float
    ce_prune_percentile: float
    compare_scenarios: int
    compare_trials: int
    compare_scenario_cfg: ScenarioConfig
    compare_episode_cfg: EpisodeConfig
    arms: list[ArmSpec]
    eval_n_boot: int
    eval_alpha: float


def _get(cfg: dict, path: str, default=None):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return default
        cur = cur[part]
    return cur


def validate_config(raw: dict) -> PipelineConfig:
    """Check every field before any stage runs; all problems are reported."""
    problems: list[str] = []

    def need(path, typ, default=None, pred=None, desc=""):
        value = _get(raw, path, default)
        if value is None:
            problems.append(f"{path}: missing")
            return default
        if typ is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, typ):
            problems.append(f"{path}: expected {typ.__name__}, got {type(value).__name__}")
            return default
        if pred is not None and not pred(value):
            problems.append(f"{path}: {desc}")
            return default
        return value

    master_seed = need("master_seed", int, 0, lambda v: v >= 0, "must be >= 0")
    scheme_kind = need("scheme.kind", str, "topology",
                       lambda v: v in ("name", "nametype", "topology"),
                       "must be name, nametype, or topology")
    with_hubs = need("scheme.with_hubs", bool, False)
    with_hmm = need("scheme.with_hmm", bool, False)
    hmm_states = need("scheme.hmm_states", int, 4, lambda v: v >= 1, "must be >= 1")
    select_from = _get(raw, "scheme.hmm_select_from")
    if select_from is not None and (
        not isinstance(select_from, list) or not all(isinstance(k, int) for k in select_from)
    ):
        problems.append("scheme.hmm_select_from: expected a list of ints")
        select_from = None
    sentinel = _get(raw, "scheme.unreachable_sentinel")
    if sentinel is not None and not isinstance(sentinel, (int, float)):
        problems.append("scheme.unreachable_sentinel: expected a number or null")
        sentinel = None
    if scheme_kind != "topology" and (with_hubs or with_hmm):
        problems.append("scheme.with_hubs/with_hmm: require scheme.kind = topology")

    def scenario_cfg(prefix):
        return ScenarioConfig(
            n_nodes=need(f"{prefix}.n_nodes", int, 12, lambda v: v >= 2, "must be >= 2"),
            edge_density=need(f"{prefix}.edge_density", float, 0.08,
                              lambda v: 0 <= v < 1, "must be in [0, 1)"),
            chain_length=need(f"{prefix}.chain_length", int, 4,
                              lambda v: v >= 2, "must be >= 2"),
            evidence_noise=need(f"{prefix}.evidence_noise", float, 0.1,
                                lambda v: 0 <= v < 1, "must be in [0, 1)"),
        )

    def episode_cfg(prefix):
        return EpisodeConfig(
            max_turns=need(f"{prefix}.max_turns", int, 12, lambda v: v >= 1,
                           "must be >= 1"),
            epsilon=need(f"{prefix}.epsilon", float, 0.3,
                         lambda v: 0 <= v <= 1, "must be in [0, 1]"),
            suggestion_uptake=need(f"{prefix}.suggestion_uptake", float, 0.8,
                                   lambda v: 0 <= v <= 1, "must be in [0, 1]"),
        )

    collect_scenario = scenario_cfg("collect.scenario")
    collect_episode = episode_cfg("collect.episode")
    collect_scenarios = need("collect.n_scenarios", int, 24, lambda v: v >= 1,
                             "must be >= 1")
    collect_episodes = need("collect.episodes_per_scenario", int, 30,
                            lambda v: v >= 1, "must be >= 1")
    if collect_scenario.n_nodes < collect_scenario.chain_length:
        problems.append("collect.scenario.n_nodes: must be >= chain_length")

    irl_signal = need("irl.signal", str, "mean_fpc_rce",
                      lambda v: v in ("fpc_only", "mean_fpc_rce"),
                      "must be fpc_only or mean_fpc_rce")
    irl_margin = need("irl.margin", float, 5.0, lambda v: v >= 0, "must be >= 0")
    irl_max_pairs = need("irl.max_pairs", int, 3000, lambda v: v >= 1, "must be >= 1")
    irl_train = RewardTrainConfig(
        hidden_units=need("irl.hidden_units", int, 16, lambda v: v >= 1, "must be >= 1"),
        epochs=need("irl.epochs", int, 60, lambda v: v >= 1, "must be >= 1"),
        step_size=need("irl.step_size", float, 1e-3, lambda v: v > 0, "must be > 0"),
        batch_size=need("irl.batch_size", int, 32, lambda v: v >= 1, "must be >= 1"),
        seed=derive_seed(master_seed, "train_reward"),
        discount=need("irl.discount", float, 1.0, lambda v: 0 < v <= 1,
                      "must be in (0, 1]"),
    )

    rl_train = TrainConfig(
        alpha=need("rl.alpha", float, 1.0, lambda v: v >= 0, "must be >= 0"),
        gamma=need("rl.gamma", float, 0.95, lambda v: 0 <= v < 1, "must be in [0, 1)"),
        iterations=need("rl.iterations", int, 3000, lambda v: v >= 1, "must be >= 1"),
        step_size=need("rl.step_size", float, 1e-3, lambda v: v > 0, "must be > 0"),
        batch_size=need("rl.batch_size", int, 64, lambda v: v >= 1, "must be >= 1"),
        seed=derive_seed(master_seed, "train_policy"),
        hidden_units=need("rl.hidden_units", int, 16, lambda v: v >= 1, "must be >= 1"),
        target_refresh=need("rl.target_refresh", int, 200, lambda v: v >= 1,
                            "must be >= 1"),
        temperature=need("rl.temperature", float, 1.0, lambda v: v > 0, "must be > 0"),
    )
    grid = _get(raw, "rl.grid") or [
        {"id": "rl_irl", "learner": "cql", "reward_mode": "irl"},
        {"id": "rl_sparse", "learner": "cql", "reward_mode": "sparse"},
        {"id": "bc", "learner": "bc", "reward_mode": "none"},
    ]
    for i, entry in enumerate(grid):
        if entry.get("learner") not in ("cql", "bc"):
            problems.append(f"rl.grid[{i}].learner: must be cql or bc")
        if entry.get("learner") == "cql" and entry.get("reward_mode") not in (
            "irl", "sparse", "combined",
        ):
            problems.append(f"rl.grid[{i}].reward_mode: must be irl, sparse, or combined")
        if not entry.get("id"):
            problems.append(f"rl.grid[{i}].id: missing")
        elif entry["id"] in (e.get("id") for e in grid[:i]):
            problems.append(f"rl.grid[{i}].id: duplicate {entry['id']!r}")

    ope_holdout = need("ope.holdout_fraction", float, 0.25,
                       lambda v: 0 < v < 1, "must be in (0, 1)")
    ope_k = need("ope.k", int, 3, lambda v: v >= 1, "must be >= 1")
    eval_reward_mode = need("ope.eval_reward_mode", str, "sparse",
                            lambda v: v in ("irl", "sparse", "combined"),
                            "must be irl, sparse, or combined")
    combined_blend = need("rl.combined_blend", float, 1.0, lambda v: v >= 0,
                          "must be >= 0")

    suggest_pct = need("ce.suggest_percentile", float, 95.0,
                       lambda v: 0 < v <= 100, "must be in (0, 100]")
    prune_pct = need("ce.prune_percentile", float, 85.0,
                     lambda v: 0 <= v < 100, "must be in [0, 100)")

    compare_scenario = scenario_cfg("compare.scenario")
    compare_episode = episode_cfg("compare.episode")
    compare_scenarios = need("compare.n_scenarios", int, 20, lambda v: v >= 2,
                             "must be >= 2")
    compare_trials = need("compare.trials", int, 15, lambda v: v >= 3, "must be >= 3")

    arm_entries = _get(raw, "compare.arms") or [
        {"id": "rl_irl+suggest", "policy": "rl_irl", "strategies": ["suggest"]},
        {"id": "rl_irl+prune", "policy": "rl_irl", "strategies": ["prune"]},
        {"id": "rl_irl+prioritize", "policy": "rl_irl", "strategies": ["prioritize"]},
        {"id": "rl_sparse+prioritize", "policy": "rl_sparse",
         "strategies": ["prioritize"]},
        {"id": "bc+prioritize", "policy": "bc", "strategies": ["prioritize"]},
    ]
    if len(arm_entries) > MAX_ARMS:
        problems.append(f"compare.arms: at most {MAX_ARMS} arms, got {len(arm_entries)}")
    policy_ids = {entry.get("id") for entry in grid}
    arms = []
    for i, entry in enumerate(arm_entries):
        strategies = tuple(entry.get("strategies", ()))
        if not strategies or any(s not in ("suggest", "prune", "prioritize")
                                 for s in strategies):
            problems.append(
                f"compare.arms[{i}].strategies: subset of suggest/prune/prioritize, "
                "non-empty"
            )
        if entry.get("policy") not in policy_ids:
            problems.append(f"compare.arms[{i}].policy: not in rl.grid ids")
        if not entry.get("id"):
            problems.append(f"compare.arms[{i}].id: missing")
        elif entry["id"] in (e.get("id") for e in arm_entries[:i]):
            problems.append(f"compare.arms[{i}].id: duplicate {entry['id']!r}")
        arms.append(ArmSpec(arm_id=str(entry.get("id")),
                            policy_id=str(entry.get("policy")),
                            strategies=strategies))

    n_boot = need("eval.n_boot", int, 200, lambda v: v >= 1, "must be >= 1")
    alpha = need("eval.alpha", float, 0.05, lambda v: 0 < v < 1, "must be in (0, 1)")

    if problems:
        raise ConfigInvalid(problems)

    return PipelineConfig(
        raw=raw,
        master_seed=master_seed,
        corpus_path=_get(raw, "paths.corpus"),
        scenarios_path=_get(raw, "paths.scenarios"),
        scheme_kind=scheme_kind,
        with_hubs=with_hubs,
        with_hmm=with_hmm,
        hmm_states=hmm_states,
        hmm_select_from=tuple(select_from) if select_from else None,
        sentinel=float(sentinel) if sentinel is not None else None,
        collect_scenarios=collect_scenarios,
        collect_episodes=collect_episodes,
        collect_scenario_cfg=collect_scenario,
        collect_episode_cfg=collect_episode,
        irl_signal=irl_signal,
        irl_margin=irl_margin,
        irl_max_pairs=irl_max_pairs,
        irl_train=irl_train,
        rl_train=rl_train,
        rl_grid=grid,
        ope_holdout=ope_holdout,
        ope_k=ope_k,
        eval_reward_mode=eval_reward_mode,
        combined_blend=combined_blend,
        ce_suggest_percentile=suggest_pct,
        ce_prune_percentile=prune_pct,
        compare_scenarios=compare_scenarios,
        compare_trials=compare_trials,
        compare_scenario_cfg=compare_scenario,
        compare_episode_cfg=compare_episode,
        arms=arms,
        eval_n_boot=n_boot,
        eval_alpha=alpha,
    )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid([f"config file {path} does not exist"])
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        raw = yaml.safe_load(text)
    else:
        raw = json.loads(text)
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
    (out / f"{stage}.manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
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
    rows = run_batch(scenarios, None, cfg.collect_episode_cfg,
                     cfg.collect_episodes, seed, method_id="collect")
    trajectories = [row["result"].trajectory for row in rows]
    save_scenarios(scenarios, out / F_TRAIN_SCENARIOS)
    save_corpus(trajectories, out / F_TRAIN_CORPUS)
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
    """Abstract the raw corpus under the configured scheme."""
    corpus_path, scenarios_path = _input_paths(cfg, out)
    _require([corpus_path, scenarios_path], "abstract")
    seed = derive_seed(cfg.master_seed, "abstract")
    corpus = load_corpus(corpus_path)
    scenarios = {s.scenario_id: s for s in load_scenarios(scenarios_path)}
    sentinel = resolve_sentinel(cfg)

    vocabulary: tuple = ()
    if cfg.scheme_kind == "topology":
        featurizers = {
            sid: TopologyFeaturizer(s.graph, sentinel, cfg.with_hubs)
            for sid, s in scenarios.items()
        }
        abstracted = []
        for traj in corpus:
            spec = SchemeSpec(kind="topology", with_hubs=cfg.with_hubs,
                              unreachable_sentinel=sentinel)
            abstracted.append(abstract(traj, spec,
                                       featurizer=featurizers[traj.scenario_id]))
    else:
        vocabulary = build_vocabulary(
            corpus, cfg.scheme_kind, graphs=[s.graph for s in scenarios.values()]
        )
        spec = SchemeSpec(kind=cfg.scheme_kind, vocabulary=vocabulary)
        abstracted = [abstract(traj, spec) for traj in corpus]

    outputs = []
    hmm_model: Hmm | None = None
    chosen_states = cfg.hmm_states
    if cfg.with_hmm:
        sequences = [hmm_observations(t) for t in abstracted]
        hmm_model, chosen_states = _fit_or_select_hmm(cfg, sequences, seed)
        abstracted = [augment_with_hmm(t, hmm_model) for t in abstracted]
        (out / F_HMM).write_text(json.dumps({
            "n_states": chosen_states,
            "initial": hmm_model.initial.tolist(),
            "transition": hmm_model.transition.tolist(),
            "means": hmm_model.means.tolist(),
            "variances": hmm_model.variances.tolist(),
        }, sort_keys=True) + "\n")
        outputs.append(out / F_HMM)

    save_abstract_corpus(abstracted, out / F_ABSTRACT)
    (out / F_SCHEME).write_text(json.dumps({
        "kind": cfg.scheme_kind,
        "with_hubs": cfg.with_hubs,
        "with_hmm": cfg.with_hmm,
        "hmm_states": chosen_states,
        "sentinel": sentinel,
        "vocabulary": [list(v) if isinstance(v, tuple) else v for v in vocabulary],
    }, sort_keys=True) + "\n")
    outputs.extend([out / F_ABSTRACT, out / F_SCHEME])
    return _write_manifest(out, "abstract", cfg, seed,
                           [corpus_path, scenarios_path], outputs)


def _fit_or_select_hmm(cfg: PipelineConfig, sequences, seed: int) -> tuple[Hmm, int]:
    candidates = cfg.hmm_select_from or (cfg.hmm_states,)
    if len(candidates) == 1:
        model, _ = fit_hmm(sequences, candidates[0], seed=seed)
        return model, candidates[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(sequences))
    n_val = max(1, len(sequences) // 5)
    val = [sequences[i] for i in order[:n_val]]
    train = [sequences[i] for i in order[n_val:]]
    best = None
    for k in candidates:
        model, _ = fit_hmm(train, k, seed=seed)
        score = sum(sequence_log_likelihood(model, s) for s in val)
        if best is None or score > best[0]:
            best = (score, model, k)
    return best[1], best[2]


def load_scheme_runtime(out: Path) -> tuple[SchemeSpec, Hmm | None]:
    """The scheme spec (and HMM, if any) as used at intervention time."""
    obj = json.loads((out / F_SCHEME).read_text())
    vocabulary = tuple(
        tuple(v) if isinstance(v, list) else v for v in obj["vocabulary"]
    )
    spec = SchemeSpec(
        kind=obj["kind"],
        vocabulary=vocabulary,
        with_hubs=obj["with_hubs"],
        with_hmm=obj["with_hmm"],
        hmm_states=obj["hmm_states"],
        unreachable_sentinel=obj["sentinel"],
    )
    hmm_model = None
    if obj["with_hmm"]:
        hobj = json.loads((out / F_HMM).read_text())
        hmm_model = Hmm(
            initial=np.asarray(hobj["initial"], dtype=float),
            transition=np.asarray(hobj["transition"], dtype=float),
            means=np.asarray(hobj["means"], dtype=float),
            variances=np.asarray(hobj["variances"], dtype=float),
        )
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


def stage_train_reward(cfg: PipelineConfig, out: Path) -> dict:
    _require([out / F_ABSTRACT], "train_reward")
    seed = derive_seed(cfg.master_seed, "train_reward")
    trajs = load_abstract_corpus(out / F_ABSTRACT)
    train_ids, _ = split_scenarios(cfg, [t.scenario_id for t in trajs])
    train_trajs = [t for t in trajs if t.scenario_id in train_ids]
    pairs = build_pairs(
        [(t, t.scores) for t in train_trajs],
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
    modes = {entry["reward_mode"] for entry in cfg.rl_grid
             if entry["learner"] == "cql"}
    modes.add(cfg.eval_reward_mode)
    modes.discard("none")
    return sorted(modes)


def relabel_mode(traj: AbstractTrajectory, mode: str, net, blend: float):
    if mode == "irl":
        return relabel(traj, net, mode="irl")
    if mode == "sparse":
        return relabel(traj, None, mode="sparse",
                       outcome=traj.scores.rce_identification)
    return relabel(traj, net, mode="combined",
                   outcome=traj.scores.rce_identification, blend=blend)


def stage_relabel(cfg: PipelineConfig, out: Path) -> dict:
    modes = _needed_reward_modes(cfg)
    inputs = [out / F_ABSTRACT]
    net = None
    if any(m in ("irl", "combined") for m in modes):
        inputs.append(out / F_REWARD)
    _require(inputs, "relabel")
    seed = derive_seed(cfg.master_seed, "relabel")
    trajs = load_abstract_corpus(out / F_ABSTRACT)
    if (out / F_REWARD) in inputs:
        net = load_reward_net(out / F_REWARD)
    outputs = []
    for mode in modes:
        relabeled = [relabel_mode(t, mode, net, cfg.combined_blend) for t in trajs]
        save_abstract_corpus(relabeled, out / relabeled_file(mode))
        outputs.append(out / relabeled_file(mode))
    return _write_manifest(out, "relabel", cfg, seed, inputs, outputs)


def stage_train_policy(cfg: PipelineConfig, out: Path) -> dict:
    modes = _needed_reward_modes(cfg)
    inputs = [out / F_ABSTRACT] + [out / relabeled_file(m) for m in modes
                                   if m != "none"]
    _require(inputs, "train_policy")
    seed = derive_seed(cfg.master_seed, "train_policy")
    outputs = []
    corpora: dict[str, list[AbstractTrajectory]] = {}

    def corpus_for(mode: str) -> list[AbstractTrajectory]:
        if mode not in corpora:
            path = out / F_ABSTRACT if mode == "none" else out / relabeled_file(mode)
            trajs = load_abstract_corpus(path)
            train_ids, _ = split_scenarios(cfg, [t.scenario_id for t in trajs])
            corpora[mode] = [t for t in trajs if t.scenario_id in train_ids]
        return corpora[mode]

    for entry in cfg.rl_grid:
        pid = entry["id"]
        train_cfg = replace(cfg.rl_train,
                            seed=derive_seed(cfg.master_seed, "train_policy", pid))
        if entry["learner"] == "cql":
            trajs = corpus_for(entry["reward_mode"])
            qfun = cql_train(trajs, train_cfg, CandidateSet())
            policy = QPolicy(q=qfun, temperature=train_cfg.temperature)
        else:
            trajs = corpus_for("none")
            policy = bc_train(trajs, train_cfg, CandidateSet())
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
    eval_path = out / relabeled_file(cfg.eval_reward_mode)
    inputs = [eval_path] + [out / policy_file(e["id"]) for e in cfg.rl_grid]
    _require(inputs, "rank")
    seed = derive_seed(cfg.master_seed, "rank")
    trajs = load_abstract_corpus(eval_path)
    _, eval_ids = split_scenarios(cfg, [t.scenario_id for t in trajs])
    eval_trajs = [t for t in trajs if t.scenario_id in eval_ids]
    candidates = []
    for entry in cfg.rl_grid:
        policy, meta = load_policy(out / policy_file(entry["id"]))
        candidates.append((policy, meta))
    fqe_cfg = replace(cfg.rl_train, alpha=0.0,
                      seed=derive_seed(cfg.master_seed, "rank", "fqe"))
    ranking = rank_policies(candidates, eval_trajs, fqe_cfg, k=cfg.ope_k)
    report = {
        "eval_reward_mode": cfg.eval_reward_mode,
        "eval_scenarios": sorted(eval_ids),
        "k": cfg.ope_k,
        "ranking": ranking,
    }
    (out / F_RANKING).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with (out / F_RANKING_CSV).open("w", newline="") as fh:
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


def stage_simulate(cfg: PipelineConfig, out: Path) -> dict:
    inputs = [out / F_SCHEME] + [
        out / policy_file(arm.policy_id) for arm in cfg.arms
    ]
    _require(inputs, "simulate")
    seed = derive_seed(cfg.master_seed, "simulate")
    scheme, hmm_model = load_scheme_runtime(out)
    scenarios = [
        generate_scenario(
            cfg.compare_scenario_cfg,
            derive_seed(cfg.master_seed, "simulate", "scenario", i),
            scenario_id=f"test-{i:03d}",
        )
        for i in range(cfg.compare_scenarios)
    ]
    save_scenarios(scenarios, out / F_TEST_SCENARIOS)

    all_rows = run_batch(scenarios, None, cfg.compare_episode_cfg,
                         cfg.compare_trials, seed, method_id="baseline")
    for arm in cfg.arms:
        policy, _ = load_policy(out / policy_file(arm.policy_id))
        plan = CePlan(
            policy=policy,
            config=CeConfig(
                strategies=arm.strategies,
                suggest_percentile=cfg.ce_suggest_percentile,
                prune_percentile=cfg.ce_prune_percentile,
            ),
            scheme=scheme,
            hmm=hmm_model,
        )
        all_rows.extend(
            run_batch(scenarios, plan, cfg.compare_episode_cfg,
                      cfg.compare_trials, seed, method_id=arm.arm_id)
        )

    trajectories = [row["result"].trajectory for row in all_rows]
    save_corpus(trajectories, out / F_COMPARE_CORPUS)
    with (out / F_RESULTS).open("w", newline="") as fh:
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
    with path.open() as fh:
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


def stage_evaluate(cfg: PipelineConfig, out: Path) -> dict:
    _require([out / F_RESULTS], "evaluate")
    seed = derive_seed(cfg.master_seed, "evaluate")
    rows = read_results(out / F_RESULTS)

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

    aggregate = {}
    per_scenario_recall = {}
    per_scenario_f1 = {}
    for m in methods:
        aggregate[m] = pass_at_3_bootstrap(
            trials[m], n_boot=cfg.eval_n_boot,
            seed=derive_seed(cfg.master_seed, "evaluate", m),
        )
        recalls = []
        f1s = []
        for s in scenarios:
            cell = pass_at_3_bootstrap(
                {s: trials[m][s]}, n_boot=cfg.eval_n_boot,
                seed=derive_seed(cfg.master_seed, "evaluate", m, s),
            )
            recalls.append(cell.recall_mean)
            f1s.append(cell.f1_mean)
        per_scenario_recall[m] = np.asarray(recalls)
        per_scenario_f1[m] = np.asarray(f1s)

    tests = paired_t_bonferroni(
        per_scenario_recall["baseline"],
        {m: per_scenario_recall[m] for m in methods if m != "baseline"},
        alpha=cfg.eval_alpha,
    )

    score_matrix = np.stack([per_scenario_recall[m] for m in methods])
    ranks = ranks_from_scores(score_matrix, higher_better=True)
    nemenyi = nemenyi_cd(ranks, methods, alpha=0.05 if cfg.eval_alpha <= 0.05 else 0.10)
    (out / F_CD).write_text(render_cd_diagram(nemenyi) + "\n")

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
    (out / F_REPORT).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")

    with (out / F_SUMMARY_CSV).open("w", newline="") as fh:
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
    cloner on that many successful trajectories from the training split and
    scores both by FQE on the held-out split. Collects extra episodes on the
    training scenarios when the corpus does not hold enough successes.
    """
    _require([out / F_ABSTRACT, out / F_REWARD,
              out / relabeled_file(cfg.eval_reward_mode)], "robustness_sweep")
    net = load_reward_net(out / F_REWARD)
    trajs = load_abstract_corpus(out / F_ABSTRACT)
    train_ids, eval_ids = split_scenarios(cfg, [t.scenario_id for t in trajs])
    pool = [t for t in trajs if t.scenario_id in train_ids
            and t.scores.rce_identification >= 100.0]

    needed = max(counts)
    if len(pool) < needed:
        pool = pool + _collect_extra_successes(cfg, out, needed - len(pool))
    if len(pool) < needed:
        raise StageFailed("robustness_sweep",
                          RuntimeError(f"only {len(pool)} successful trajectories"))

    eval_all = load_abstract_corpus(out / relabeled_file(cfg.eval_reward_mode))
    eval_trajs = [t for t in eval_all if t.scenario_id in eval_ids]

    rng = np.random.default_rng(derive_seed(cfg.master_seed, "robustness_sweep"))
    order = rng.permutation(len(pool))
    fqe_cfg = replace(cfg.rl_train, alpha=0.0,
                      seed=derive_seed(cfg.master_seed, "robustness_sweep", "fqe"))
    from .ope import fqe  # local import avoids a cycle at module load

    values: dict[str, list[float]] = {"rl_irl": [], "bc": []}
    for count in counts:
        subset = [pool[i] for i in order[:count]]
        relabeled = [relabel(t, net, mode="irl") for t in subset]
        train_cfg = replace(cfg.rl_train,
                            seed=derive_seed(cfg.master_seed, "robustness_sweep", count))
        rl_policy = QPolicy(q=cql_train(relabeled, train_cfg, CandidateSet()),
                            temperature=train_cfg.temperature)
        bc_policy = bc_train(subset, train_cfg, CandidateSet())
        values["rl_irl"].append(
            fqe(rl_policy, eval_trajs, fqe_cfg, policy_id=f"rl_irl@{count}").initial_value
        )
        values["bc"].append(
            fqe(bc_policy, eval_trajs, fqe_cfg, policy_id=f"bc@{count}").initial_value
        )

    report = {
        "counts": list(counts),
        "initial_values": values,
        "range": {m: float(max(v) - min(v)) for m, v in values.items()},
    }
    (out / "robustness.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    return report


def _collect_extra_successes(cfg: PipelineConfig, out: Path, shortfall: int) -> list:
    """Top up the successful-trajectory pool from the training scenarios."""
    _, scenarios_path = _input_paths(cfg, out)
    scenarios = load_scenarios(scenarios_path)
    train_ids, _ = split_scenarios(cfg, [s.scenario_id for s in scenarios])
    train_scns = [s for s in scenarios if s.scenario_id in train_ids]
    sentinel = resolve_sentinel(cfg)
    featurizers = {
        s.scenario_id: TopologyFeaturizer(s.graph, sentinel, cfg.with_hubs)
        for s in train_scns
    } if cfg.scheme_kind == "topology" else {}
    vocabulary: tuple = ()
    if cfg.scheme_kind != "topology":
        corpus_path, _ = _input_paths(cfg, out)
        vocabulary = build_vocabulary(load_corpus(corpus_path), cfg.scheme_kind,
                                      graphs=[s.graph for s in scenarios])

    extra: list = []
    hmm_model = None
    if cfg.with_hmm:
        _, hmm_model = load_scheme_runtime(out)
    for round_no in range(8):
        if len(extra) * 1 >= shortfall:
            break
        rows = run_batch(
            train_scns, None, cfg.collect_episode_cfg, trials=10,
            master_seed=derive_seed(cfg.master_seed, "robustness_sweep",
                                    "extra", round_no),
            method_id=f"sweep-extra-{round_no}",
        )
        for row in rows:
            traj = row["result"].trajectory
            if traj.scores.rce_identification < 100.0:
                continue
            if cfg.scheme_kind == "topology":
                spec = SchemeSpec(kind="topology", with_hubs=cfg.with_hubs,
                                  unreachable_sentinel=sentinel)
                abstracted = abstract(traj, spec,
                                      featurizer=featurizers[traj.scenario_id])
            else:
                spec = SchemeSpec(kind=cfg.scheme_kind, vocabulary=vocabulary)
                abstracted = abstract(traj, spec)
            if hmm_model is not None:
                abstracted = augment_with_hmm(abstracted, hmm_model)
            extra.append(abstracted)
    return extra


def stage_reproduce(cfg: PipelineConfig, out: Path) -> dict:
    """Run every stage in order and write an overall summary."""
    out.mkdir(parents=True, exist_ok=True)
    corpus_path, scenarios_path = _input_paths(cfg, out)
    stages = []
    if not (corpus_path.exists() and scenarios_path.exists()):
        stages.append(("collect", stage_collect))
    stages.extend([
        ("abstract", stage_abstract),
        ("train_reward", stage_train_reward),
        ("relabel", stage_relabel),
        ("train_policy", stage_train_policy),
        ("rank", stage_rank),
        ("simulate", stage_simulate),
        ("evaluate", stage_evaluate),
    ])
    manifests = {}
    for name, fn in stages:
        try:
            manifests[name] = fn(cfg, out)
        except Exception as exc:
            if isinstance(exc, (MissingArtifact, ConfigInvalid)):
                raise
            raise StageFailed(name, exc) from exc

    report = json.loads((out / F_REPORT).read_text())
    summary = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg.master_seed,
        "methods": report["methods"],
        "nemenyi": report["nemenyi"],
        "artifacts": {
            name: manifest["outputs"] for name, manifest in manifests.items()
        },
    }
    (out / F_SUMMARY).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary
