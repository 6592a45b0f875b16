import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (abstract_from_json, abstract_line_via_dicts, abstract_per_trajectory,
                     held_closed_loop, step_rows_by_bytes, transitions_by_search)

from twinmdp import abstraction, pipeline, simulator, trajectories
from twinmdp.abstraction import AbstractStep, AbstractTrajectory, load_abstract_corpus
from twinmdp.cli import main as cli_main
from twinmdp.context import CeConfig
from twinmdp.errors import ConfigInvalid, MalformedRecord, MissingArtifact
from twinmdp.nets import Mlp
from twinmdp.offline_rl import NetworkQ, TrainConfig, build_transitions, load_policy
from twinmdp.ope import fqe
from twinmdp.pipeline import (
    MAX_ARMS,
    SCHEMA,
    derive_seed,
    load_config,
    robustness_sweep,
    split_scenarios,
    stage_abstract,
    stage_collect,
    stage_rank,
    stage_relabel,
    stage_reproduce,
    stage_simulate,
    stage_train_policy,
    stage_train_reward,
    validate_config,
)
from twinmdp.reward_learning import (RewardTrainConfig, StepRows, build_pairs, encode_step_rows,
                                     load_reward_net, pair_accuracy, relabel)
from twinmdp.simulator import EpisodeConfig, ScenarioConfig, load_scenarios
from twinmdp.trajectories import Entity, JudgeScores, load_corpus

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "master_seed": 11,
    "scheme": {"kind": "topology"},
    "collect": {
        "n_scenarios": 6,
        "episodes_per_scenario": 8,
        "scenario": {"n_nodes": 8, "edge_density": 0.08, "chain_length": 3,
                     "evidence_noise": 0.05},
        "episode": {"max_turns": 6, "epsilon": 0.5, "suggestion_uptake": 0.8},
    },
    "irl": {"signal": "mean_fpc_rce", "margin": 5.0, "max_pairs": 400,
            "hidden_units": 8, "epochs": 8, "step_size": 0.001,
            "batch_size": 16, "discount": 0.9},
    "rl": {
        "alpha": 1.0, "gamma": 0.6, "iterations": 400, "step_size": 0.001,
        "batch_size": 32, "hidden_units": 8, "target_refresh": 100,
        "temperature": 1.0, "combined_blend": 1.0,
        "grid": [
            {"id": "rl_irl", "learner": "cql", "reward_mode": "irl"},
            {"id": "bc", "learner": "bc", "reward_mode": "none"},
        ],
    },
    "ope": {"holdout_fraction": 0.25, "k": 2, "eval_reward_mode": "sparse"},
    "ce": {"suggest_percentile": 95, "prune_percentile": 85},
    "compare": {
        "n_scenarios": 4,
        "trials": 3,
        "scenario": {"n_nodes": 8, "edge_density": 0.08, "chain_length": 3,
                     "evidence_noise": 0.05},
        "episode": {"max_turns": 6, "epsilon": 0.5, "suggestion_uptake": 0.8},
        "arms": [
            {"id": "rl_irl+prioritize", "policy": "rl_irl",
             "strategies": ["prioritize"]},
            {"id": "bc+prioritize", "policy": "bc", "strategies": ["prioritize"]},
        ],
    },
    "eval": {"alpha": 0.05},
}


def load_perfbench_module(name: str):
    """Import ``perfbench/<name>.py`` by path; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_config():
    return validate_config(json.loads(json.dumps(SMALL_CONFIG)))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    summary = stage_reproduce(small_config(), out)
    return out, summary


@pytest.fixture(scope="module")
def enriched_run(tmp_path_factory):
    """``SMALL_CONFIG`` with hub features and a two-state HMM, reproduced."""
    raw = json.loads(json.dumps(SMALL_CONFIG))
    raw["scheme"] = {"kind": "topology", "with_hubs": True, "with_hmm": True,
                     "hmm_states": 2}
    out = tmp_path_factory.mktemp("enriched")
    summary = stage_reproduce(validate_config(raw), out)
    return raw, out, summary


@pytest.fixture(scope="module")
def nametype_run(tmp_path_factory):
    """``SMALL_CONFIG`` under the nametype scheme, reproduced."""
    raw = json.loads(json.dumps(SMALL_CONFIG))
    raw["scheme"] = {"kind": "nametype"}
    out = tmp_path_factory.mktemp("nametype")
    summary = stage_reproduce(validate_config(raw), out)
    return raw, out, summary


class TestConfigValidation:
    def test_valid_config_loads(self):
        cfg = small_config()
        assert cfg.master_seed == 11
        assert cfg.scheme_kind == "topology"

    def test_all_problems_reported_with_paths(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["rl"]["gamma"] = 1.5
        raw["ce"]["prune_percentile"] = 120
        raw["compare"]["arms"][0]["policy"] = "missing_policy"
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        text = str(exc.value)
        assert "rl.gamma" in text
        assert "ce.prune_percentile" in text
        assert "compare.arms[0].policy" in text

    @pytest.mark.parametrize("flag", ["with_hubs", "with_hmm"])
    def test_non_bool_scheme_flag_rejected(self, flag):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"][flag] = "false"
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert f"scheme.{flag}" in str(exc.value)

    def test_duplicate_grid_id_rejected(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["rl"]["grid"].append({"id": "bc", "learner": "cql", "reward_mode": "irl"})
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert "rl.grid[2].id: duplicate" in str(exc.value)

    def test_duplicate_arm_id_rejected(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        arm = dict(raw["compare"]["arms"][0], policy="bc")
        raw["compare"]["arms"].append(arm)
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert "compare.arms[2].id: duplicate" in str(exc.value)

    def test_more_arms_than_the_nemenyi_table_rejected(self):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["compare"]["arms"] = [
            {"id": f"arm{i}", "policy": "rl_irl", "strategies": ["prioritize"]}
            for i in range(MAX_ARMS + 1)
        ]
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert "compare.arms: at most 9 arms" in str(exc.value)
        raw["compare"]["arms"].pop()
        assert len(validate_config(raw).arms) == 9

    def test_omitted_keys_take_the_library_defaults(self):
        cfg = validate_config({})
        assert replace(cfg.irl_train, seed=0) == RewardTrainConfig()
        assert replace(cfg.rl_train, seed=0) == TrainConfig()
        assert cfg.collect_scenario_cfg == cfg.compare_scenario_cfg == ScenarioConfig()
        assert cfg.collect_episode_cfg == cfg.compare_episode_cfg == EpisodeConfig()
        assert cfg.ce == CeConfig()
        pairs = inspect.signature(build_pairs).parameters
        assert cfg.irl_signal == pairs["signal"].default
        assert cfg.irl_margin == pairs["margin"].default
        assert cfg.irl_max_pairs == pairs["max_pairs"].default

    # each top-level key that has allowed values or an interval, a value
    # outside them, and its problem, word for word
    OUT_OF_RANGE = {
        "master_seed": (-1, "[0, inf)"),
        "scheme.kind": ("graph", "name, nametype, topology"),
        "scheme.hmm_states": (0, "[1, inf)"),
        "collect.n_scenarios": (1, "[2, inf)"),
        "collect.episodes_per_scenario": (0, "[1, inf)"),
        "irl.signal": ("fpc", "fpc_only, mean_fpc_rce"),
        "irl.margin": (-0.5, "[0, inf)"),
        "irl.max_pairs": (0, "[1, inf)"),
        "rl.combined_blend": (-1.0, "[0, inf)"),
        "ope.holdout_fraction": (1.0, "(0, 1)"),
        "ope.k": (0, "[1, inf)"),
        "ope.eval_reward_mode": ("dense", "irl, sparse, combined"),
        "compare.n_scenarios": (1, "[2, inf)"),
        "compare.trials": (2, "[3, inf)"),
        "eval.alpha": (0.0, "(0, 1)"),
    }

    def test_out_of_range_cases_cover_every_top_level_key_with_allowed_values(self):
        ranged_keys = {path for path, (_, _, spec, _, sub) in SCHEMA.items()
                       if spec is not None and sub is None}
        assert ranged_keys == set(self.OUT_OF_RANGE)

    @pytest.mark.parametrize("path", sorted(OUT_OF_RANGE))
    def test_out_of_range_top_level_key_rejected_with_its_allowed_values(self, path):
        bad, spec = self.OUT_OF_RANGE[path]
        raw = json.loads(json.dumps(SMALL_CONFIG))
        *sections, name = path.split(".")
        node = raw
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = bad
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert exc.value.problems == [f"{path}: must be in {spec}"]

    @pytest.mark.parametrize("edit, path", [
        (lambda raw: raw["irl"].update(hiden_units=8), "irl.hiden_units"),
        (lambda raw: raw.update(training={"epochs": 3}), "training"),
        (lambda raw: raw.update(irl=5), "irl"),
        (lambda raw: raw["rl"].update(iterations=True), "rl.iterations"),
        (lambda raw: raw.update(master_seed=True), "master_seed"),
        (lambda raw: raw["compare"]["scenario"].update(n_nodes=2), "compare.scenario.n_nodes"),
        (lambda raw: raw["rl"]["grid"].append("rl_sparse"), "rl.grid[2]"),
        (lambda raw: raw["rl"]["grid"][1].pop("reward_mode"), "rl.grid[1].reward_mode"),
        (lambda raw: raw["compare"]["arms"][0].update(strategy=["prune"]),
         "compare.arms[0].strategy"),
        (lambda raw: raw["scheme"].update(with_hmm=True, hmm_select_from=[2, 3]),
         "scheme.hmm_select_from"),
        (lambda raw: raw["collect"].update(n_scenarios=1), "collect.n_scenarios"),
        (lambda raw: raw["eval"].update(n_boot=200), "eval.n_boot"),
    ], ids=["typo_key", "unknown_section", "section_not_a_mapping", "bool_for_int",
            "bool_for_master_seed", "compare_nodes_below_chain", "grid_entry_not_a_mapping",
            "bc_without_reward_mode", "arm_unknown_key", "retired_scheme_hmm_select_from",
            "one_collect_scenario", "retired_eval_n_boot"])
    def test_malformed_config_rejected_with_its_path(self, edit, path):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        edit(raw)
        with pytest.raises(ConfigInvalid) as exc:
            validate_config(raw)
        assert any(p.startswith(f"{path}: ") for p in exc.value.problems), exc.value

    @pytest.mark.parametrize("cls, key, field_name, bad", [
        (TrainConfig, "rl", "batch_size", 0), (TrainConfig, "rl", "hidden_units", 0),
        (TrainConfig, "rl", "step_size", -1.0), (TrainConfig, "rl", "iterations", -5),
        (TrainConfig, "rl", "gamma", 1.0), (TrainConfig, "rl", "target_refresh", 0),
        (RewardTrainConfig, "irl", "discount", 0.0), (RewardTrainConfig, "irl", "batch_size", 0),
        (RewardTrainConfig, "irl", "holdout_fraction", 1.5),
        (CeConfig, "ce", "suggest_percentile", 0.0), (CeConfig, "ce", "prune_percentile", 100.0),
    ])
    def test_library_train_configs_fail_early_like_config_files(self, cls, key, field_name,
                                                                bad):
        spec = {f.name: f.metadata.get("range") for f in fields(cls)}[field_name]
        with pytest.raises(MalformedRecord, match=rf"^{field_name} must be in "):
            cls(**{field_name: bad})
        path = f"{key}.{field_name}"
        if path in SCHEMA:  # a config-file key: the same interval, the same message
            assert SCHEMA[path][2] == spec  # the key's interval is its field's
            raw = json.loads(json.dumps(SMALL_CONFIG))
            raw[key][field_name] = bad
            with pytest.raises(ConfigInvalid) as exc:
                validate_config(raw)
            assert f"{path}: must be in {spec}" in exc.value.problems

    def test_shipped_and_benchmark_configs_validate(self):
        load_config(ROOT / "configs" / "demo.yaml")
        workloads = load_perfbench_module("workloads")
        for workload in workloads.WORKLOADS:
            for raw in workloads.make_inputs(ROOT, workload, 7):
                validate_config(raw)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_CONFIG))
        cfg = load_config(path)
        assert cfg.compare_trials == 3

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "nope.yaml")


class TestStages:
    def test_reproduce_produces_all_artifacts(self, finished_run):
        out, summary = finished_run
        for name in (
            "train_corpus.jsonl", "train_scenarios.jsonl", "abstract_corpus.jsonl",
            "scheme_runtime.json", "reward_net.json", "rewards_irl.jsonl",
            "rewards_sparse.jsonl", "policy_rl_irl.json", "policy_bc.json",
            "ranking.json", "ranking.csv", "test_scenarios.jsonl", "results.csv",
            "compare_corpus.jsonl", "report.json", "summary.csv", "summary.json",
            "cd_diagram.txt",
        ):
            assert (out / name).exists(), name
        assert not list(out.glob("relabeled_*"))
        assert "baseline" in summary["methods"]
        assert "rl_irl+prioritize" in summary["methods"]

    def test_manifests_record_hashes(self, finished_run):
        out, _ = finished_run
        manifest = json.loads((out / "abstract.manifest.json").read_text())
        assert manifest["stage"] == "abstract"
        assert "abstract_corpus.jsonl" in manifest["outputs"]
        assert all(len(h) == 64 for h in manifest["outputs"].values())

    def test_missing_artifact_error(self, tmp_path):
        with pytest.raises(MissingArtifact):
            stage_abstract(small_config(), tmp_path)

    def test_ranking_lists_k_policies(self, finished_run):
        out, _ = finished_run
        ranking = json.loads((out / "ranking.json").read_text())
        assert len(ranking["ranking"]) == 2  # k=2, grid of 2
        assert [e["rank"] for e in ranking["ranking"]] == [1, 2]

    def test_stage_isolation(self, finished_run, tmp_path):
        # deleting a downstream artifact and re-running just that stage
        # reproduces the identical bytes
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        want = (clone / "reward_net.json").read_bytes()
        (clone / "reward_net.json").unlink()
        stage_train_reward(small_config(), clone)
        assert (clone / "reward_net.json").read_bytes() == want

    def test_robustness_sweep_equals_one_policy_fqe_loops(self, finished_run, tmp_path,
                                                          monkeypatch):
        # the sweep scores its 8 policies in one FQE call; the file is byte
        # for byte the one that one FQE fit per policy writes
        out, _ = finished_run
        together, one_by_one = tmp_path / "together", tmp_path / "one_by_one"
        for copy in (together, one_by_one):
            shutil.copytree(out, copy)
        counts = (10, 20, 40, 80)
        robustness_sweep(small_config(), together, counts=counts)

        def per_policy(policies, table, cfg, tol=1e-5, **_):
            return [fqe(p, table, cfg, tol=tol) for p in policies]

        monkeypatch.setattr(pipeline, "fqe_many", per_policy)
        robustness_sweep(small_config(), one_by_one, counts=counts)
        want = (one_by_one / "robustness.json").read_bytes()
        assert (together / "robustness.json").read_bytes() == want
        assert len(json.loads(want)["initial_values"]["bc"]) == len(counts)

    def test_each_scenario_graph_gets_one_featurizer(self, finished_run, tmp_path,
                                                     monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        builds = []
        original = abstraction.TopologyFeaturizer.__init__

        def counting(self, graph, *args, **kwargs):
            builds.append(graph)
            original(self, graph, *args, **kwargs)

        monkeypatch.setattr(abstraction.TopologyFeaturizer, "__init__", counting)
        for stage, scenarios in ((stage_abstract, "train_scenarios.jsonl"),
                                 (stage_simulate, "test_scenarios.jsonl")):
            builds.clear()
            stage(small_config(), clone)
            graphs = {scn.graph for scn in load_scenarios(clone / scenarios)}
            assert len(builds) == len(graphs) and set(builds) == graphs, stage.__name__

    @pytest.mark.parametrize("stage,damaged", [("rank", "policy_bc.json"),
                                               ("relabel", "reward_net.json"),
                                               ("train_reward", "abstract_corpus.jsonl"),
                                               ("simulate", "scheme_runtime.json")])
    def test_a_truncated_artifact_is_reported_not_raised(self, finished_run, tmp_path,
                                                         capsys, stage, damaged):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        text = (clone / damaged).read_text()
        (clone / damaged).write_text(text[: len(text) // 2])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        assert cli_main([stage, "--config", str(cfg_path), "--out", str(clone)]) == 1
        err = capsys.readouterr().err
        assert damaged in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["truncated", "duplicated"])
    def test_an_incomplete_results_table_is_reported(self, finished_run, tmp_path, capsys,
                                                     damage):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        header, *rows = (clone / "results.csv").read_text().splitlines(keepends=True)
        assert len(rows) == 3 * 4 * 3  # baseline and two arms, 4 scenarios, 3 trials
        kept = rows[: len(rows) // 2] if damage == "truncated" else rows + rows[-1:]
        (clone / "results.csv").write_text(header + "".join(kept))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--out", str(clone)]) == 1
        err = capsys.readouterr().err
        assert "results.csv" in err and "Traceback" not in err
        assert (clone / "report.json").read_bytes() == (out / "report.json").read_bytes()

    def test_results_table_has_all_arms(self, finished_run):
        out, _ = finished_run
        text = (out / "results.csv").read_text()
        for method in ("baseline", "rl_irl+prioritize", "bc+prioritize"):
            assert method in text


def recording_episodes(monkeypatch) -> list:
    """The number of finished episodes' trajectories alive as each later
    ``run_episode`` call starts, one entry per call from here on. The
    trajectories are held weakly, keyed by call (they are unhashable)."""
    live, alive_at_start = weakref.WeakValueDictionary(), []
    run_episode = simulator.run_episode

    def tracking(*args, **kwargs):
        alive_at_start.append(len(live))
        res = run_episode(*args, **kwargs)
        live[len(alive_at_start)] = res.trajectory
        return res

    monkeypatch.setattr(simulator, "run_episode", tracking)
    return alive_at_start


class TestStreamedClosedLoop:
    """``collect`` and ``simulate`` write each episode's corpus line as the
    episode ends, and the files equal those of holding every episode."""

    @pytest.mark.parametrize("run", ["enriched_run", "nametype_run"])
    def test_streamed_files_equal_the_held_construction(self, run, request, tmp_path):
        raw, out, _ = request.getfixturevalue(run)
        cfg = validate_config(raw)
        held_closed_loop(cfg, out, tmp_path)
        for name in ("train_corpus.jsonl", "compare_corpus.jsonl", "results.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
        lines = (out / "compare_corpus.jsonl").read_bytes().splitlines()
        assert len(lines) == cfg.compare_scenarios * cfg.compare_trials * (1 + len(cfg.arms))

    def test_a_stage_holds_at_most_one_finished_episode(self, finished_run, tmp_path,
                                                        monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        alive_at_start = recording_episodes(monkeypatch)
        cfg = small_config()
        for stage, episodes in ((stage_collect, 6 * 8), (stage_simulate, 3 * 4 * 3)):
            alive_at_start.clear()
            stage(cfg, clone)
            assert len(alive_at_start) == episodes
            assert max(alive_at_start) <= 1, stage.__name__
        for name in ("train_corpus.jsonl", "compare_corpus.jsonl", "results.csv"):
            assert (clone / name).read_bytes() == (out / name).read_bytes(), name

    def test_an_episode_that_raises_leaves_the_previous_files(self, finished_run, tmp_path,
                                                              monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        calls = recording_episodes(monkeypatch)
        run_episode = simulator.run_episode

        def failing(*args, **kwargs):
            if len(calls) == 20:  # an arm's episode, after the baseline's 12
                raise RuntimeError("episode failed")
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_episode", failing)
        with pytest.raises(RuntimeError, match="episode failed"):
            stage_simulate(small_config(), clone)
        assert len(calls) == 20
        for name in ("compare_corpus.jsonl", "results.csv"):
            assert (clone / name).read_bytes() == (out / name).read_bytes(), name
        assert not list(clone.glob(".*.tmp"))

    def test_a_truncated_policy_fails_before_the_first_episode(self, finished_run, tmp_path,
                                                                monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        text = (clone / "policy_bc.json").read_text()
        (clone / "policy_bc.json").write_text(text[: len(text) // 2])
        calls = recording_episodes(monkeypatch)
        with pytest.raises(MalformedRecord, match="policy_bc.json"):
            stage_simulate(small_config(), clone)
        assert calls == []


class TestRewardColumns:
    """Each reward mode is a reward file over the one abstract corpus."""

    def test_a_reward_file_holds_each_trajectory_s_relabeled_rewards(self, finished_run):
        out, _ = finished_run
        corpus = load_abstract_corpus(out / "abstract_corpus.jsonl")
        net = load_reward_net(out / "reward_net.json")
        for mode in ("irl", "sparse"):
            lines = (out / f"rewards_{mode}.jsonl").read_text().splitlines()
            want = [relabel([t], net, mode, t.scores.rce_identification, 1.0)[0]
                    for t in corpus]
            assert lines == [json.dumps({"rewards": [s.reward for s in t.steps],
                                         "trajectory_id": t.trajectory_id}, sort_keys=True)
                             for t in want]

    def test_the_modes_share_one_parse_of_the_corpus(self, finished_run, tmp_path,
                                                     monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["rl"]["grid"].append({"id": "rl_sparse", "learner": "cql", "reward_mode": "sparse"})
        cfg = validate_config(raw)
        calls = []
        for name in ("load_abstract_corpus", "save_abstract_corpus"):
            def counting(*args, _name=name, _fn=getattr(pipeline, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(pipeline, name, counting)
        stage_relabel(cfg, clone)
        assert calls == ["load_abstract_corpus"]
        calls.clear()
        train, _ = pipeline.read_split(cfg, clone, train=["none", "irl", "sparse"])
        assert calls == ["load_abstract_corpus"]
        steps = [[s for t in trajs for s in t.steps] for trajs in train.values()]
        for other in steps[1:]:
            assert all(a.state is b.state and a.candidates is b.candidates
                       for a, b in zip(steps[0], other))
        calls.clear()
        stage_train_policy(cfg, clone)
        assert calls == ["load_abstract_corpus"]
        for pid in ("rl_irl", "bc"):
            name = f"policy_{pid}.json"
            assert (clone / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("stage,name", [("train_policy", "rewards_irl.jsonl"),
                                            ("rank", "rewards_sparse.jsonl")])
    @pytest.mark.parametrize("damage", ["truncated", "swapped_id", "short_list", "extra_line",
                                        "not_a_number"])
    def test_a_reward_file_that_does_not_match_the_corpus_is_reported(
            self, finished_run, tmp_path, capsys, stage, name, damage):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        lines = (clone / name).read_text().splitlines()
        if damage == "truncated":
            bad, lines = len(lines), lines[:-1]
        elif damage == "swapped_id":
            bad, lines[0], lines[1] = 1, lines[1], lines[0]
        elif damage == "short_list":
            obj = json.loads(lines[2])
            obj["rewards"] = obj["rewards"][:-1]
            bad, lines[2] = 3, json.dumps(obj, sort_keys=True)
        elif damage == "extra_line":
            bad, lines = len(lines) + 1, lines + lines[-1:]
        else:  # every line is checked, not only those of the split a stage reads
            bad, lines[3] = 4, lines[3].replace('"rewards": [', '"rewards": ["x", ', 1)
        (clone / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match=name) as exc:
            {"train_policy": stage_train_policy, "rank": stage_rank}[stage](small_config(),
                                                                           clone)
        assert exc.value.line == bad
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        assert cli_main([stage, "--config", str(cfg_path), "--out", str(clone)]) == 1
        err = capsys.readouterr().err
        assert f"line {bad}: " in err and name in err and "Traceback" not in err


def test_abstract_compares_no_two_equal_entity_objects(finished_run, tmp_path, monkeypatch):
    # the corpus's entities are the graphs' node objects, so every set and
    # dict lookup of the featurizers stops at identity
    out, _ = finished_run
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    equal_but_distinct = []
    eq = Entity.__eq__

    def recording(self, other):
        if self is not other and eq(self, other):
            equal_but_distinct.append(self)
        return eq(self, other)

    monkeypatch.setattr(Entity, "__eq__", recording)
    stage_abstract(small_config(), clone)
    monkeypatch.undo()
    assert equal_but_distinct == []
    name = "abstract_corpus.jsonl"
    assert (clone / name).read_bytes() == (out / name).read_bytes()


class TestStreamedAbstraction:
    """``abstract`` reads the raw corpus into the tables one trajectory at a
    time, and no stage builds per-trajectory views."""

    def test_the_stage_holds_at_most_one_finished_raw_trajectory(self, finished_run, tmp_path,
                                                                 monkeypatch):
        out, _ = finished_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        live, alive_at_start = weakref.WeakValueDictionary(), []
        decode = trajectories.trajectory_from_json

        def tracking(*args):
            alive_at_start.append(len(live))
            traj = decode(*args)
            live[len(alive_at_start)] = traj
            return traj

        monkeypatch.setattr(trajectories, "trajectory_from_json", tracking)
        stage_abstract(small_config(), clone)
        assert len(alive_at_start) == 6 * 8
        assert max(alive_at_start) <= 1
        name = "abstract_corpus.jsonl"
        assert (clone / name).read_bytes() == (out / name).read_bytes()

    def test_no_stage_builds_an_abstract_trajectory(self, tmp_path, monkeypatch):
        built = []
        init = AbstractTrajectory.__init__

        def recording(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["trajectory_id"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(AbstractTrajectory, "__init__", recording)
        stage_reproduce(small_config(), tmp_path)
        assert (tmp_path / "summary.json").exists()
        assert built == []

    @pytest.mark.parametrize("kind", ["name", "nametype", "topology"])
    def test_a_corpus_entity_of_no_graph_names_the_file_and_line(self, finished_run, tmp_path,
                                                                 kind):
        # the name scheme alone would take a known name of another type
        out, _ = finished_run
        for name in ("train_corpus.jsonl", "train_scenarios.jsonl"):
            shutil.copy(out / name, tmp_path / name)
        lines = (tmp_path / "train_corpus.jsonl").read_text().splitlines()
        obj = json.loads(lines[4])
        obj["symptom_entity"]["etype"] = "Stranger"
        lines[4] = json.dumps(obj, sort_keys=True)
        (tmp_path / "train_corpus.jsonl").write_text("\n".join(lines) + "\n")
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"] = {"kind": kind}
        with pytest.raises(MalformedRecord, match="train_corpus.jsonl: entity .* is a node of "
                                                  "no scenario graph") as exc:
            stage_abstract(validate_config(raw), tmp_path)
        assert exc.value.line == 5 and str(exc.value).startswith("line 5: ")


def test_a_small_nametype_collect_serves_ids_that_training_never_saw(tmp_path):
    """``configs/demo.yaml`` at master seed 1 under ``nametype`` with a small
    collect: a tabular policy meets candidate ids past its Q columns in
    ``simulate``, values them at 0, and the pipeline writes its summary."""
    raw = load_config(ROOT / "configs" / "demo.yaml").raw
    raw = json.loads(json.dumps(raw))
    raw["master_seed"] = 1
    raw["scheme"]["kind"] = "nametype"
    raw["collect"].update(n_scenarios=3, episodes_per_scenario=4)
    raw["collect"]["episode"]["max_turns"] = 2
    raw["irl"]["epochs"] = 2
    raw["rl"]["iterations"] = 50
    raw["compare"].update(n_scenarios=4, trials=3)
    cfg = validate_config(raw)
    stage_reproduce(cfg, tmp_path)
    assert (tmp_path / "summary.json").exists()
    served = max(len(load_policy(tmp_path / f"policy_{e['id']}.json")[0].q.q[0])
                 for e in cfg.rl_grid)
    vocabulary = json.loads((tmp_path / "scheme_runtime.json").read_text())["vocabulary"]
    assert served < len(vocabulary)


def run_fresh_interpreter(args: list[str]) -> subprocess.CompletedProcess:
    """``python *args`` in a new process with this checkout's ``src`` first on
    ``PYTHONPATH``, under a string-hash seed other than this process's, so a
    result that leaned on the iteration order of a set or a dict of strings
    would not reproduce there. A fixed ``PYTHONHASHSEED`` n becomes n + 1;
    with none, or ``random``, this process's seed is random and the child's
    is 1."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    seed = env.get("PYTHONHASHSEED", "random")
    env["PYTHONHASHSEED"] = str((int(seed) + 1) % 2**32) if seed.isdigit() else "1"
    return subprocess.run([sys.executable, *args], check=True, env=env,
                          capture_output=True, text=True)


def assert_a_new_process_reproduces(raw: dict, out1: Path, tmp_path: Path) -> None:
    """``twinmdp reproduce`` of ``raw`` in a fresh interpreter writes the
    output hashes of the run in ``out1``."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out2 = tmp_path / "subprocess"
    run_fresh_interpreter(["-m", "twinmdp.cli", "reproduce",
                           "--config", str(cfg_path), "--out", str(out2)])
    manifests = sorted(p.name for p in out1.glob("*.manifest.json"))
    assert manifests == sorted(p.name for p in out2.glob("*.manifest.json"))
    assert len(manifests) == 8
    for name in manifests:
        want = json.loads((out1 / name).read_text())["outputs"]
        assert json.loads((out2 / name).read_text())["outputs"] == want, name


def test_a_new_process_hashes_strings_under_another_seed():
    proc = run_fresh_interpreter(["-c", "print(hash('twinmdp'))"])
    assert int(proc.stdout) != hash("twinmdp")


def test_import_loads_neither_scipy_stats_nor_scipy_cluster():
    # each CLI stage is a new process that pays for ``import twinmdp``, and
    # no stage needs scipy: not scipy.stats or scipy.cluster, nor any other
    proc = run_fresh_interpreter(["-c", "import sys, twinmdp; print(sorted(m for m in "
                                  "sys.modules if m.startswith('scipy')))"])
    assert proc.stdout.strip() == "[]"


def test_a_run_with_scipy_blocked_reaches_its_summary(tmp_path):
    # ``sys.modules["scipy"] = None`` makes every scipy import raise; a
    # three-state HMM runs the k-means, and evaluate the paired t-tests
    raw = json.loads(json.dumps(SMALL_CONFIG))
    raw["scheme"] = {"kind": "topology", "with_hmm": True, "hmm_states": 3}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(raw))
    run_fresh_interpreter(["-c", "import json, sys; sys.modules['scipy'] = None; "
                           "from pathlib import Path; "
                           "from twinmdp.pipeline import stage_reproduce, validate_config; "
                           "cfg, out = map(Path, sys.argv[1:]); "
                           "stage_reproduce(validate_config(json.loads(cfg.read_text())), out)",
                           str(cfg_path), str(out)])
    assert (out / "summary.json").exists()
    assert len(json.loads((out / "hmm_model.json").read_text())["initial"]) == 3


class TestDeterminism:
    def test_reproduce_twice_identical_hashes(self, tmp_path, finished_run):
        out1, summary1 = finished_run
        out2 = tmp_path / "second"
        summary2 = stage_reproduce(small_config(), out2)
        assert summary1["artifacts"] == summary2["artifacts"]
        for name in ("results.csv", "report.json", "abstract_corpus.jsonl"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_reproduce_in_a_new_process_gives_identical_hashes(self, tmp_path,
                                                              finished_run):
        out1, _ = finished_run
        assert_a_new_process_reproduces(SMALL_CONFIG, out1, tmp_path)

    def test_hubs_and_hmm_reproduce_in_a_new_process_gives_identical_hashes(
            self, tmp_path, enriched_run):
        # the plain topology run above never reaches the serving-time HMM path
        raw, out1, _ = enriched_run
        assert_a_new_process_reproduces(raw, out1, tmp_path)

    def test_nametype_reproduce_in_a_new_process_gives_identical_hashes(
            self, tmp_path, nametype_run):
        # the two runs above train network learners; index actions take
        # tabular CQL, BC and FQE
        raw, out1, _ = nametype_run
        assert_a_new_process_reproduces(raw, out1, tmp_path)

    def test_seed_derivation_is_stable_and_labelled(self):
        assert derive_seed(7, "collect") == derive_seed(7, "collect")
        assert derive_seed(7, "collect") != derive_seed(7, "abstract")
        assert derive_seed(7, "collect") != derive_seed(8, "collect")


class TestSchemeVariants:
    def test_hub_and_hidden_state_features_flow_through(self, enriched_run):
        _, out, summary = enriched_run
        assert (out / "hmm_model.json").exists()
        scheme = json.loads((out / "scheme_runtime.json").read_text())
        assert scheme["with_hubs"] and scheme["with_hmm"]
        # state = 2 distance features + 2 hidden-state bits; action = 4 + hub
        tables = json.loads((out / "abstract_corpus.jsonl").read_text())
        assert {len(row) for row in tables["states"]} == {4}
        assert {len(row) for row in tables["actions"]} == {5}
        assert "baseline" in summary["methods"]

    def test_simulate_declares_the_hmm_model(self, enriched_run, tmp_path, capsys):
        raw, out, _ = enriched_run
        manifest = json.loads((out / "simulate.manifest.json").read_text())
        assert "hmm_model.json" in manifest["inputs"]
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        (clone / "hmm_model.json").unlink()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = cli_main(["simulate", "--config", str(cfg_path), "--out", str(clone)])
        assert code == 3
        assert "hmm_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["scheme_runtime.json", "hmm_model.json"])
    def test_robustness_sweep_declares_the_scheme_runtime(self, enriched_run, tmp_path,
                                                          missing):
        """The sweep may collect extra episodes, which read the scheme runtime."""
        raw, out, _ = enriched_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        (clone / missing).unlink()
        with pytest.raises(MissingArtifact, match=missing):
            robustness_sweep(validate_config(raw), clone, counts=(4,))

    def test_an_hmm_model_of_mismatched_shapes_fails_before_the_first_episode(
            self, enriched_run, tmp_path, monkeypatch):
        # two states, one variances row: serving would broadcast it silently
        raw, out, _ = enriched_run
        clone = tmp_path / "clone"
        shutil.copytree(out, clone)
        model = json.loads((clone / "hmm_model.json").read_text())
        model["variances"] = model["variances"][:1]
        (clone / "hmm_model.json").write_text(json.dumps(model))
        calls = recording_episodes(monkeypatch)
        with pytest.raises(MalformedRecord, match="hmm_model.json"):
            stage_simulate(validate_config(raw), clone)
        assert calls == []

    def test_name_scheme_runs_with_tabular_policies(self, tmp_path):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"] = {"kind": "name"}
        cfg = validate_config(raw)
        out = tmp_path / "names"
        summary = stage_reproduce(cfg, out)
        policy = json.loads((out / "policy_rl_irl.json").read_text())
        assert policy["form"] == "tabular"
        scheme = json.loads((out / "scheme_runtime.json").read_text())
        assert scheme["vocabulary"], "vocabulary should cover the node names"
        assert "rl_irl+prioritize" in summary["methods"]


class TestRobustnessTopUp:
    """The sweep's extra episodes are abstracted like the training corpus."""

    @pytest.mark.parametrize("scheme", [{"kind": "nametype"},
                                        {"kind": "topology", "with_hmm": True,
                                         "hmm_states": 2}],
                             ids=["nametype", "topology_hmm"])
    def test_extra_trajectories_match_the_corpus_widths(self, scheme, tmp_path,
                                                        monkeypatch):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"] = scheme
        cfg = validate_config(raw)
        for stage in (stage_collect, stage_abstract, stage_train_reward, stage_relabel):
            stage(cfg, tmp_path)
        corpus = load_abstract_corpus(tmp_path / "abstract_corpus.jsonl")
        train_ids, _ = split_scenarios(cfg, [t.scenario_id for t in corpus])
        pool = sum(t.scenario_id in train_ids and t.scores.rce_identification >= 100.0
                   for t in corpus)

        extra = []
        collect_extra = pipeline._collect_extra_successes

        def recording(*args):
            got = collect_extra(*args)
            extra.extend(got)
            return got

        monkeypatch.setattr(pipeline, "_collect_extra_successes", recording)
        sweep = robustness_sweep(cfg, tmp_path, counts=(4, pool + 20))
        assert len(extra) >= 20
        assert all(len(v) == 2 for v in sweep["initial_values"].values())
        state_width = corpus[0].steps[0].state.shape
        action_width = np.asarray(corpus[0].steps[0].action).shape
        for traj in extra:
            assert traj.scheme == scheme["kind"]
            for step in traj.steps:
                assert step.state.shape == state_width
                assert np.asarray(step.action).shape == action_width
                assert all(np.asarray(c).shape == action_width for c in step.candidates)


def test_benchmark_trace_targets_exist(tmp_path):
    """Every function and method the benchmark tracer wraps can be installed,
    and a traced run of the benchmark's worker passes its own checks: the
    hooks take their calls' arguments, and the worker's pair accuracy reads
    the run's abstract corpus."""
    tracer_module = load_perfbench_module("tracer")
    worker = load_perfbench_module("worker")
    abstract_fn = abstraction.abstract
    init = abstraction.TopologyFeaturizer.__dict__["__init__"]
    tracer = tracer_module.Tracer()
    cfg, out = small_config(), tmp_path / "run"
    try:
        tracer_module.install(tracer)
        assert abstraction.abstract is not abstract_fn
        rep = worker.run_once(pipeline, cfg, out, tracer=tracer)
    finally:
        tracer.uninstall()
    assert abstraction.abstract is abstract_fn
    assert abstraction.TopologyFeaturizer.__dict__["__init__"] is init
    assert rep["problems"] == [] and list(rep["stage_s"]) == list(worker.STAGES)
    layers = tracer_module.layer_metrics(tracer, worker.STAGES)
    train = pipeline.read_split(cfg, out, train=["none"])[0]["none"]
    assert layers["pipeline.abstract.s"] > 0 and layers["abstraction.corpus_io.s"] > 0
    assert tracer.counts["reward_learning.train_trajs"] == len(train)
    accuracy = worker.reward_pair_accuracy(pipeline, cfg, out)
    pairs = build_pairs([(t, t.scores) for t in train], signal=cfg.irl_signal,
                        margin=cfg.irl_margin, max_pairs=cfg.irl_max_pairs,
                        seed=derive_seed(cfg.master_seed, "train_reward"))
    net = load_reward_net(out / "reward_net.json")
    assert accuracy == pair_accuracy(net, pairs, train, cfg.irl_train.discount)


class TestPackedLayout:
    """The learners' packed step table against the serving and reward encoders."""

    @pytest.fixture(scope="class", params=[{"kind": "topology", "with_hubs": True},
                                           {"kind": "nametype"}],
                    ids=["topology_hubs", "nametype"])
    def corpus(self, request, tmp_path_factory):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"] = request.param
        out = tmp_path_factory.mktemp("layout")
        cfg = validate_config(raw)
        stage_collect(cfg, out)
        stage_abstract(cfg, out)
        return load_abstract_corpus(out / "abstract_corpus.jsonl")

    def test_candidate_rows_equal_serving_encoding(self, corpus):
        table = build_transitions(corpus)
        rows = table.rows(table.encoding)
        serving = NetworkQ(Mlp(rows.shape[1], 4), table.states.shape[1],
                           table.encoding, gamma=0.9)
        steps = [step for traj in corpus for step in traj.steps]
        assert table.n == len(steps)
        for i, step in enumerate(steps):
            lo, hi = table.corpus.cand_offsets[i], table.corpus.cand_offsets[i + 1]
            assert np.array_equal(rows[lo:hi], serving.encode(step.state, step.candidates))
            assert np.array_equal(rows[table.taken[i]],
                                  serving.encode(step.state, [step.action])[0])

    def test_taken_rows_equal_reward_rows(self, corpus):
        table = build_transitions(corpus)
        encoding = table.encoding
        if table.index_actions:  # reward rows one-hot over the state's vocabulary
            encoding = {"kind": "onehot", "size": table.states.shape[1]}
        want = np.concatenate([encode_step_rows(t) for t in corpus])
        assert np.array_equal(table.rows(encoding)[table.taken], want)


def assert_bits(got, want) -> None:
    """Equal shapes and equal bytes, int and float alike."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype.kind == want.dtype.kind
    assert got.astype(want.dtype).tobytes() == want.tobytes()


def assert_laid_out_as_by_search(tables, trajs) -> None:
    """``build_transitions`` and ``StepRows.pack`` of packed ``tables`` equal,
    bit for bit, what the per-step construction (``oracles``) makes of the
    same steps as ``trajs``."""
    table, want = build_transitions(tables), transitions_by_search(trajs)
    for name in ("states", "cand_rows", "row_id", "taken"):
        assert_bits(getattr(table, name), want[name])
    assert_bits(table.corpus.cand_offsets, want["cand_offsets"])
    index, ids = table.state_ids
    assert list(index.items()) == list(want["state_ids"][0].items())
    assert_bits(ids, want["state_ids"][1])
    rows, want = StepRows.pack(tables), step_rows_by_bytes(trajs)
    for name in ("rows", "row_id", "offsets"):
        assert_bits(getattr(rows, name), want[name])


class TestTablesAgainstTheSearch:
    """The packed tables give the learners the rows, ids and taken entries
    that decoding each step and searching and deduplicating its rows gave."""

    @pytest.fixture(scope="class",
                    params=[{"kind": "topology"},
                            {"kind": "topology", "with_hubs": True, "with_hmm": True,
                             "hmm_states": 2},
                            {"kind": "name"}, {"kind": "nametype"}],
                    ids=["topology", "topology_hubs_hmm", "name", "nametype"])
    def run(self, request, tmp_path_factory):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["scheme"] = request.param
        out = tmp_path_factory.mktemp("tables")
        cfg = validate_config(raw)
        stage_collect(cfg, out)
        stage_abstract(cfg, out)
        return cfg, out

    @pytest.mark.parametrize("side", [0, 1], ids=["train", "held_out"])
    def test_a_split_is_laid_out_as_by_search(self, run, side):
        cfg, out = run
        tables = pipeline.read_split(cfg, out, train=["none"], held_out=["none"])[side]["none"]
        # the reference: the raw corpus abstracted again, written as the
        # per-trajectory lines of old and decoded step by step
        spec, hmm = pipeline.load_scheme_runtime(out)
        graphs = {s.scenario_id: s.graph for s in load_scenarios(out / "train_scenarios.jsonl")}
        views = abstract_per_trajectory(load_corpus(out / "train_corpus.jsonl"), spec, graphs,
                                        hmm)
        eval_ids = split_scenarios(cfg, [v.scenario_id for v in views])[1]
        trajs = [abstract_from_json(json.loads(abstract_line_via_dicts(v))) for v in views
                 if (v.scenario_id in eval_ids) == bool(side)]
        assert tables.trajectory_ids == tuple(t.trajectory_id for t in trajs)
        assert_laid_out_as_by_search(tables, trajs)

    def test_a_negative_zero_state_keeps_its_bits(self, tmp_path):
        # three wide, as a one-hot of the three index actions is in reward rows
        states = [np.array([0.0, 1.0, 0.0]), np.array([-0.0, 1.0, 0.0]),
                  np.array([2.0, -0.0, 0.0])]
        for actions in ([np.array([1.0, -0.0]), np.array([0.0, 1.0]), np.array([-3.0, 0.5])],
                        [1, 0, 2]):
            rng = np.random.default_rng(4)
            trajs = []
            for i in range(6):
                steps = []
                for _ in range(int(rng.integers(1, 5))):
                    cands = [actions[k] for k in rng.permutation(3)[:int(rng.integers(1, 4))]]
                    steps.append(AbstractStep(states[int(rng.integers(3))],
                                              cands[int(rng.integers(len(cands)))], 0.0, cands))
                trajs.append(AbstractTrajectory(f"t{i}", "s", "topology", steps,
                                                JudgeScores(0.0, 0.0)))
            path = tmp_path / "abstract_corpus.jsonl"
            abstraction.save_abstract_corpus(trajs, path)
            tables = load_abstract_corpus(path)
            assert len(tables.states) == 3
            assert_laid_out_as_by_search(tables, trajs)
            # the -0.0 and 0.0 states share a number, as equal tuples do
            assert len(build_transitions(tables).state_ids[0]) == 2


class TestCli:
    def test_reproduce_and_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "artifacts"
        code = cli_main(["reproduce", "--config", str(cfg_path),
                         "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed
        assert (out / "summary.json").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        raw = json.loads(json.dumps(SMALL_CONFIG))
        raw["rl"]["gamma"] = -1
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        code = cli_main(["abstract", "--config", str(cfg_path),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("name, text", [("bad.yaml", "irl: [1, 2\n"),
                                            ("bad.json", '{"irl": ')], ids=["yaml", "json"])
    def test_a_config_with_a_syntax_error_exit_code(self, tmp_path, capsys, name, text):
        cfg_path = tmp_path / name
        cfg_path.write_text(text)
        code = cli_main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert name in err and "Traceback" not in err

    def test_missing_artifact_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        code = cli_main(["rank", "--config", str(cfg_path),
                         "--out", str(tmp_path / "empty")])
        assert code == 3

    def test_seed_override_changes_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert cli_main(["collect", "--config", str(cfg_path), "--out",
                         str(out1)]) == 0
        assert cli_main(["collect", "--config", str(cfg_path), "--out",
                         str(out2), "--seed", "99"]) == 0
        assert ((out1 / "train_corpus.jsonl").read_bytes()
                != (out2 / "train_corpus.jsonl").read_bytes())
