from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from oracles import prefix_decode_hidden_states, set_f1
from twinmdp import abstraction
from twinmdp.abstraction import SchemeSpec, abstract, build_vocabulary
from twinmdp.context import CeConfig, intervene
from twinmdp.errors import InfeasibleConfig, MalformedRecord
from twinmdp.hmm import Hmm, log_emissions, viterbi_step
from twinmdp.nets import Mlp
from twinmdp.offline_rl import NetworkQ, QPolicy
from twinmdp.simulator import (
    CePlan,
    EpisodeConfig,
    ScenarioConfig,
    SimScenario,
    _SchemeRuntime,
    generate_scenario,
    judge,
    load_scenarios,
    run_batch,
    run_episode,
    save_scenarios,
    scenario_to_json,
)
from twinmdp.topology import make_graph, shortest_distance
from twinmdp.trajectories import Entity, corpus_writer, load_corpus, save_corpus


class DistanceToSymptomQ:
    """Stub Q that prefers candidates topologically close to the symptom.

    Works on topology-scheme action features, where feature 1 is the
    distance from the candidate to the symptom entity.
    """

    gamma = 0.9

    def values(self, state, candidates):
        return np.array([-np.asarray(c, dtype=float)[1] for c in candidates])


def chain_with_leaves():
    """n0 -> n1 -> n2 -> n3 plus dead-end leaves hanging off the chain."""
    chain = [Entity(name=f"c{i}", etype="Pod") for i in range(4)]
    leaves = [Entity(name=f"leaf{i}", etype="Pod") for i in range(4)]
    edges = list(zip(chain[:-1], chain[1:]))
    edges += [(chain[0], leaves[0]), (chain[1], leaves[1]),
              (chain[1], leaves[2]), (chain[2], leaves[3])]
    graph = make_graph(chain + leaves, edges)
    return SimScenario(
        scenario_id="crafted",
        graph=graph,
        root_cause=chain[0],
        chain=tuple(chain),
        symptom=chain[3],
        evidence_noise=0.0,
        seed=0,
    )


def topo_plan(strategies, prune_percentile=85.0):
    return CePlan(
        policy=QPolicy(q=DistanceToSymptomQ(), temperature=1.0),
        config=CeConfig(strategies=strategies, prune_percentile=prune_percentile),
        scheme=SchemeSpec(kind="topology", unreachable_sentinel=10.0),
    )


class TestGenerateScenario:
    def test_minimum_is_single_edge(self):
        scn = generate_scenario(
            ScenarioConfig(n_nodes=2, edge_density=0.0, chain_length=2), seed=1
        )
        assert len(scn.graph.edges) == 1
        assert (scn.root_cause, scn.symptom) in scn.graph.edges

    def test_same_seed_identical(self):
        cfg = ScenarioConfig()
        a = generate_scenario(cfg, seed=5)
        b = generate_scenario(cfg, seed=5)
        assert scenario_to_json(a) == scenario_to_json(b)

    def test_chain_is_directed_path(self):
        cfg = ScenarioConfig(n_nodes=10, edge_density=0.1, chain_length=4)
        for seed in range(100):
            scn = generate_scenario(cfg, seed=seed)
            for u, v in zip(scn.chain[:-1], scn.chain[1:]):
                assert shortest_distance(scn.graph, u, v) == 1

    def test_weak_connectivity(self):
        cfg = ScenarioConfig(n_nodes=12, edge_density=0.02, chain_length=3)
        for seed in range(30):
            scn = generate_scenario(cfg, seed=seed)
            nodes = list(scn.graph.nodes)
            reached = {nodes[0]}
            frontier = [nodes[0]]
            while frontier:
                cur = frontier.pop()
                for nb in scn.graph.neighbors(cur):
                    if nb not in reached:
                        reached.add(nb)
                        frontier.append(nb)
            assert reached == set(nodes)

    def test_infeasible_configs_raise(self):
        with pytest.raises(InfeasibleConfig):
            generate_scenario(ScenarioConfig(n_nodes=3, chain_length=1), seed=0)
        with pytest.raises(InfeasibleConfig):
            generate_scenario(ScenarioConfig(n_nodes=2, chain_length=4), seed=0)

    def test_round_trip(self, tmp_path):
        scns = [generate_scenario(ScenarioConfig(), seed=s) for s in range(3)]
        path = tmp_path / "scenarios.jsonl"
        save_scenarios(scns, path)
        loaded = load_scenarios(path)
        assert [scenario_to_json(s) for s in loaded] == [
            scenario_to_json(s) for s in scns
        ]

    def test_truncated_file_raises_malformed_record_naming_it(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        save_scenarios([generate_scenario(ScenarioConfig(), seed=s) for s in range(2)], path)
        text = path.read_text()
        path.write_text(text[: len(text) * 3 // 4])
        with pytest.raises(MalformedRecord, match="scenarios.jsonl"):
            load_scenarios(path)


class TestRunEpisode:
    def test_noiseless_two_node_chain(self):
        scn = generate_scenario(
            ScenarioConfig(n_nodes=2, edge_density=0.0, chain_length=2,
                           evidence_noise=0.0),
            seed=3,
        )
        res = run_episode(scn, None, EpisodeConfig(max_turns=8, epsilon=0.0), seed=0)
        assert res.turns_used <= 2
        assert res.trajectory.final_root_cause == scn.root_cause
        assert res.trajectory.scores.rce_identification == 100.0

    def test_budget_of_one_turn_cannot_finish(self):
        scn = generate_scenario(
            ScenarioConfig(n_nodes=6, edge_density=0.0, chain_length=4,
                           evidence_noise=0.0),
            seed=4,
        )
        res = run_episode(scn, None, EpisodeConfig(max_turns=1, epsilon=0.0), seed=0)
        assert res.trajectory.final_root_cause is None
        assert res.trajectory.scores.rce_identification == 0.0

    @pytest.mark.parametrize("chain_length", [2, 3, 4, 5, 6])
    def test_noiseless_greedy_solves_path_graphs(self, chain_length):
        cfg = ScenarioConfig(n_nodes=chain_length, edge_density=0.0,
                             chain_length=chain_length, evidence_noise=0.0)
        for seed in range(5):
            scn = generate_scenario(cfg, seed=seed)
            res = run_episode(
                scn, None,
                EpisodeConfig(max_turns=chain_length + 2, epsilon=0.0),
                seed=seed,
            )
            assert res.trajectory.scores.rce_identification == 100.0

    def test_deterministic_given_seed(self):
        scn = generate_scenario(ScenarioConfig(evidence_noise=0.2), seed=6)
        cfg = EpisodeConfig(max_turns=10, epsilon=0.4)
        a = run_episode(scn, None, cfg, seed=11)
        b = run_episode(scn, None, cfg, seed=11)
        assert a.trajectory == b.trajectory
        assert a.trajectory.scores == b.trajectory.scores
        assert a.entities_explored == b.entities_explored

    def test_emitted_trajectories_pass_validation(self, tmp_path):
        scn = generate_scenario(ScenarioConfig(evidence_noise=0.3), seed=7)
        results = [
            run_episode(scn, None, EpisodeConfig(max_turns=12, epsilon=0.5), seed=s)
            for s in range(10)
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus([r.trajectory for r in results], path)
        loaded = load_corpus(path)
        assert len(loaded) == 10
        for res, got in zip(results, loaded):
            assert got == res.trajectory

    def test_turns_and_explored_counts(self):
        scn = generate_scenario(ScenarioConfig(), seed=8)
        res = run_episode(scn, None, EpisodeConfig(max_turns=10, epsilon=0.3),
                          seed=2)
        assert res.turns_used == len(res.trajectory.steps)
        assert res.entities_explored <= res.turns_used
        assert res.turns_used <= 10


def strongest_primary(steps):
    """The entity labeled primary at the end of the most consecutive turns up
    to the last of ``steps`` (ties to the lowest (name, etype)) and that run,
    counted backwards from the last step; (None, 0) without a primary."""
    def run(e):
        n = 0
        for step in reversed(steps):
            if step.assessments.get(e) != "primary":
                break
            n += 1
        return n

    ranked = sorted((-run(e), e.name, e.etype)
                    for e, label in steps[-1].assessments.items() if label == "primary")
    if not ranked:
        return None, 0
    longest, name, etype = ranked[0]
    return Entity(name, etype), -longest


class TestStoppingRule:
    """The answer and the stop, read off each episode's trajectory."""

    @pytest.mark.parametrize("strategies", [None, ("suggest",), ("prune",), ("prioritize",),
                                            ("suggest", "prune", "prioritize")])
    def test_answer_is_the_strongest_primary_and_no_earlier_run_reached_two(self,
                                                                          strategies):
        # the six-node graphs run the queue dry more often
        scns = [generate_scenario(ScenarioConfig(n_nodes=n, evidence_noise=0.3), seed=s,
                                  scenario_id=f"r{n}-{s}") for n in (10, 6) for s in range(40)]
        plan = None if strategies is None else topo_plan(strategies)
        trajs = []
        run_batch(scns, plan, EpisodeConfig(max_turns=9, epsilon=0.5), trials=2,
                  master_seed=29, record=trajs.append)
        reverified = 0
        for traj in trajs:
            assert traj.final_root_cause == strongest_primary(traj.steps)[0]
            chosen = [step.chosen_entity for step in traj.steps]
            for t in range(1, len(traj.steps)):
                assert strongest_primary(traj.steps[:t])[1] < 2
                # a turn offering an explored entity re-verifies after the queue
                # ran dry, which the agent reaches only without a primary
                if traj.steps[t].candidate_entities[0] in chosen[:t]:
                    reverified += 1
                    assert strongest_primary(traj.steps[:t])[0] is None
        # the episodes include unanswered ones, answers that outrank a newer
        # primary, and turns after a dry queue
        assert any(t.final_root_cause is None for t in trajs)
        assert any(sum(label == "primary" for label in t.steps[-1].assessments.values()) > 1
                   for t in trajs)
        assert reverified > 0


class TestInterventions:
    def test_prune_reduces_exploration_on_same_seed(self):
        scn = chain_with_leaves()
        cfg = EpisodeConfig(max_turns=12, epsilon=0.0)
        baseline = run_episode(scn, None, cfg, seed=5)
        pruned = run_episode(scn, topo_plan(("prune",), prune_percentile=60.0),
                             cfg, seed=5)
        assert pruned.trajectory.scores.rce_identification == 100.0
        assert pruned.entities_explored <= baseline.entities_explored

    def test_prioritize_follows_policy_ordering(self):
        scn = chain_with_leaves()
        cfg = EpisodeConfig(max_turns=12, epsilon=0.0)
        res = run_episode(scn, topo_plan(("prioritize",)), cfg, seed=1)
        # the distance-to-symptom policy walks straight up the chain
        chosen = [s.chosen_entity.name for s in res.trajectory.steps]
        assert chosen[:4] == ["c3", "c2", "c1", "c0"]
        assert res.trajectory.scores.rce_identification == 100.0

    def test_suggestions_bias_choice_with_full_uptake(self):
        scn = chain_with_leaves()
        cfg = EpisodeConfig(max_turns=12, epsilon=0.0, suggestion_uptake=1.0)
        res = run_episode(scn, topo_plan(("suggest",)), cfg, seed=9)
        assert res.audit, "intervention audit should be recorded"
        for entry, step in zip(res.audit, res.trajectory.steps):
            if entry["suggestions"]:
                assert step.chosen_entity.name in entry["suggestions"]

    def test_ce_run_is_deterministic(self):
        scn = chain_with_leaves()
        cfg = EpisodeConfig(max_turns=12, epsilon=0.2)
        plan = topo_plan(("suggest", "prune", "prioritize"))
        a = run_episode(scn, plan, cfg, seed=3)
        b = run_episode(scn, plan, cfg, seed=3)
        assert a.trajectory == b.trajectory


class TestJudge:
    def scn(self):
        return chain_with_leaves()

    def test_perfect_chain_scores_100(self):
        scn = self.scn()
        assessments = {e: ("primary" if e == scn.root_cause else "cascading")
                       for e in scn.chain}
        scores = judge(scn.root_cause, assessments, scn)
        assert scores.fpc_accuracy == 100.0
        assert scores.rce_identification == 100.0

    def test_empty_prediction_scores_zero(self):
        scn = self.scn()
        scores = judge(None, {}, scn)
        assert scores.fpc_accuracy == 0.0
        assert scores.rce_identification == 0.0

    def test_partial_overlap_matches_hand_f1(self):
        scn = self.scn()
        c0, c1, c2, c3 = scn.chain
        leaf = next(e for e in scn.graph.nodes if e.name == "leaf0")
        assessments = {c0: "primary", c1: "cascading", leaf: "cascading"}
        scores = judge(c0, assessments, scn)
        want = 100.0 * set_f1({c0, c1, leaf}, set(scn.chain))
        assert scores.fpc_accuracy == pytest.approx(want)
        assert scores.fpc_accuracy == pytest.approx(100.0 * 2 * (2 / 3) * (2 / 4)
                                                    / ((2 / 3) + (2 / 4)))

    def test_wrong_root_zero_rce(self):
        scn = self.scn()
        scores = judge(scn.symptom, {scn.symptom: "primary"}, scn)
        assert scores.rce_identification == 0.0

    def test_normal_labels_not_counted_as_prediction(self):
        scn = self.scn()
        assessments = {e: "normal" for e in scn.chain}
        scores = judge(None, assessments, scn)
        assert scores.fpc_accuracy == 0.0


class TestRunBatch:
    def test_paired_seeds_reproduce_baseline(self):
        scns = [generate_scenario(ScenarioConfig(), seed=s, scenario_id=f"s{s}")
                for s in range(3)]
        cfg = EpisodeConfig(max_turns=8, epsilon=0.3)
        trajs_a, trajs_b = [], []
        rows_a = run_batch(scns, None, cfg, trials=4, master_seed=77, record=trajs_a.append)
        rows_b = run_batch(scns, None, cfg, trials=4, master_seed=77, record=trajs_b.append)
        for a, b in zip(rows_a, rows_b):
            assert a["rce_identification"] == b["rce_identification"]
            assert a["entities_explored"] == b["entities_explored"]
        assert len(rows_a) == 12
        assert trajs_a == trajs_b

    def test_each_episode_is_recorded_as_it_ends_and_its_row_keeps_the_scalars(self):
        scns = [generate_scenario(ScenarioConfig(), seed=s, scenario_id=f"s{s}")
                for s in range(2)]
        recorded = []
        rows = run_batch(scns, None, EpisodeConfig(max_turns=8), trials=3, master_seed=5,
                         method_id="m", record=recorded.append)
        assert [t.trajectory_id for t in recorded] == [
            f"{r['scenario_id']}-m-t{r['trial']}" for r in rows]
        for row, traj in zip(rows, recorded):
            assert row == {"scenario_id": traj.scenario_id, "method_id": "m",
                           "trial": row["trial"],
                           "rce_identification": traj.scores.rce_identification,
                           "fpc_accuracy": traj.scores.fpc_accuracy,
                           "turns_used": len(traj.steps),
                           "entities_explored": row["entities_explored"]}


class RecordingQ:
    """Stub Q that logs every (state, candidates) it scores.

    Prefers candidates with a small feature sum, which works for both index
    and feature actions.
    """

    gamma = 0.9

    def __init__(self):
        self.calls = []

    def values(self, state, candidates):
        self.calls.append((np.array(state), [np.array(c) for c in candidates]))
        return np.array([-np.asarray(c, dtype=float).sum() for c in candidates])


def parity_scenarios():
    cfg = ScenarioConfig(n_nodes=12, edge_density=0.08, chain_length=4,
                         evidence_noise=0.1)
    return [generate_scenario(cfg, seed=s, scenario_id=f"p{s}") for s in range(3)]


def parity_hmm(n_features):
    rng = np.random.default_rng(0)
    return Hmm(initial=np.array([0.6, 0.4]),
               transition=np.array([[0.7, 0.3], [0.2, 0.8]]),
               means=rng.uniform(0.0, 5.0, (2, n_features)),
               variances=np.ones((2, n_features)))


class TestTrainServeParity:
    """Re-abstracting a logged CE episode gives what the policy scored online."""

    @pytest.mark.parametrize("kind", ["topology_hubs", "nametype", "topology_hmm"])
    def test_abstract_equals_what_the_policy_scored(self, kind):
        scns = parity_scenarios()
        hmm = None
        if kind == "topology_hubs":
            scheme = SchemeSpec(kind="topology", with_hubs=True, unreachable_sentinel=12.0)
        elif kind == "nametype":
            scheme = SchemeSpec(kind="nametype", vocabulary=build_vocabulary(
                [scn.graph for scn in scns], "nametype"))
        else:
            scheme = SchemeSpec(kind="topology", with_hmm=True, unreachable_sentinel=12.0)
            hmm = parity_hmm(6)
        cfg = EpisodeConfig(max_turns=8, epsilon=0.3)
        steps_checked = 0
        for scn in scns:
            for seed in range(3):
                q = RecordingQ()
                plan = CePlan(policy=QPolicy(q=q, temperature=1.0),
                              config=CeConfig(strategies=("prioritize",)),
                              scheme=scheme, hmm=hmm)
                res = run_episode(scn, plan, cfg, seed=seed)
                view = abstract([res.trajectory], scheme, {scn.scenario_id: scn.graph})[0]
                assert len(q.calls) == len(view.steps)
                for (state, cands), step in zip(q.calls, view.steps):
                    if hmm is None:
                        assert np.array_equal(state, step.state)
                    else:
                        # the hidden-state bits are decoded differently online
                        assert state.shape == (2 + hmm.n_states,)
                        assert np.array_equal(state[:2], step.state)
                    assert len(cands) == len(step.candidates)
                    for got, want in zip(cands, step.candidates):
                        assert np.array_equal(got, np.asarray(want))
                    steps_checked += 1
        assert steps_checked > 20

    def test_plan_builds_one_featurizer_per_graph(self, monkeypatch):
        builds = count_featurizer_builds(monkeypatch)
        scns = parity_scenarios()
        plan = topo_plan(("prune", "prioritize"))
        cfg = EpisodeConfig(max_turns=6)
        run_batch(scns, plan, cfg, trials=4, master_seed=5, record=[].append)
        run_batch(scns, plan, cfg, trials=2, master_seed=6, record=[].append)
        assert builds == [scn.graph for scn in scns]

    def test_plans_sharing_a_scheme_build_one_featurizer_per_graph(self, monkeypatch):
        builds = count_featurizer_builds(monkeypatch)
        scns = parity_scenarios()
        plan = topo_plan(("prune", "prioritize"))
        second = replace(plan, config=CeConfig(strategies=("suggest",)))
        assert second.scheme is plan.scheme
        cfg = EpisodeConfig(max_turns=6)
        run_batch(scns, plan, cfg, trials=4, master_seed=5, record=[].append)
        run_batch(scns, second, cfg, trials=2, master_seed=6, record=[].append)
        assert builds == [scn.graph for scn in scns]

    @pytest.mark.parametrize("with_hmm", [True, False])
    def test_plan_rejects_a_scheme_and_hmm_that_disagree(self, with_hmm):
        # a with_hmm scheme needs the HMM; any other scheme takes none
        with pytest.raises(MalformedRecord):
            CePlan(policy=QPolicy(q=RecordingQ(), temperature=1.0), config=CeConfig(),
                   scheme=SchemeSpec(kind="topology", with_hmm=with_hmm),
                   hmm=None if with_hmm else parity_hmm(6))


def count_featurizer_builds(monkeypatch):
    """The graphs of every ``TopologyFeaturizer`` built from here on, in order."""
    builds = []
    original = abstraction.TopologyFeaturizer.__init__

    def counting(self, graph, *args, **kwargs):
        builds.append(graph)
        original(self, graph, *args, **kwargs)

    monkeypatch.setattr(abstraction.TopologyFeaturizer, "__init__", counting)
    return builds


def parity_plan(kind, scns, config, q):
    """A plan of one of the parity test's three schemes around the stub ``q``."""
    hmm = None
    if kind == "topology_hubs":
        scheme = SchemeSpec(kind="topology", with_hubs=True, unreachable_sentinel=12.0)
    elif kind == "nametype":
        scheme = SchemeSpec(kind="nametype", vocabulary=build_vocabulary(
            [scn.graph for scn in scns], "nametype"))
    else:
        scheme = SchemeSpec(kind="topology", with_hmm=True, unreachable_sentinel=12.0)
        hmm = parity_hmm(6)
    return CePlan(policy=QPolicy(q=q, temperature=1.0), config=config, scheme=scheme,
                  hmm=hmm)


class TurnInput(NamedTuple):
    """The raw input of one ``_SchemeRuntime.turn`` call."""

    featurizer: object
    symptom: Entity
    previous: Entity | None
    candidates: tuple
    assessments: dict
    hidden_state: int | None
    cfg: CeConfig | None

    def key(self):
        return (self.featurizer, self.symptom, self.previous, self.candidates,
                frozenset(self.assessments.items()), self.hidden_state, self.cfg)


def record_turns(monkeypatch):
    """Every ``_SchemeRuntime.turn`` call from here on: its input and what it
    returned."""
    calls = []
    memoised = _SchemeRuntime.turn

    def recording(self, candidates, previous, assessments, cfg):
        got = memoised(self, candidates, previous, assessments, cfg)
        calls.append((TurnInput(self.featurizer, self.symptom, previous, tuple(candidates),
                                dict(assessments), self.hidden_state, cfg), got))
        return got

    monkeypatch.setattr(_SchemeRuntime, "turn", recording)
    return calls


def count_featurizations(monkeypatch):
    """The ``turn_features`` calls of either featurizer from here on."""
    calls = []
    for cls in (abstraction.TopologyFeaturizer, abstraction.VocabularyFeaturizer):
        original = cls.turn_features

        def counting(self, *args, original=original):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(cls, "turn_features", counting)
    return calls


def fresh_turn(plan, turn: TurnInput):
    """What ``turn`` gives with no memo: its featurizer's rows, the hidden
    state's one-hot and, but on a prune turn, each candidate's observation's
    log-emissions, one observation at a time, under ``with_hmm``, and
    ``context.intervene`` under its config."""
    state, reprs = turn.featurizer.turn_features(turn.candidates, turn.previous, turn.symptom,
                                                 turn.assessments)
    rows = None
    if turn.hidden_state is not None:
        hmm = plan.hmm
        if turn.cfg is None or turn.cfg is not plan.prune_config:
            rows = np.stack([log_emissions(hmm.means, hmm.variances,
                                           np.concatenate([state[:2], r])) for r in reprs])
        state = np.concatenate([state, np.eye(hmm.n_states)[turn.hidden_state]])
    iv = (None if turn.cfg is None
          else intervene(plan.policy, state, list(zip(turn.candidates, reprs)), turn.cfg))
    return state, reprs, iv, rows


def assert_same_turn(got, want):
    (state, reprs, iv, rows), (want_state, want_reprs, want_iv, want_rows) = got, want
    assert state.tobytes() == want_state.tobytes()
    assert np.asarray(reprs).tobytes() == np.asarray(want_reprs).tobytes()
    # under with_hmm, the memoised emission rows are each observation's own, bit for bit
    assert (rows is None) == (want_rows is None)
    if rows is not None:
        assert rows.tobytes() == want_rows.tobytes()
    assert (iv is None) == (want_iv is None)
    if iv is not None:
        assert list(iv.probs) == list(want_iv.probs)
        assert (np.array(list(iv.probs.values())).tobytes()
                == np.array(list(want_iv.probs.values())).tobytes())
        assert iv.suggestions == want_iv.suggestions
        assert iv.retained == want_iv.retained
        assert iv.ordering == want_iv.ordering


class TestInterventionMemo:
    """A plan featurizes and scores each distinct raw turn input once."""

    @pytest.mark.parametrize("kind", ["topology_hubs", "nametype", "topology_hmm"])
    def test_every_hit_equals_a_fresh_intervention(self, kind, monkeypatch):
        scns = parity_scenarios()
        q = RecordingQ()
        plan = parity_plan(kind, scns, CeConfig(), q)
        calls = record_turns(monkeypatch)
        featurizations = count_featurizations(monkeypatch)
        cfg = EpisodeConfig(max_turns=8, epsilon=0.3)
        run_batch(scns, plan, cfg, trials=6, master_seed=3, record=[].append)
        scored, featurized = len(q.calls), len(featurizations)

        distinct = set()
        for turn, got in calls:
            assert_same_turn(got, fresh_turn(plan, turn))
            distinct.add(turn.key())
        assert len(calls) > len(distinct), "the batch should repeat some turns"
        # a hit neither featurizes nor scores
        assert len(plan._turns) == len(distinct) == scored == featurized

        fresh_q = RecordingQ()
        fresh_plan = parity_plan(kind, scns, CeConfig(), fresh_q)
        assert fresh_plan._turns == {}
        run_batch(scns, fresh_plan, cfg, trials=6, master_seed=3, record=[].append)
        assert len(fresh_q.calls) == scored

    def test_with_hmm_batch_scores_the_prefix_decode_states(self):
        scns = parity_scenarios()
        q = RecordingQ()
        # wide emissions leave the prior and the earlier turns a say, and no
        # state's likeliest successor is itself, so a skipped step would show
        rng = np.random.default_rng(1)
        hmm = Hmm(initial=np.array([0.2, 0.5, 0.3]),
                  transition=np.array([[0.1, 0.6, 0.3], [0.2, 0.2, 0.6], [0.5, 0.3, 0.2]]),
                  means=rng.uniform(0.0, 5.0, (3, 6)), variances=np.full((3, 6), 100.0))
        plan = CePlan(policy=QPolicy(q=q, temperature=1.0),
                      config=CeConfig(strategies=("prioritize",)),
                      scheme=SchemeSpec(kind="topology", with_hmm=True,
                                        unreachable_sentinel=12.0), hmm=hmm)
        trajs = []
        run_batch(scns, plan, EpisodeConfig(max_turns=8, epsilon=0.3), trials=5,
                  master_seed=9, record=trajs.append)
        want, seen = [], set()
        for traj in trajs:
            scn = next(s for s in scns if s.scenario_id == traj.scenario_id)
            tables = abstract([traj], plan.scheme, {scn.scenario_id: scn.graph})
            view = tables[0]
            hidden = prefix_decode_hidden_states(hmm.initial, hmm.transition, hmm.means,
                                                 hmm.variances, tables.observations()[0])
            previous, assessments = None, {}
            for t, (raw, step) in enumerate(zip(traj.steps, view.steps)):
                turn = TurnInput(plan.scheme.featurizer(scn.graph), traj.symptom_entity,
                                 previous, raw.candidate_entities, assessments,
                                 int(hidden[t]), plan.selection_config)
                if turn.key() not in seen:  # the memo scores a repeated turn once
                    seen.add(turn.key())
                    want.append((np.concatenate([step.state, np.eye(hmm.n_states)[hidden[t]]]),
                                 step.candidates))
                previous, assessments = raw.chosen_entity, raw.assessments
        assert len(q.calls) == len(want) > 20
        assert len({int(np.argmax(state[2:])) for state, _ in want}) >= 2
        for (state, cands), (want_state, want_cands) in zip(q.calls, want):
            assert state.tobytes() == want_state.tobytes()
            assert [c.tobytes() for c in cands] == [np.asarray(c).tobytes()
                                                   for c in want_cands]


def shared_featurizer_scenarios():
    """Two scenarios on one graph object, with different chains and symptoms."""
    scn = generate_scenario(ScenarioConfig(n_nodes=8, edge_density=0.2, chain_length=3,
                                           evidence_noise=0.2), seed=4, scenario_id="a")
    root, symptom = next((u, v) for u, v in sorted(scn.graph.edges)
                         if scn.symptom not in (u, v))
    other = SimScenario(scenario_id="b", graph=scn.graph, root_cause=root,
                        chain=(root, symptom), symptom=symptom, evidence_noise=0.2, seed=5)
    return [scn, other]


def turn_summary(turn):
    state, reprs, iv, _ = turn
    return (state.tobytes(), np.asarray(reprs).tobytes(), iv.suggestions, iv.retained,
            iv.ordering)


class TestTurnKey:
    """The memo's key holds every input a turn's features and intervention
    read, so no two turns that differ in one share an entry."""

    @pytest.mark.parametrize("kind", ["topology_hubs", "nametype"])
    def test_scenarios_sharing_a_featurizer_write_what_no_memo_writes(self, kind,
                                                                      tmp_path):
        scns = shared_featurizer_scenarios()
        assert scns[0].graph is scns[1].graph and scns[0].symptom != scns[1].symptom
        cfg = EpisodeConfig(max_turns=8, epsilon=0.3, suggestion_uptake=0.7)
        written = []
        for keep in (True, False):
            plan = network_plan(kind, scns, ("suggest", "prune", "prioritize"))
            assert plan.scheme.featurizer(scns[0].graph) is plan.scheme.featurizer(
                scns[1].graph)
            if not keep:
                plan._turns = Forgetful()
            path = tmp_path / f"corpus-{keep}.jsonl"
            with corpus_writer(path) as record:
                rows = run_batch(scns, plan, cfg, trials=20, master_seed=13,
                                 method_id="arm", record=record)
            written.append((path.read_bytes(), rows))
        assert written[0] == written[1]

    @pytest.mark.parametrize("differs", ["featurizer", "symptom", "previous", "candidates",
                                         "assessments", "hidden_state", "cfg"])
    def test_turns_that_differ_in_one_input_do_not_share_an_entry(self, differs):
        scn, other = shared_featurizer_scenarios()
        plan = CePlan(policy=QPolicy(q=RecordingQ(), temperature=1.0), config=CeConfig(),
                      scheme=SchemeSpec(kind="topology", with_hmm=True,
                                        unreachable_sentinel=12.0), hmm=wide_hmm())
        nodes = scn.graph.nodes
        base = dict(candidates=(nodes[2], nodes[4], nodes[7]), previous=nodes[0],
                    assessments={scn.symptom: "cascading", nodes[5]: "primary"},
                    cfg=plan.selection_config)
        runtime = _SchemeRuntime(plan, scn)
        first = runtime.turn(**base)
        assert runtime.turn(**base) is first and len(plan._turns) == 1

        changed = dict(base)
        if differs == "featurizer":  # the same scenario on a graph with one more edge
            edge = (nodes[4], nodes[0])
            assert edge not in scn.graph.edges
            scn = replace(scn, graph=make_graph(nodes, scn.graph.edges | {edge}))
        elif differs == "symptom":
            scn = other
        elif differs == "previous":
            changed["previous"] = nodes[1]
        elif differs == "candidates":
            changed["candidates"] = changed["candidates"][::-1]
        elif differs == "assessments":
            changed["assessments"] = {scn.symptom: "primary", nodes[5]: "primary"}
        elif differs == "cfg":
            changed["cfg"] = plan.prune_config
        runtime = _SchemeRuntime(plan, scn)
        if differs == "hidden_state":
            runtime.hidden_state = (plan.first_hidden + 1) % plan.hmm.n_states
        got = runtime.turn(**changed)
        assert len(plan._turns) == 2
        turn = TurnInput(runtime.featurizer, runtime.symptom, changed["previous"],
                         tuple(changed["candidates"]), changed["assessments"],
                         runtime.hidden_state, changed["cfg"])
        assert_same_turn(got, fresh_turn(plan, turn))
        # so an entry shared with the first turn would have been wrong
        assert turn_summary(got) != turn_summary(first)


def wide_hmm():
    """Three hidden states with wide emissions, so the prior and the earlier
    turns have a say, and no state whose likeliest successor is itself."""
    rng = np.random.default_rng(1)
    return Hmm(initial=np.array([0.2, 0.5, 0.3]),
               transition=np.array([[0.1, 0.6, 0.3], [0.2, 0.2, 0.6], [0.5, 0.3, 0.2]]),
               means=rng.uniform(0.0, 5.0, (3, 6)), variances=np.full((3, 6), 100.0))


class Forgetful(dict):
    """A memo that never keeps an entry: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def network_plan(kind, scns, strategies):
    """A ``parity_plan`` around a seeded network Q of its scheme's widths."""
    config = CeConfig(strategies=strategies, prune_percentile=50.0, suggest_percentile=60.0)
    plan = parity_plan(kind, scns, config, q=None)
    if plan.scheme.kind == "nametype":
        state_dim = width = len(plan.scheme.vocabulary)
        encoding = {"kind": "onehot", "size": width}
    else:
        state_dim = 2 + (plan.hmm.n_states if plan.hmm is not None else 0)
        width = 4 + plan.scheme.with_hubs
        encoding = {"kind": "features", "dim": width}
    plan.policy.q = NetworkQ(Mlp(state_dim + width, 8, seed=4), state_dim, encoding, gamma=0.9)
    plan.policy.temperature = 0.5
    return plan


class TestCacheTransparency:
    """A plan's memos change no byte of what an episode writes."""

    @pytest.mark.parametrize("kind", ["topology_hubs", "topology_hmm", "nametype"])
    @pytest.mark.parametrize("strategies", [("suggest",), ("prune",), ("prioritize",),
                                            ("suggest", "prune", "prioritize")])
    def test_batch_writes_the_same_with_memos_that_keep_nothing(self, kind, strategies,
                                                                tmp_path):
        scns = parity_scenarios()
        cfg = EpisodeConfig(max_turns=8, epsilon=0.3, suggestion_uptake=0.7)
        written = []
        for keep in (True, False):
            plan = network_plan(kind, scns, strategies)
            if not keep:
                plan._turns = Forgetful()
            path = tmp_path / f"corpus-{keep}.jsonl"
            with corpus_writer(path) as record:
                rows = run_batch(scns, plan, cfg, trials=6, master_seed=21,
                                 method_id="arm", record=record)
            written.append((path.read_bytes(), rows))
            if keep:  # the kept memos fill up; the forgetful ones stay empty
                assert plan._turns
            else:
                assert plan._turns == {}
        assert written[0] == written[1]

    def test_runtime_hidden_states_equal_the_uncached_recurrence(self):
        hmm = wide_hmm()
        plan = CePlan(policy=QPolicy(q=RecordingQ(), temperature=1.0),
                      config=CeConfig(strategies=("prioritize",)),
                      scheme=SchemeSpec(kind="topology", with_hmm=True,
                                        unreachable_sentinel=12.0), hmm=hmm)
        runtime = _SchemeRuntime(plan, parity_scenarios()[0])
        # 40 observations drawn from 5 distinct rows; the runtime takes the rows
        # of one call on all of them, the recurrence each observation's own
        rng = np.random.default_rng(8)
        distinct = rng.integers(0, 6, (5, 6)).astype(float)
        observations = distinct[rng.integers(0, 5, 40)]
        rows = log_emissions(hmm.means, hmm.variances, observations)
        onehots = np.eye(hmm.n_states)
        want = onehots[np.argmax(hmm.initial)]
        delta, visited = None, set()
        for obs, row in zip(observations, rows):
            assert runtime.hidden.tobytes() == want.tobytes()
            runtime.record_turn(row)
            log_emis = log_emissions(hmm.means, hmm.variances, obs)
            if delta is None:
                delta = hmm.log_initial + log_emis
            else:
                delta, _ = viterbi_step(delta, hmm.log_transition, log_emis)
            assert runtime.delta.tobytes() == delta.tobytes()
            want = onehots[np.argmax(hmm.transition[int(np.argmax(delta))])]
            visited.add(int(np.argmax(want)))
        assert runtime.hidden.tobytes() == want.tobytes()
        assert len(visited) > 1
