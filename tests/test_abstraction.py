import json
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import (abstract_per_trajectory, abstract_tables_via_dicts, floyd_warshall,
                     min_dist_to_label_loop)
from twinmdp.abstraction import (
    MdpTables,
    SchemeSpec,
    TopologyFeaturizer,
    abstract,
    build_vocabulary,
    concat_tables,
    load_abstract_corpus,
    pack_corpus,
    save_abstract_corpus,
)
from twinmdp.errors import (
    EntityNotInGraph,
    EntityNotInVocabulary,
    MalformedRecord,
    SchemeMismatch,
    UnknownEntity,
)
from twinmdp.hmm import Hmm, fit_hmm, viterbi_decode
from twinmdp.simulator import EpisodeConfig, ScenarioConfig, generate_scenario, run_batch
from twinmdp.topology import make_graph
from twinmdp.trajectories import Entity, JudgeScores, RawStep, RawTrajectory

TOPOLOGY = SchemeSpec(kind="topology")


def view(raw, spec, graph=None):
    """The one trajectory ``raw`` on ``graph``, abstracted, as an AbstractTrajectory."""
    return abstract([raw], spec, {raw.scenario_id: graph})[0]


def chain_graph(n=5):
    nodes = [Entity(name=f"n{i}", etype="Pod") for i in range(n)]
    return nodes, make_graph(nodes, list(zip(nodes[:-1], nodes[1:])))


def chain_trajectory(nodes):
    """Scripted 3-turn walk back from the symptom (n4) toward the root."""
    n0, n1, n2, n3, n4 = nodes
    steps = (
        RawStep(
            turn_index=0, chosen_entity=n4, candidate_entities=(n4,),
            assessments={n4: "cascading"},
        ),
        RawStep(
            turn_index=1, chosen_entity=n3, candidate_entities=(n3,),
            assessments={n4: "cascading", n3: "cascading"},
        ),
        RawStep(
            turn_index=2, chosen_entity=n2, candidate_entities=(n2, n0),
            assessments={n4: "cascading", n3: "cascading", n2: "primary"},
        ),
    )
    return RawTrajectory(
        trajectory_id="walk", scenario_id="scn", symptom_entity=n4,
        steps=steps, scores=JudgeScores(fpc_accuracy=75.0, rce_identification=0.0),
    )


class TestNameSchemes:
    def test_assessment_codes(self):
        # 2 = primary, 1 = cascading, 0 = normal or unassessed
        a, b, c = (Entity(name=x, etype="Pod") for x in "abc")
        featurizer = SchemeSpec(kind="name", vocabulary=("a", "b", "c")).featurizer()
        state = featurizer.state_features(a, {a: "primary", b: "cascading"})
        assert state.tolist() == [2.0, 1.0, 0.0]

    def test_state_reflects_previous_turn(self):
        a, b = Entity(name="a", etype="Pod"), Entity(name="b", etype="Pod")
        steps = (
            RawStep(turn_index=0, chosen_entity=a, candidate_entities=(a, b),
                    assessments={a: "primary"}),
            RawStep(turn_index=1, chosen_entity=b, candidate_entities=(a, b),
                    assessments={a: "primary", b: "normal"}),
        )
        traj = RawTrajectory(trajectory_id="t", scenario_id="s",
                             symptom_entity=a, steps=steps,
                             scores=JudgeScores(0.0, 0.0))
        spec = SchemeSpec(kind="name", vocabulary=("a", "b"))
        out = view(traj, spec)
        assert out.steps[0].state.tolist() == [0.0, 0.0]  # nothing known yet
        assert out.steps[1].state.tolist() == [2.0, 0.0]
        assert out.steps[0].action == 0
        assert out.steps[1].action == 1
        assert out.steps[1].candidates == [0, 1]

    def test_nametype_distinguishes_types(self):
        pod = Entity(name="x", etype="Pod")
        svc = Entity(name="x", etype="Service")
        steps = (
            RawStep(turn_index=0, chosen_entity=pod, candidate_entities=(pod, svc),
                    assessments={pod: "primary"}),
            RawStep(turn_index=1, chosen_entity=svc, candidate_entities=(pod, svc),
                    assessments={pod: "primary", svc: "cascading"}),
        )
        traj = RawTrajectory(trajectory_id="t", scenario_id="s", symptom_entity=pod,
                             steps=steps, scores=JudgeScores(0.0, 0.0))
        graph = make_graph([svc, pod], [(svc, pod)])
        vocab = build_vocabulary([graph], "nametype")
        assert vocab == (("x", "Pod"), ("x", "Service"))
        out = view(traj, SchemeSpec(kind="nametype", vocabulary=vocab))
        assert out.steps[1].state.tolist() == [2.0, 0.0]
        # the name scheme collapses both under one entry
        name_vocab = build_vocabulary([graph], "name")
        assert name_vocab == ("x",)

    def test_unknown_entity_rejected(self):
        a = Entity(name="a", etype="Pod")
        steps = (RawStep(turn_index=0, chosen_entity=a, candidate_entities=(a,)),)
        traj = RawTrajectory(trajectory_id="t", scenario_id="s", symptom_entity=a,
                             steps=steps, scores=JudgeScores(0.0, 0.0))
        with pytest.raises(EntityNotInVocabulary):
            view(traj, SchemeSpec(kind="name", vocabulary=("b",)))


class TestTopologyScheme:
    def test_scripted_walk_matches_hand_computed_features(self):
        # chain n0 -> n1 -> n2 -> n3 -> n4, diameter 4, sentinel 5
        nodes, graph = chain_graph()
        traj = chain_trajectory(nodes)
        out = view(traj, TOPOLOGY, graph)

        # turn 0: nothing assessed, no previous entity
        assert out.steps[0].state.tolist() == [5.0, 5.0]
        assert np.asarray(out.steps[0].action).tolist() == [5.0, 0.0, 5.0, 5.0]
        # turn 1: symptom flagged cascading on the previous turn
        assert out.steps[1].state.tolist() == [5.0, 0.0]
        assert np.asarray(out.steps[1].action).tolist() == [1.0, 1.0, 5.0, 1.0]
        # turn 2: n4 and n3 cascading; candidates n2 (near) and n0 (far)
        assert out.steps[2].state.tolist() == [5.0, 0.0]
        assert np.asarray(out.steps[2].action).tolist() == [1.0, 2.0, 5.0, 1.0]
        assert np.asarray(out.steps[2].candidates[1]).tolist() == [3.0, 4.0, 5.0, 3.0]

    def test_turn_zero_unlabeled_gives_sentinels_except_symptom_distance(self):
        nodes, graph = chain_graph()
        traj = chain_trajectory(nodes)
        out = view(traj, TOPOLOGY, graph)
        feats = np.asarray(out.steps[0].action)
        assert feats[1] == 0.0  # the chosen entity IS the symptom here
        assert feats[0] == feats[2] == feats[3] == 5.0

    def test_hub_feature_appended(self):
        nodes, graph = chain_graph()
        traj = chain_trajectory(nodes)
        spec = SchemeSpec(kind="topology", with_hubs=True)
        out = view(traj, spec, graph)
        # chain hubs: 0.5 for the four sources, 0 for the sink n4
        assert np.asarray(out.steps[0].action)[-1] == pytest.approx(0.0, abs=1e-9)
        assert np.asarray(out.steps[1].action)[-1] == pytest.approx(0.5, abs=1e-9)

    def test_determinism(self):
        nodes, graph = chain_graph()
        traj = chain_trajectory(nodes)
        a = view(traj, TOPOLOGY, graph)
        b = view(traj, TOPOLOGY, graph)
        for sa, sb in zip(a.steps, b.steps):
            assert np.array_equal(sa.state, sb.state)
            assert np.array_equal(np.asarray(sa.action), np.asarray(sb.action))

    @pytest.mark.parametrize("where", ["previous", "symptom", "assessed", "target",
                                       "middle_target"])
    def test_action_features_reject_entities_outside_the_graph(self, where):
        # one call per turn still raises what each per-candidate lookup
        # raised: UnknownEntity for the previous action or the symptom, and
        # EntityNotInGraph for an assessed entity or any of the targets
        nodes, graph = chain_graph()
        feat = TopologyFeaturizer(graph)
        stranger = Entity(name="zz", etype="Pod")
        args = {"targets": [nodes[1], nodes[3], nodes[0]], "previous": nodes[2],
                "symptom": nodes[4],
                "assessments": {nodes[3]: "cascading", nodes[0]: "primary"}}
        want = feat.action_features(**args)
        s = feat.sentinel
        assert want.tolist() == [[1.0, 3.0, s, 2.0],  # n0 is upstream
                                 [s, 1.0, s, 0.0],
                                 [2.0, 4.0, 0.0, 3.0]]
        if where == "assessed":
            args["assessments"] = {**args["assessments"], stranger: "cascading"}
        elif where == "target":
            args["targets"] = [stranger]
        elif where == "middle_target":
            args["targets"] = [nodes[1], stranger, nodes[0]]
        else:
            args[where] = stranger
        error = UnknownEntity if where in ("previous", "symptom") else EntityNotInGraph
        with pytest.raises(error):
            feat.action_features(**args)

    def test_entity_outside_graph_rejected(self):
        nodes, graph = chain_graph()
        stranger = Entity(name="zz", etype="Pod")
        steps = (RawStep(turn_index=0, chosen_entity=stranger,
                         candidate_entities=(stranger,)),)
        traj = RawTrajectory(trajectory_id="t", scenario_id="s",
                             symptom_entity=nodes[4], steps=steps,
                             scores=JudgeScores(0.0, 0.0))
        with pytest.raises(EntityNotInGraph):
            view(traj, TOPOLOGY, graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_min_dist_to_label_equals_the_dense_loop(self, seed):
        # sparse random digraphs leave many targets unreachable; a stranger
        # outside the graph is rejected only when its label is the one asked
        rng = np.random.default_rng(seed)
        n = 9
        nodes = [Entity(name=f"n{i}", etype="Pod") for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        edges_idx = [pairs[k] for k in rng.choice(len(pairs), size=10, replace=False)]
        graph = make_graph(nodes, [(nodes[i], nodes[j]) for i, j in edges_idx])
        dist = floyd_warshall(n, edges_idx)
        index = {e: i for i, e in enumerate(nodes)}
        feat = TopologyFeaturizer(graph, sentinel=11.0)
        stranger = Entity(name="zz", etype="Pod")
        labels = ("primary", "cascading", "normal")
        for trial in range(30):
            picked = rng.permutation(n)[: int(rng.integers(0, n + 1))]
            assessments = {nodes[i]: labels[int(rng.integers(3))] for i in picked}
            if trial % 3 == 0:
                assessments[stranger] = labels[int(rng.integers(3))]
            # state column k and action column 2 + k are the distance to label k
            want = [[min_dist_to_label_loop(dist, index, src, assessments, label,
                                            feat.sentinel) for label in labels[:2]]
                    for src in nodes]
            if any(None in per_src for per_src in want):
                with pytest.raises(EntityNotInGraph):
                    feat.state_features(nodes[0], assessments)
                with pytest.raises(EntityNotInGraph):
                    feat.action_features(nodes, None, nodes[0], assessments)
                continue
            for src, per_src in zip(nodes, want):
                assert feat.state_features(src, assessments).tolist() == per_src
            actions = feat.action_features(nodes, None, nodes[0], assessments)
            assert actions[:, 2:].tolist() == want

    def test_featurizer_needs_the_graph(self):
        nodes, _ = chain_graph()
        with pytest.raises(MalformedRecord):
            abstract([chain_trajectory(nodes)], TOPOLOGY, {})

    def test_features_nonnegative_and_sentinel_exceeds_diameter(self):
        nodes, graph = chain_graph()
        traj = chain_trajectory(nodes)
        feat = TopologyFeaturizer(graph)
        assert feat.sentinel == 5.0
        out = view(traj, TOPOLOGY, graph)
        for step in out.steps:
            assert np.all(step.state >= 0)
            assert np.all(np.asarray(step.action) >= 0)


class TestHmmAugmentation:
    def test_single_state_appends_constant(self):
        nodes, graph = chain_graph()
        tables = abstract([chain_trajectory(nodes)], TOPOLOGY, {"scn": graph})
        (obs,) = tables.observations()
        model = Hmm(
            initial=np.array([1.0]), transition=np.array([[1.0]]),
            means=obs.mean(axis=0, keepdims=True),
            variances=np.ones((1, obs.shape[1])),
        )
        out = tables.with_hidden_states(model)
        assert out.states.shape == (len(tables.states), tables.states.shape[1] + 1)
        for step, before in zip(out[0].steps, tables[0].steps):
            assert step.state[-1] == 1.0
            assert step.state[:-1].tolist() == before.state.tolist()

    def test_onehot_matches_decoder_output(self):
        nodes, graph = chain_graph()
        tables = abstract([chain_trajectory(nodes)], TOPOLOGY, {"scn": graph})
        (obs,) = tables.observations()
        rng = np.random.default_rng(0)
        model = Hmm(
            initial=np.array([0.5, 0.5]),
            transition=np.array([[0.7, 0.3], [0.4, 0.6]]),
            means=np.stack([obs[0], obs[-1]]) + rng.normal(0, 0.1, (2, obs.shape[1])),
            variances=np.ones((2, obs.shape[1])),
        )
        path = viterbi_decode(model, obs)
        out = tables.with_hidden_states(model)
        for step, z in zip(out[0].steps, path):
            onehot = step.state[-2:]
            assert onehot[z] == 1.0 and onehot.sum() == 1.0

    def test_the_observations_are_the_state_and_taken_action_rows(self):
        nodes, graph = chain_graph()
        tables = abstract([chain_trajectory(nodes)] * 2, TOPOLOGY, {"scn": graph})
        for obs, traj in zip(tables.observations(), tables):
            assert obs.tolist() == [[*s.state.tolist(), *s.action.tolist()] for s in traj.steps]

    def test_requires_topology_scheme(self):
        a = Entity(name="a", etype="Pod")
        steps = (RawStep(turn_index=0, chosen_entity=a, candidate_entities=(a,)),)
        traj = RawTrajectory(trajectory_id="t", scenario_id="s", symptom_entity=a,
                             steps=steps, scores=JudgeScores(0.0, 0.0))
        out = abstract([traj], SchemeSpec(kind="name", vocabulary=("a",)), {})
        with pytest.raises(SchemeMismatch):
            out.observations()


def test_abstract_corpus_round_trip(tmp_path):
    nodes, graph = chain_graph()
    traj = view(chain_trajectory(nodes), TOPOLOGY, graph)
    path = tmp_path / "abstract.jsonl"
    save_abstract_corpus([traj], path)
    loaded = load_abstract_corpus(path)
    assert len(loaded) == 1
    got = loaded[0]
    assert got.trajectory_id == traj.trajectory_id
    assert got.scheme == "topology"
    for sa, sb in zip(got.steps, traj.steps):
        assert np.array_equal(sa.state, sb.state)
        assert np.array_equal(np.asarray(sa.action), np.asarray(sb.action))
        assert sa.reward == sb.reward
        for ca, cb in zip(sa.candidates, sb.candidates):
            assert np.array_equal(np.asarray(ca), np.asarray(cb))


@pytest.mark.parametrize("damage", ["truncated", "missing_field"])
def test_damaged_abstract_corpus_raises_malformed_record_naming_it(tmp_path, damage):
    nodes, graph = chain_graph()
    traj = view(chain_trajectory(nodes), TOPOLOGY, graph)
    path = tmp_path / "abstract_corpus.jsonl"
    save_abstract_corpus([traj, traj], path)
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[: len(text) * 3 // 4])
    else:
        path.write_text(text.replace('"taken"', '"tkaen"', 1))
    with pytest.raises(MalformedRecord, match="abstract_corpus.jsonl"):
        load_abstract_corpus(path)


@pytest.mark.parametrize("damage", ["state_id_out_of_range", "candidate_id_out_of_range",
                                    "descending_offsets", "taken_past_its_candidates",
                                    "steps_disagree_with_trajectories", "short_step_column"])
def test_tables_that_do_not_fit_together_raise_malformed_record_naming_the_file(tmp_path,
                                                                                damage):
    nodes, graph = chain_graph()
    traj = view(chain_trajectory(nodes), TOPOLOGY, graph)
    path = tmp_path / "abstract_corpus.jsonl"
    save_abstract_corpus([traj, traj], path)
    assert len(load_abstract_corpus(path)) == 2
    obj = json.loads(path.read_text())
    offsets = obj["cand_offsets"]
    assert offsets == [0, 1, 2, 4, 5, 6, 8]
    if damage == "state_id_out_of_range":
        obj["state_id"][1] = len(obj["states"])
    elif damage == "candidate_id_out_of_range":
        obj["cand_id"][0] = -1
    elif damage == "descending_offsets":
        offsets[2], offsets[3] = offsets[3], offsets[2]
    elif damage == "taken_past_its_candidates":
        obj["taken"][2] = offsets[3] - offsets[2]
    elif damage == "steps_disagree_with_trajectories":
        obj["step_offsets"][-1] -= 1
    else:
        obj["rewards"].pop()
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    with pytest.raises(MalformedRecord, match="abstract_corpus.jsonl"):
        load_abstract_corpus(path)


NAME = SchemeSpec(kind="name", vocabulary=("n0", "n1", "n2", "n3", "n4"))


@pytest.mark.parametrize("damage", ["empty_trajectory", "negative_vocabulary_id"])
def test_an_empty_trajectory_or_a_negative_id_in_the_file_is_malformed(tmp_path, damage):
    nodes, _ = chain_graph()
    traj = view(chain_trajectory(nodes), NAME)
    path = tmp_path / "abstract_corpus.jsonl"
    save_abstract_corpus([traj, traj], path)
    obj = json.loads(path.read_text())
    assert obj["step_offsets"] == [0, 3, 6] and obj["actions"] == [0, 2, 3, 4]
    if damage == "empty_trajectory":
        obj["step_offsets"].insert(1, 0)
        for key in ("trajectory_ids", "scenario_ids", "fpc_accuracy", "rce_identification"):
            obj[key].insert(0, obj[key][0])
    else:
        obj["actions"][0] = -1
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    with pytest.raises(MalformedRecord, match="abstract_corpus.jsonl"):
        load_abstract_corpus(path)


def test_packing_an_empty_trajectory_or_a_negative_id_is_malformed():
    nodes, _ = chain_graph()
    traj = view(chain_trajectory(nodes), NAME)
    with pytest.raises(MalformedRecord, match="no steps"):
        pack_corpus([traj, replace(traj, steps=[])])
    step = replace(traj.steps[2], action=-1, candidates=[-1, 0])
    with pytest.raises(MalformedRecord, match="negative vocabulary id"):
        pack_corpus([replace(traj, steps=[*traj.steps[:2], step])])


@pytest.fixture(scope="module")
def episodes():
    """Logged episodes of four simulated scenarios, and the scenarios' graphs."""
    scns = [generate_scenario(ScenarioConfig(n_nodes=10, edge_density=0.1, chain_length=3,
                                             evidence_noise=0.05), seed=s, scenario_id=f"s{s}")
            for s in range(4)]
    raws = []
    run_batch(scns, None, EpisodeConfig(max_turns=6, epsilon=0.5), trials=6, master_seed=3,
              record=raws.append)
    return raws, {scn.scenario_id: scn.graph for scn in scns}


@pytest.mark.parametrize("scheme", ["name", "nametype", "topology", "topology_hubs_hmm"])
def test_the_builder_gives_the_tables_of_the_per_trajectory_views(episodes, scheme):
    raws, graphs = episodes
    hmm = None
    if scheme in ("name", "nametype"):
        spec = SchemeSpec(kind=scheme, vocabulary=build_vocabulary(graphs.values(), scheme))
    else:
        enriched = scheme == "topology_hubs_hmm"
        spec = SchemeSpec(kind="topology", with_hubs=enriched, with_hmm=enriched,
                          unreachable_sentinel=11.0)
        if enriched:
            hmm, _ = fit_hmm([np.stack([np.concatenate([s.state, s.action]) for s in v.steps])
                              for v in abstract_per_trajectory(raws, spec, graphs)], 3, seed=0)
    got = abstract(iter(raws), spec, graphs, hmm)
    views = abstract_per_trajectory(raws, spec, graphs, hmm)
    assert json.dumps(got.to_json(), sort_keys=True) == abstract_tables_via_dicts(views)
    want = pack_corpus(views)
    for f in fields(MdpTables):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        elif f.name == "scores":
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
        elif f.name != "_decoded":
            assert a == b, f.name
    if hmm is not None:  # the hidden states split some states apart
        assert got.states.shape[1] == 2 + hmm.n_states
        assert len(got.states) > len(abstract(raws, spec, graphs).states)


@pytest.mark.parametrize("kind", ["nametype", "topology"])
def test_concatenated_tables_are_the_tables_of_the_joined_corpus(episodes, kind):
    raws, graphs = episodes
    spec = SchemeSpec(kind=kind, vocabulary=build_vocabulary(graphs.values(), kind)
                      if kind != "topology" else ())
    whole = abstract(raws, spec, graphs)
    empty = abstract([], spec, graphs)
    assert len(empty) == 0
    parts = [abstract(raws[:7], spec, graphs), empty, abstract(raws[7:], spec, graphs)]
    assert concat_tables(parts).to_json() == whole.to_json()
    assert concat_tables([empty, whole]).to_json() == whole.to_json()
