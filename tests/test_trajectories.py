import collections.abc
import copy
import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import abstract_tables_via_dicts, corpus_line_via_dicts

from twinmdp.abstraction import (AbstractStep, AbstractTrajectory, load_abstract_corpus,
                                 save_abstract_corpus)
from twinmdp.errors import (
    ChosenEntityNotInCandidates,
    IoFailure,
    MalformedRecord,
    NonMonotoneTurnIndex,
    ScoreOutOfRange,
)
from twinmdp.trajectories import (
    LABELS,
    Entity,
    JudgeScores,
    RawStep,
    RawTrajectory,
    atomic_open,
    atomic_write_text,
    load_corpus,
    read_json,
    save_corpus,
    write_json,
    write_jsonl,
)
from twinmdp.nets import Mlp
from twinmdp.offline_rl import QPolicy, TabularQ, save_policy
from twinmdp.reward_learning import save_reward_net
from twinmdp.simulator import (ScenarioConfig, SimScenario, generate_scenario,
                               load_scenarios, save_scenarios)
from twinmdp.pipeline import read_rewards
from twinmdp.topology import make_graph


def entity(name, etype="Pod"):
    return Entity(name=name, etype=etype)


def make_trajectory(traj_id="t0", n_steps=3, fpc=50.0, rce=100.0):
    a, b, c = entity("a"), entity("b"), entity("c")
    ents = [a, b, c]
    steps = []
    assessments = {}
    for t in range(n_steps):
        chosen = ents[t % 3]
        assessments = dict(assessments)
        assessments[chosen] = ["primary", "cascading", "normal"][t % 3]
        steps.append(
            RawStep(
                turn_index=t,
                chosen_entity=chosen,
                candidate_entities=(a, b, c),
                assessments=assessments,
                intermediate_reward=None,
            )
        )
    return RawTrajectory(
        trajectory_id=traj_id,
        scenario_id="scn",
        symptom_entity=c,
        steps=tuple(steps),
        scores=JudgeScores(fpc_accuracy=fpc, rce_identification=rce),
        final_root_cause=a,
    )


class TestEntity:
    def test_hash_is_the_field_tuple_hash(self):
        for e in (entity("a"), entity("frontend", "Service"), entity("a", "Node")):
            assert hash(e) == hash((e.name, e.etype))

    def test_equality_and_ordering_follow_the_fields(self):
        a, a2, b, a_node = entity("a"), entity("a"), entity("b"), entity("a", "Node")
        assert a == a2 and a != b and a != a_node and a != ("a", "Pod")
        assert sorted([b, a, a_node]) == [a_node, a, b]
        assert (a < b) == (("a", "Pod") < ("b", "Pod"))
        assert repr(a) == "Entity(name='a', etype='Pod')"

    def test_copies_and_pickles_are_equal(self):
        e = entity("frontend", "Service")
        for other in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert other == e and hash(other) == hash(e)
            assert {other: 1}[e] == 1

    def test_unpickled_hash_is_recomputed_in_this_process(self):
        # a pickle written under another string-hash seed must not carry its hash
        script = ("import pickle, sys; from twinmdp.trajectories import Entity; "
                  "sys.stdout.buffer.write(pickle.dumps(Entity('frontend', 'Service')))")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(sys.path))
        data = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, check=True).stdout
        e = pickle.loads(data)
        assert hash(e) == hash(("frontend", "Service"))
        assert e in {entity("frontend", "Service")}

    @pytest.mark.parametrize("name, etype", [(5, "Pod"), ("a", 5), ("", "Pod"),
                                             ("a", None), (b"a", "Pod")])
    def test_name_and_etype_must_be_non_empty_strings(self, name, etype):
        with pytest.raises(MalformedRecord, match="non-empty strings"):
            Entity(name=name, etype=etype)

    @pytest.mark.parametrize("entity_first", [True, False])
    def test_an_entity_and_its_plain_tuple_are_different_keys(self, entity_first):
        e, plain = entity("a"), ("a", "Pod")
        keys = [e, plain] if entity_first else [plain, e]
        table = {k: i for i, k in enumerate(keys)}
        members = set(keys)
        assert len(table) == 2 and len(members) == 2
        assert table[e] == keys.index(e) and table[plain] == keys.index(plain)
        assert {type(k) for k in table} == {Entity, tuple}
        assert e != plain and plain != e and not (e == plain) and not (plain == e)


class TestValidation:
    def test_chosen_must_be_candidate(self):
        with pytest.raises(ChosenEntityNotInCandidates):
            RawStep(
                turn_index=0,
                chosen_entity=entity("x"),
                candidate_entities=(entity("a"),),
            )

    def test_turn_indices_must_be_dense(self):
        a = entity("a")
        steps = (
            RawStep(turn_index=0, chosen_entity=a, candidate_entities=(a,)),
            RawStep(turn_index=2, chosen_entity=a, candidate_entities=(a,)),
        )
        with pytest.raises(NonMonotoneTurnIndex):
            RawTrajectory(
                trajectory_id="t",
                scenario_id="s",
                symptom_entity=a,
                steps=steps,
                scores=JudgeScores(0.0, 0.0),
            )

    def test_empty_steps_rejected(self):
        with pytest.raises(MalformedRecord):
            RawTrajectory(
                trajectory_id="t",
                scenario_id="s",
                symptom_entity=entity("a"),
                steps=(),
                scores=JudgeScores(0.0, 0.0),
            )

    def test_score_ranges(self):
        with pytest.raises(ScoreOutOfRange):
            JudgeScores(fpc_accuracy=101.0, rce_identification=0.0)
        with pytest.raises(ScoreOutOfRange):
            JudgeScores(fpc_accuracy=50.0, rce_identification=50.0)

    def test_bad_label_rejected(self):
        a = entity("a")
        with pytest.raises(MalformedRecord):
            RawStep(
                turn_index=0,
                chosen_entity=a,
                candidate_entities=(a,),
                assessments={a: "broken"},
            )

    def test_steps_and_trajectories_are_not_hashable(self):
        # their assessments dicts cannot be hashed, so they must not claim a hash
        traj = make_trajectory()
        for obj in (traj, traj.steps[0]):
            assert not isinstance(obj, collections.abc.Hashable)
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)


class TestCorpusIo:
    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_round_trip_identity(self, tmp_path):
        trajs = [make_trajectory("a"), make_trajectory("b", n_steps=5, rce=0.0)]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        assert path.read_text().count("\n") == 2
        loaded = load_corpus(path)
        assert loaded == trajs

    def test_double_round_trip_is_stable(self, tmp_path):
        trajs = [make_trajectory("a")]
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_corpus(trajs, p1)
        save_corpus(load_corpus(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_rce_must_be_all_or_nothing(self, tmp_path):
        trajs = [make_trajectory("a")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        broken = path.read_text().replace('"rce_identification": 100.0',
                                          '"rce_identification": 50')
        path.write_text(broken)
        with pytest.raises(ScoreOutOfRange) as exc:
            load_corpus(path)
        assert "line 1" in str(exc.value)

    def test_error_names_offending_line(self, tmp_path):
        trajs = [make_trajectory("a"), make_trajectory("b")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"turn_index": 1', '"turn_index": 7')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonMonotoneTurnIndex) as exc:
            load_corpus(path)
        assert "line 2" in str(exc.value)

    def test_a_non_string_name_is_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_trajectory("a"), make_trajectory("b")], path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"name": "b"', '"name": 5', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match="non-empty strings") as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_loaded_mentions_of_an_entity_are_one_object(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_trajectory("a"), make_trajectory("b")], path)
        first, second = load_corpus(path)
        a = first.final_root_cause
        assert second.final_root_cause is a
        assert all(s.candidate_entities[0] is a for t in (first, second) for s in t.steps)

    def test_unknown_fields_rejected(self, tmp_path):
        trajs = [make_trajectory("a")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        line = path.read_text().rstrip()
        path.write_text(line[:-1] + ', "mystery": 1}\n')
        with pytest.raises(MalformedRecord):
            load_corpus(path)

    def test_invalid_json_is_malformed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{not json\n")
        bad_line = "^" + re.escape(f"line 1: malformed corpus {path}: JSONDecodeError")
        with pytest.raises(MalformedRecord, match=bad_line) as exc:
            load_corpus(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("field, value", [("scenario_id", 7), ("trajectory_id", ["b"]),
                                              ("trajectory_id", None)])
    def test_a_non_string_id_is_rejected_with_its_line(self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_trajectory("a"), make_trajectory("b")], path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match="must be strings") as exc:
            load_corpus(path)
        assert exc.value.line == 2

    def test_duplicate_ids_warn_but_load(self, tmp_path):
        trajs = [make_trajectory("same"), make_trajectory("same")]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        duplicate = re.escape(f"duplicate trajectory_id 'same' in corpus {path}")
        with pytest.warns(UserWarning, match=duplicate):
            loaded = load_corpus(path)
        assert len(loaded) == 2

    def test_many_records_one_line_each(self, tmp_path):
        rng = np.random.default_rng(0)
        trajs = [
            make_trajectory(f"t{i}", n_steps=int(rng.integers(1, 6)),
                            fpc=float(rng.uniform(0, 100)),
                            rce=float(rng.choice([0.0, 100.0])))
            for i in range(60)
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(trajs, path)
        assert len(path.read_text().splitlines()) == 60
        assert load_corpus(path) == trajs

    def test_corpus_scale_sanity(self, tmp_path):
        # one line per trajectory at a few-hundred-episode corpus scale
        trajs = [make_trajectory(f"t{i}", n_steps=1) for i in range(819)]
        path = tmp_path / "big.jsonl"
        save_corpus(trajs, path)
        assert len(path.read_text().splitlines()) == 819


class TestAtomicWrite:
    def test_replaces_the_file_with_plain_write_permissions(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "old\n")
        atomic_write_text(path, "new\n")
        (tmp_path / "plain.txt").write_text("x")
        assert path.read_text() == "new\n"
        assert path.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "plain.txt"]

    def test_a_write_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "a.csv"
        atomic_write_text(path, "old\n")
        with pytest.raises(RuntimeError):
            with atomic_open(path, newline="") as fh:
                fh.write("partial")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]

    def test_a_corpus_save_that_fails_midway_keeps_the_previous_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus([make_trajectory("t0")], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            save_corpus([make_trajectory("t1"), object()], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


class TestArtifactFormat:
    def test_each_writer_produces_the_pinned_bytes(self, tmp_path):
        a, b = Entity("a", "Pod"), Entity("b", "Service")
        graph = make_graph([a, b], [(a, b)])
        nodes = ('"nodes": [{"etype": "Pod", "name": "a"}, '
                 '{"etype": "Service", "name": "b"}]')
        save_scenarios([SimScenario("s0", graph, a, (a, b), b, 0.25, 3)],
                       tmp_path / "scenarios.jsonl")
        save_reward_net(Mlp.from_params(1, 1, np.array([0.5, -1.0, 2.0, 0.25, 1.5, 0.0])),
                        tmp_path / "reward_net.json")
        save_policy(QPolicy(TabularQ({(1.0, 0.0): 0}, np.array([[0.5, -1.5]]), 0.9), 0.1),
                    tmp_path / "policy.json", metadata={"id": "p"})
        step = AbstractStep(np.array([1.0, 0.0]), 1, 0.5, [0, 1])
        save_abstract_corpus([AbstractTrajectory("t0", "s0", "nametype", [step],
                                                 JudgeScores(50.0, 100.0))],
                             tmp_path / "abstract.jsonl")
        write_json(tmp_path / "x.manifest.json",
                   {"stage": "x", "outputs": {"b.json": "00"}, "seed": 1}, "manifest", indent=2)
        expected = {
            "scenarios.jsonl": (
                '{"chain": [{"etype": "Pod", "name": "a"}, {"etype": "Service", "name": "b"}], '
                '"evidence_noise": 0.25, "graph": {"edges": [[0, 1]], ' + nodes + '}, '
                '"root_cause": {"etype": "Pod", "name": "a"}, "scenario_id": "s0", "seed": 3, '
                '"symptom": {"etype": "Service", "name": "b"}}\n'),
            "reward_net.json": ('{"format_version": 1, "layer_dims": [1, 1, 1, 1], '
                                '"params": [0.5, -1.0, 2.0, 0.25, 1.5, 0.0]}\n'),
            "policy.json": ('{"form": "tabular", "format_version": 1, "gamma": 0.9, '
                            '"metadata": {"id": "p"}, "q": [[0.5, -1.5]], '
                            '"states": [[1.0, 0.0]], "temperature": 0.1}\n'),
            "abstract.jsonl": (
                '{"actions": [0, 1], "cand_id": [0, 1], "cand_offsets": [0, 2], '
                '"format_version": 1, "fpc_accuracy": [50.0], "rce_identification": [100.0], '
                '"rewards": [0.5], "scenario_ids": ["s0"], "scheme": "nametype", '
                '"state_id": [0], "states": [[1.0, 0.0]], "step_offsets": [0, 1], '
                '"taken": [1], "trajectory_ids": ["t0"]}\n'),
            "x.manifest.json": ('{\n  "outputs": {\n    "b.json": "00"\n  },\n'
                                '  "seed": 1,\n  "stage": "x"\n}\n'),
        }
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == expected

    def test_a_failed_write_names_the_file(self, tmp_path):
        path = tmp_path / "missing" / "report.json"
        with pytest.raises(IoFailure, match="cannot write report .*report.json"):
            write_json(path, {}, "report")

    def test_a_wrong_format_version_is_rejected(self, tmp_path):
        path = tmp_path / "policy.json"
        write_json(path, {"format_version": 2}, "policy")
        with pytest.raises(MalformedRecord, match="unsupported policy format 2"):
            read_json(path, "policy", version=1)
        assert read_json(path, "policy", version=2) == {"format_version": 2}


# names and ids with non-ASCII, quote, backslash and control characters
TEXT = st.one_of(st.sampled_from(['a', 'svc-01', 'é', '日本', '"', '\\', 'a"b\\c', '\n',
                                  ' ', '\U0001f600', 'Pod']),
                 st.text(min_size=1, max_size=5))
REWARDS = st.one_of(st.none(), st.just(-0.0), st.just(float("nan")),
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def raw_trajectories(draw, index=0):
    """A trajectory whose mentions of one entity are distinct equal objects
    (two "graphs"), with assessments inserted in drawn (unsorted) order."""
    fields = draw(st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=5, unique=True))
    graphs = [[Entity(n, t) for n, t in fields] for _ in range(2)]
    node = st.integers(0, len(fields) - 1)
    graph = st.integers(0, 1)
    steps = []
    for t in range(draw(st.integers(1, 4))):
        g = graphs[draw(graph)]
        candidates = [g[i] for i in draw(st.lists(node, min_size=1, max_size=4))]
        assessments = {}
        for i, label in draw(st.lists(st.tuples(node, st.sampled_from(LABELS)), max_size=6)):
            assessments[graphs[draw(graph)][i]] = label
        steps.append(RawStep(turn_index=t, chosen_entity=draw(st.sampled_from(candidates)),
                             candidate_entities=tuple(candidates), assessments=assessments,
                             intermediate_reward=draw(REWARDS)))
    return RawTrajectory(
        trajectory_id=f"t{index}-{draw(TEXT)}",
        scenario_id=draw(TEXT),
        symptom_entity=graphs[draw(graph)][draw(node)],
        steps=tuple(steps),
        scores=JudgeScores(draw(st.floats(0.0, 100.0)),
                           draw(st.sampled_from([0.0, 100.0, 0, 100]))),
        final_root_cause=draw(st.one_of(st.none(), st.sampled_from(graphs[1]))),
    )


@st.composite
def raw_corpora(draw):
    return [draw(raw_trajectories(i)) for i in range(draw(st.integers(0, 3)))]


def has_nan(traj) -> bool:
    return any(s.intermediate_reward != s.intermediate_reward for s in traj.steps)


class TestCorpusWriter:
    @settings(max_examples=150, deadline=None)
    @given(trajs=raw_corpora())
    def test_each_line_is_the_sorted_key_json_of_the_record(self, trajs, tmp_path_factory):
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        save_corpus(trajs, path)
        expected = "".join(corpus_line_via_dicts(t) + "\n" for t in trajs)
        assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(trajs=raw_corpora())
    def test_load_inverts_save(self, trajs, tmp_path_factory):
        p1 = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        p2, p3 = p1.with_name("again.jsonl"), p1.with_name("third.jsonl")
        save_corpus(trajs, p1)
        loaded = load_corpus(p1)
        assert [t for t in loaded if not has_nan(t)] == [t for t in trajs if not has_nan(t)]
        assert [[s.intermediate_reward != s.intermediate_reward for s in t.steps]
                for t in loaded] == [[s.intermediate_reward != s.intermediate_reward
                                      for s in t.steps] for t in trajs]
        # loading makes the scores floats; from there on a save is a fixed point
        save_corpus(loaded, p2)
        save_corpus(load_corpus(p2), p3)
        assert p3.read_bytes() == p2.read_bytes()

    def test_scalars_of_other_types_keep_the_json_encoding(self, tmp_path):
        a = entity("a")
        steps = (RawStep(0, a, (a,), {a: "primary"}, np.float64(0.25)),
                 RawStep(True, a, (a,), {}, float("-inf")))  # True == 1 passes
        traj = RawTrajectory("t", "s", a, steps, JudgeScores(np.float64(12.5), 100), a)
        save_corpus([traj], tmp_path / "corpus.jsonl")
        line = (tmp_path / "corpus.jsonl").read_text()
        assert line == corpus_line_via_dicts(traj) + "\n"
        assert '"turn_index": true' in line and "-Infinity" in line


# float values of states, features and rewards, with -0.0, NaN and infinities
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan"), float("inf"),
                                    float("-inf")]),
                   st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def abstract_corpora(draw):
    """Abstract trajectories of one scheme and one state width: the topology
    scheme (feature actions) or the nametype scheme (index actions, plain or
    numpy ints). Rows come from small pools, as distinct equal arrays, so
    writers that share equal rows are exercised; with ``hmm`` each state ends
    in a one-hot. Each trajectory has a step, and each step takes one of its
    candidates."""
    features = draw(st.booleans())
    width = draw(st.integers(1, 4))
    hmm = draw(st.integers(0, 3))
    dtype = draw(st.sampled_from([float, float, int]))  # int states: zero bytes as 0.0's
    row = st.lists(VALUES, min_size=width, max_size=width)
    states = draw(st.lists(row if dtype is float else st.lists(
        st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=3))
    if features:
        pool = draw(st.lists(row, min_size=1, max_size=4))
        action = st.sampled_from(pool).map(lambda r: np.array(r, dtype=float))
    else:
        action = st.tuples(st.integers(0, 9), st.sampled_from([int, np.int64, np.int32])
                           ).map(lambda t: t[1](t[0]))
    trajs = []
    for index in range(draw(st.integers(0, 3))):
        steps = []
        for _ in range(draw(st.integers(1, 4))):  # a trajectory without steps is malformed
            state = np.array(draw(st.sampled_from(states)), dtype=dtype)
            if hmm:
                state = np.concatenate([state, np.eye(hmm)[draw(st.integers(0, hmm - 1))]])
            reward = draw(st.one_of(VALUES, VALUES.map(np.float64)))
            candidates = draw(st.lists(action, min_size=1, max_size=4))
            steps.append(AbstractStep(state=state, action=draw(st.sampled_from(candidates)),
                                      reward=reward, candidates=candidates))
        trajs.append(AbstractTrajectory(
            trajectory_id=f"t{index}-{draw(TEXT)}", scenario_id=draw(TEXT),
            scheme="topology" if features else "nametype", steps=steps,
            scores=JudgeScores(draw(st.floats(0.0, 100.0)),
                               draw(st.sampled_from([0.0, 100.0, 0, 100])))))
    return trajs


def same_values(a, b) -> bool:
    """Equal as float64 numbers, zeros of the same sign, NaN where ``b`` has NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    real = ~np.isnan(b)
    return (a.shape == b.shape and np.array_equal(np.isnan(a), ~real)
            and np.array_equal(a[real], b[real])
            and np.array_equal(np.signbit(a[real]), np.signbit(b[real])))


class TestAbstractCorpusWriter:
    @settings(max_examples=150, deadline=None)
    @given(trajs=abstract_corpora())
    def test_the_file_is_the_sorted_key_json_of_the_tables(self, trajs, tmp_path_factory):
        path = tmp_path_factory.mktemp("abstract") / "abstract.jsonl"
        save_abstract_corpus(trajs, path)
        assert path.read_bytes() == (abstract_tables_via_dicts(trajs) + "\n").encode("ascii")

    @settings(max_examples=100, deadline=None)
    @given(trajs=abstract_corpora())
    def test_load_inverts_save(self, trajs, tmp_path_factory):
        p1 = tmp_path_factory.mktemp("abstract") / "abstract.jsonl"
        p2, p3 = p1.with_name("again.jsonl"), p1.with_name("third.jsonl")
        save_abstract_corpus(trajs, p1)
        loaded = load_abstract_corpus(p1)
        assert len(loaded) == len(trajs)
        for got, want in zip(loaded, trajs):
            assert (got.trajectory_id, got.scenario_id, got.scheme, got.scores) == (
                want.trajectory_id, want.scenario_id, want.scheme, want.scores)
            assert len(got.steps) == len(want.steps)
            for a, b in zip(got.steps, want.steps):
                assert same_values(a.state, b.state) and same_values(a.reward, b.reward)
                for x, y in zip([a.action, *a.candidates], [b.action, *b.candidates]):
                    if isinstance(y, (int, np.integer)):
                        assert type(x) is int and x == y
                    else:
                        assert same_values(x, y)
        # loading makes the states floats; from there on a save is a fixed point
        save_abstract_corpus(loaded, p2)
        save_abstract_corpus(load_abstract_corpus(p2), p3)
        assert p3.read_bytes() == p2.read_bytes()

    def test_rows_that_differ_only_in_the_sign_of_a_zero_stay_apart(self, tmp_path):
        a, b = np.array([-0.0, 0.0]), np.array([0.0, 0.0])
        steps = [AbstractStep(np.zeros(2, dtype=int), a, 0.0, [b, a]),
                 AbstractStep(np.array([-0.0, 0.0]), b, -0.0, [b, a])]
        traj = AbstractTrajectory("t", "s", "topology", steps, JudgeScores(0.0, 0.0))
        save_abstract_corpus([traj], tmp_path / "abstract.jsonl")
        text = (tmp_path / "abstract.jsonl").read_text()
        assert text == abstract_tables_via_dicts([traj]) + "\n"
        assert '"states": [[0.0, 0.0], [-0.0, 0.0]]' in text
        assert '"actions": [[0.0, 0.0], [-0.0, 0.0]]' in text
        assert '"rewards": [0.0, -0.0]' in text and '"taken": [1, 0]' in text
        loaded = load_abstract_corpus(tmp_path / "abstract.jsonl")
        assert [np.signbit(s.action).tolist() for s in loaded[0].steps] == [[True, False],
                                                                            [False, False]]


class TestJsonLinesErrors:
    """A malformed line of a JSON-lines artifact is reported by its 1-based
    line in the file, as load_corpus reports a corpus line."""

    def test_a_reward_file_cut_inside_a_line_names_that_line(self, tmp_path):
        step = AbstractStep(np.array([1.0, 0.0]), np.array([0.5, 2.0]), 0.5,
                            [np.array([0.5, 2.0])])
        trajs = [AbstractTrajectory(f"t{i}", "s0", "topology", [step] * 3,
                                    JudgeScores(50.0, 100.0)) for i in range(8)]
        save_abstract_corpus(trajs, tmp_path / "abstract.jsonl")
        corpus = load_abstract_corpus(tmp_path / "abstract.jsonl")
        path = tmp_path / "rewards_irl.jsonl"
        write_jsonl(path, ({"rewards": [0.25, 0.5, 1.0], "trajectory_id": f"t{i}"}
                           for i in range(8)), "rewards")
        assert read_rewards(path, corpus).tolist() == [0.25, 0.5, 1.0] * 8
        text = path.read_text()
        cut = sum(len(line) + 1 for line in text.splitlines()[:5]) + 20
        path.write_text(text[:cut])
        with pytest.raises(MalformedRecord, match="^line 6: malformed rewards") as exc:
            read_rewards(path, corpus)
        assert exc.value.line == 6

    def test_a_scenarios_file_names_the_bad_line(self, tmp_path):
        scenarios = [generate_scenario(ScenarioConfig(n_nodes=6), seed, f"s{seed}")
                     for seed in range(3)]
        path = tmp_path / "scenarios.jsonl"
        save_scenarios(scenarios, path)
        lines = path.read_text().splitlines()
        assert [s.scenario_id for s in load_scenarios(path)] == ["s0", "s1", "s2"]
        # invalid JSON, then a missing field, on line 4 after a blank line 3
        for broken in (lines[2][:40], lines[2].replace('"seed"', '"sed"')):
            path.write_text("\n".join(lines[:2] + ["", broken]) + "\n")
            with pytest.raises(MalformedRecord, match="^line 4: malformed scenarios") as exc:
                load_scenarios(path)
            assert exc.value.line == 4

    def test_a_bad_entity_in_a_scenarios_file_names_its_line(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        save_scenarios([generate_scenario(ScenarioConfig(n_nodes=6), 0, "s0")] * 2, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"name": "svc-00"', '"name": 0')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedRecord, match="non-empty strings") as exc:
            load_scenarios(path)
        assert exc.value.line == 2
