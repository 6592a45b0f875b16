import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bc_network_per_step,
    bc_tabular_by_state_action,
    cql_network_per_step,
    cql_tabular_by_state_action,
    softmax_mp,
)
from test_nets import assert_close
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.errors import DimensionMismatch, EmptyData, MalformedRecord
from twinmdp.nets import Adam, Mlp, grouped_max, grouped_softmax
from twinmdp.offline_rl import (
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    bc_train,
    build_transitions,
    cql_train,
    load_policy,
    policy_probs,
    save_policy,
)
from twinmdp.trajectories import JudgeScores


def make_traj(steps, traj_id="t", scheme="name"):
    return AbstractTrajectory(trajectory_id=traj_id, scenario_id="s",
                              scheme=scheme, steps=steps,
                              scores=JudgeScores(0.0, 0.0))


def index_step(state_id, action, reward, n_actions):
    return AbstractStep(state=np.array([float(state_id)]), action=action,
                        reward=reward, candidates=list(range(n_actions)))


# --- deterministic episodic MDPs ----------------------------------------------------

def random_episodic_mdp(rng, n_states, n_actions):
    """Deterministic MDP; action 0 always ends the episode (absorbing)."""
    nxt = np.empty((n_states, n_actions), dtype=int)
    nxt[:, 0] = -1  # terminal
    for a in range(1, n_actions):
        nxt[:, a] = rng.integers(0, n_states, size=n_states)
    rewards = rng.uniform(-1, 1, size=(n_states, n_actions))
    return nxt, rewards


def rollout_corpus(nxt, rewards, rng, n_episodes=60, horizon=8):
    n_states, n_actions = rewards.shape
    trajs = []
    seen = set()

    def episode(start, first_action=None):
        s = start
        steps = []
        for t in range(horizon):
            if first_action is not None and t == 0:
                a = first_action
            elif t == horizon - 1:
                a = 0
            else:
                a = int(rng.integers(0, n_actions))
            seen.add((s, a))
            steps.append(index_step(s, a, rewards[s, a], n_actions))
            if nxt[s, a] < 0:
                break
            s = nxt[s, a]
        return make_traj(steps, traj_id=f"e{len(trajs)}")

    for _ in range(n_episodes):
        trajs.append(episode(int(rng.integers(0, n_states))))
    for s in range(n_states):
        for a in range(n_actions):
            if (s, a) not in seen:
                trajs.append(episode(s, first_action=a))
    return trajs


def value_iteration_terminal(nxt, rewards, gamma, iters=400):
    q = np.zeros_like(rewards)
    for _ in range(iters):
        cont = np.where(nxt >= 0, q[np.maximum(nxt, 0)].max(axis=2), 0.0)
        q = rewards + gamma * cont
    return q


class TestCqlTabular:
    def test_gamma_zero_alpha_zero_learns_mean_reward(self):
        # same (state, action) cell with different rewards -> empirical mean
        steps_a = [index_step(0, 0, 1.0, 2), index_step(1, 0, 0.0, 2)]
        steps_b = [index_step(0, 0, 3.0, 2), index_step(1, 1, 0.0, 2)]
        trajs = [make_traj(steps_a, "a"), make_traj(steps_b, "b")]
        cfg = TrainConfig(alpha=0.0, gamma=0.0, iterations=400, target_refresh=100,
                          seed=0)
        q = cql_train(trajs, cfg)
        sid = q.state_id(np.array([0.0]))
        assert q.q[sid, 0] == pytest.approx(2.0)

    def test_alpha_zero_matches_value_iteration(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n_states = int(rng.integers(2, 6))
            n_actions = int(rng.integers(2, 4))
            nxt, rewards = random_episodic_mdp(rng, n_states, n_actions)
            trajs = rollout_corpus(nxt, rewards, rng)
            gamma = 0.9
            cfg = TrainConfig(alpha=0.0, gamma=gamma, iterations=40000,
                              target_refresh=100, seed=trial)
            q = cql_train(trajs, cfg)
            want = value_iteration_terminal(nxt, rewards, gamma)
            got = np.stack([
                q.values(np.array([float(s)]), list(range(n_actions)))
                for s in range(n_states)
            ])
            assert np.max(np.abs(got - want)) < 1e-3
            assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    def test_conservatism_pushes_unseen_actions_down(self):
        rng = np.random.default_rng(1)
        nxt, rewards = random_episodic_mdp(rng, 3, 2)
        trajs = rollout_corpus(nxt, rewards, rng, n_episodes=30)
        # rebuild the corpus with action 1 never taken at state 0 but still
        # listed as a candidate there; both alpha settings see this same data
        filtered = []
        for traj in trajs:
            steps = [s for s in traj.steps
                     if not (s.state[0] == 0.0 and s.action == 1)]
            if steps:
                filtered.append(make_traj(steps, traj.trajectory_id))
        base_cfg = dict(gamma=0.9, iterations=2000, target_refresh=100,
                        step_size=0.05, seed=0)
        q0 = cql_train(filtered, TrainConfig(alpha=0.0, **base_cfg))
        q5 = cql_train(filtered, TrainConfig(alpha=5.0, **base_cfg))
        s0 = np.array([0.0])
        unseen0 = q0.values(s0, [1])[0]
        unseen5 = q5.values(s0, [1])[0]
        assert unseen5 <= unseen0 + 1e-9

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyData):
            cql_train([], TrainConfig())


def index_corpus(rng, n_episodes=30, n_states=4, n_actions=6, n_candidates=None):
    """Index-action episodes over a few states, each step offered 1 to
    n_actions of the actions (or ``n_candidates``, a half-open range) in a
    random order."""
    low, high = n_candidates or (1, n_actions + 1)
    trajs = []
    for i in range(n_episodes):
        steps = []
        for _ in range(int(rng.integers(1, 6))):
            cands = [int(c) for c in rng.choice(n_actions, size=int(rng.integers(low, high)),
                                                replace=False)]
            steps.append(AbstractStep(state=np.array([float(rng.integers(n_states))]),
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=float(rng.normal()), candidates=cands))
        trajs.append(make_traj(steps, f"i{i}"))
    return trajs


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_row_cells_give_the_state_action_cells_bit_for_bit(alpha):
    """Tabular CQL and BC on one cell per distinct row equal the matrix of a
    cell per (state, action id), which the policy file stores."""
    trajs = index_corpus(np.random.default_rng(13))
    table = build_transitions(trajs)
    cfg = TrainConfig(alpha=alpha, gamma=0.9, iterations=300, target_refresh=50,
                      step_size=0.05, seed=0)
    q = cql_train(trajs, cfg)
    first_seen = list(dict.fromkeys(map(tuple, table.states.tolist())))
    assert list(q.state_index) == first_seen != list(map(tuple, table.corpus.states.tolist()))
    assert q.q.tobytes() == cql_tabular_by_state_action(table, cfg).tobytes()
    assert bc_train(trajs, cfg).q.q.tobytes() == bc_tabular_by_state_action(table).tobytes()


@st.composite
def repeated_candidate_corpora(draw):
    """Index corpora whose steps draw their candidate lists from a small pool:
    one list that most steps repeat, the same ids in other orders, the list
    with its first id offered twice, and single ids; with a CQL config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_actions = draw(st.integers(1, 6))
    n_states = draw(st.integers(1, 4))
    base = [int(c) for c in rng.permutation(n_actions)[:draw(st.integers(1, n_actions))]]
    pool = [base, base[::-1], [int(c) for c in rng.permutation(base)], base + base[:1],
            [base[0]], [int(rng.integers(n_actions))]]
    weights = np.array([6.0, 1, 1, 1, 1, 1]) / 11
    trajs = []
    for i in range(draw(st.integers(1, 12))):
        steps = []
        for _ in range(int(rng.integers(1, 7))):
            cands = pool[rng.choice(len(pool), p=weights)]
            steps.append(AbstractStep(state=np.array([float(rng.integers(n_states))]),
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=float(np.round(rng.normal(), 1)),
                                      candidates=list(cands)))
        trajs.append(make_traj(steps, f"r{i}"))
    iterations, refresh = draw(st.sampled_from([(7, 20), (250, 100), (60, 20), (30, 1)]))
    cfg = TrainConfig(alpha=draw(st.sampled_from([0.0, 0.5, 2.0])),
                      gamma=draw(st.sampled_from([0.0, 0.9])), iterations=iterations,
                      target_refresh=refresh, step_size=0.05, seed=0)
    return trajs, cfg


@settings(max_examples=80, deadline=None, derandomize=True)
@given(repeated_candidate_corpora())
def test_tabular_cql_equals_the_state_action_cells_bit_for_bit(case):
    """One softmax per ordered row sequence and one ordered scatter per step
    give the per-entry softmax and three scatters of the cell-per-(state,
    action id) loop, bit for bit, when many steps repeat one candidate list,
    offer its ids in other orders or offer a single id."""
    trajs, cfg = case
    table = build_transitions(trajs)
    seq_rows, offsets, position = table.row_sequences
    assert np.array_equal(seq_rows[position], table.row_id)
    keys = [tuple(seq_rows[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
    assert len(set(keys)) == len(keys)
    assert cql_train(trajs, cfg).q.tobytes() == cql_tabular_by_state_action(table, cfg).tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("short,whole", [((7, 20), (20, 20)), ((300, 200), (200, 200))],
                         ids=["one_block_of_20", "one_block_of_200"])
def test_tabular_cql_runs_whole_target_refresh_blocks(short, whole, alpha):
    """Tabular CQL runs max(1, iterations // target_refresh) whole blocks:
    7 iterations with refresh 20 are 20 steps, 300 with refresh 200 are 200."""
    trajs = index_corpus(np.random.default_rng(5))
    fit = [cql_train(trajs, TrainConfig(alpha=alpha, gamma=0.9, iterations=i,
                                        target_refresh=r, step_size=0.05, seed=0)).q
           for i, r in (short, whole)]
    assert fit[0].tobytes() == fit[1].tobytes()


class TestCqlNetwork:
    def test_learns_immediate_reward_regression(self):
        rng = np.random.default_rng(2)
        trajs = []
        for i in range(40):
            state = rng.normal(size=2)
            action = rng.normal(size=2)
            reward = float(state @ np.array([1.0, -1.0]) + action.sum())
            step = AbstractStep(state=state, action=action, reward=reward,
                                candidates=[action])
            trajs.append(make_traj([step], f"t{i}", scheme="topology"))
        cfg = TrainConfig(alpha=0.0, gamma=0.0, iterations=3000, batch_size=16,
                          hidden_units=32, step_size=3e-3, seed=0)
        q = cql_train(trajs, cfg)
        errs = []
        for traj in trajs[:10]:
            step = traj.steps[0]
            got = q.values(step.state, [step.action])[0]
            errs.append(abs(got - step.reward))
        assert np.mean(errs) < 0.15

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        trajs = []
        for i in range(10):
            action = rng.normal(size=2)
            step = AbstractStep(state=rng.normal(size=2), action=action,
                                reward=float(rng.normal()), candidates=[action])
            trajs.append(make_traj([step], f"t{i}", scheme="topology"))
        cfg = TrainConfig(iterations=200, hidden_units=8, seed=4)
        q1 = cql_train(trajs, cfg)
        q2 = cql_train(trajs, cfg)
        assert np.array_equal(q1.net.params, q2.net.params)


# --- the per-learner loops the one minibatch trainer replaced -------------------------

def reference_cql_network(table, cfg):
    rows = table.rows(table.encoding)  # one row per entry, repeats included
    net = Mlp(rows.shape[1], cfg.hidden_units, seed=cfg.seed)
    optimizer = Adam(net.params, step_size=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    for it in range(cfg.iterations):
        if it % max(1, cfg.target_refresh) == 0:
            target = net.copy()
        batch = rng.choice(table.n, size=min(cfg.batch_size, table.n), replace=False)
        b = len(batch)
        targets = table.corpus.rewards[batch].copy()
        live = np.flatnonzero(~table.terminal[batch])
        if len(live):
            idx, group = table.gather(table.next_step[batch[live]])
            best = grouped_max(target.forward(rows[idx]), group, len(live))
            targets[live] += cfg.gamma * best
        idx, cand_group = table.gather(batch)
        out, acts = net.forward_cached(rows[np.concatenate([table.taken[batch], idx])])
        dout = np.zeros_like(out)
        dout[:b] = 2.0 * (out[:b] - targets) / b
        if cfg.alpha > 0:
            dout[b:] += cfg.alpha * grouped_softmax(out[b:], cand_group, b) / b
            dout[:b] += -cfg.alpha / b
        optimizer.step(net.backward(acts, dout))
    return net


def reference_bc_network(table, cfg):
    rows = table.rows(table.encoding)  # one row per entry, repeats included
    net = Mlp(rows.shape[1], cfg.hidden_units, seed=cfg.seed)
    optimizer = Adam(net.params, step_size=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.iterations):
        batch = rng.choice(table.n, size=min(cfg.batch_size, table.n), replace=False)
        b = len(batch)
        idx, group = table.gather(batch)
        out, acts = net.forward_cached(rows[idx])
        dout = grouped_softmax(out, group, b) / b
        dout[idx == table.taken[batch][group]] -= 1.0 / b
        optimizer.step(net.backward(acts, dout))
    return net


def feature_corpus(rng, n_episodes=12, state_dim=3, action_dim=2, n_candidates=(1, 6)):
    """Multi-step feature-action episodes with 1-5 candidates per turn (or
    ``n_candidates``, a half-open range)."""
    trajs = []
    for i in range(n_episodes):
        steps = []
        for _ in range(int(rng.integers(1, 6))):
            cands = [rng.normal(size=action_dim)
                     for _ in range(int(rng.integers(*n_candidates)))]
            steps.append(AbstractStep(state=rng.normal(size=state_dim),
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=float(rng.normal()), candidates=cands))
        trajs.append(make_traj(steps, f"t{i}", scheme="topology"))
    return trajs


def duplicated_corpus(rng, n_episodes=40, state_dim=3, action_dim=2):
    """Feature episodes over 3 states and 4 actions: at most 12 distinct rows
    behind every candidate entry."""
    states = rng.normal(size=(3, state_dim))
    actions = rng.normal(size=(4, action_dim))
    trajs = []
    for i in range(n_episodes):
        steps = []
        for _ in range(int(rng.integers(1, 6))):
            cands = list(actions[rng.choice(4, size=int(rng.integers(1, 5)), replace=False)])
            steps.append(AbstractStep(state=states[rng.integers(3)],
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=float(rng.normal()), candidates=cands))
        trajs.append(make_traj(steps, f"t{i}", scheme="topology"))
    return trajs


def test_table_stores_each_distinct_row_once():
    table = build_transitions(duplicated_corpus(np.random.default_rng(0)))
    full = table.rows(table.encoding)
    assert len(table.cand_rows) <= 12 < len(full)
    assert table.cand_rows[table.row_id].tobytes() == full.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_distinct_row_gradients_equal_the_full_row_loops(alpha, frozen_gradients):
    """On a table whose every entry repeats one of 12 rows, each step's CQL and
    BC gradient equals the full-row loop's up to summation order."""
    trajs = duplicated_corpus(np.random.default_rng(1))
    table = build_transitions(trajs)
    cfg = TrainConfig(alpha=alpha, gamma=0.7, iterations=40, batch_size=16,
                      hidden_units=8, target_refresh=10, step_size=1e-2, seed=5)
    for fit, reference in ((cql_train, reference_cql_network),
                           (bc_train, reference_bc_network)):
        fit(trajs, cfg)
        got = frozen_gradients[:]
        frozen_gradients.clear()
        reference(table, cfg)
        assert len(got) == len(frozen_gradients) == cfg.iterations
        for g, want in zip(got, frozen_gradients):
            assert_close(g, want)
        frozen_gradients.clear()


def test_backup_equals_a_per_step_loop():
    trajs = feature_corpus(np.random.default_rng(8), n_episodes=10)
    table = build_transitions(trajs)
    values = np.random.default_rng(9).normal(size=table.n)
    want, i = [], 0
    for traj in trajs:
        for t, step in enumerate(traj.steps):
            last = t == len(traj.steps) - 1
            want.append(step.reward if last else step.reward + 0.9 * values[i + 1])
            i += 1
    assert np.array_equal(table.backup(values, 0.9), want)
    assert table.terminal.sum() == 10 and table.n > 10
    assert not np.shares_memory(table.backup(values, 0.9), table.corpus.rewards)


@pytest.mark.parametrize("iterations,refresh", [(60, 20), (50, 20), (7, 20), (30, 1)],
                         ids=["whole_rounds", "partial_last_round", "one_partial_round",
                              "refresh_every_step"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_network_cql_and_bc_equal_their_own_loops(iterations, refresh, alpha):
    trajs = feature_corpus(np.random.default_rng(iterations))
    table = build_transitions(trajs)
    cfg = TrainConfig(alpha=alpha, gamma=0.7, iterations=iterations, batch_size=8,
                      hidden_units=8, target_refresh=refresh, step_size=1e-2, seed=5)
    got = cql_train(trajs, cfg)
    # the targets come from one forward over the distinct candidate rows, and
    # each step forwards a batch's distinct rows once and sums their entries'
    # gradients: the row counts and the summation order differ from the loop's,
    # which moves low bits
    np.testing.assert_allclose(got.net.params, reference_cql_network(table, cfg).params,
                               rtol=0, atol=1e-12)
    # BC's output bias has an exactly zero gradient (a softmax over candidates
    # ignores a common shift), so its gradient is rounding noise (~1e-17) that
    # Adam turns into steps of up to step_size * noise / eps (~1e-11 here);
    # 1e-9 bounds that drift over these runs' 60 steps or fewer
    policy = bc_train(trajs, cfg)
    np.testing.assert_allclose(policy.q.net.params, reference_bc_network(table, cfg).params,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("hidden,batch_size,dims", [(8, 1, (3, 2)), (2, 8, (10, 8))],
                         ids=["single_row_gathers", "hidden_2_wide_rows"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_network_cql_target_cache_matches_the_target_forward(hidden, batch_size, dims,
                                                             alpha):
    """The Bellman targets are built once per refresh from a forward over
    every candidate row; reading them gives what the target's own forward of
    the next step's candidates gives, up to summation order, for single
    next-step candidate rows and narrow layers."""
    trajs = feature_corpus(np.random.default_rng(3), n_episodes=16, state_dim=dims[0],
                           action_dim=dims[1])
    table = build_transitions(trajs)
    live = table.next_step[~table.terminal]
    assert (np.diff(table.corpus.cand_offsets)[live] == 1).any()
    cfg = TrainConfig(alpha=alpha, gamma=0.7, iterations=200, batch_size=batch_size,
                      hidden_units=hidden, target_refresh=20, step_size=1e-2, seed=5)
    got = cql_train(trajs, cfg)
    np.testing.assert_allclose(got.net.params, reference_cql_network(table, cfg).params,
                               rtol=0, atol=1e-12)


# --- the planned loop against the per-step loop it replaced -----------------------------

@pytest.mark.parametrize("corpus,iterations,refresh,batch_size", [
    ("feature", 60, 20, 8), ("feature", 50, 20, 8), ("feature", 7, 20, 8),
    ("feature", 30, 1, 8), ("feature", 130, 120, 8), ("duplicated", 45, 10, 16),
    ("feature", 25, 10, 500)],
    ids=["whole_blocks", "partial_last_block", "one_partial_block", "block_per_step",
         "plans_within_a_block", "repeated_rows", "batch_covers_the_table"])
@pytest.mark.parametrize("fit", ["cql_alpha_0", "cql_alpha_1", "bc"])
def test_planned_loop_equals_the_per_step_loop(corpus, iterations, refresh, batch_size,
                                               fit):
    """Planning each target-refresh block's batches ahead runs the same
    operations on the same arrays as the per-step loop, so the parameters are
    equal bit for bit, with or without a partial last block, when a block takes
    several plans (130 steps, refresh 120: plans of 50, 50, 20 and 10), and
    when a batch is the whole table."""
    make = feature_corpus if corpus == "feature" else duplicated_corpus
    trajs = make(np.random.default_rng(iterations))
    table = build_transitions(trajs)
    assert (batch_size >= table.n) == (corpus == "feature" and batch_size == 500)
    cfg = TrainConfig(alpha=1.0 if fit == "cql_alpha_1" else 0.0, gamma=0.7,
                      iterations=iterations, batch_size=batch_size, hidden_units=8,
                      target_refresh=refresh, step_size=1e-2, seed=5)
    if fit == "bc":
        got, want = bc_train(trajs, cfg).q.net.params, bc_network_per_step(table, cfg)
    else:
        got, want = cql_train(trajs, cfg).net.params, cql_network_per_step(table, cfg)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("fit", [cql_train, bc_train], ids=["cql", "bc"])
def test_one_adam_step_and_one_pass_per_iteration(fit, monkeypatch):
    """The benchmark's layer counts stay truthful: the planned loop makes one
    Adam step, one cached forward and one backward per iteration."""
    calls = {"step": 0, "forward_cached": 0, "backward": 0}

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counting(Adam, "step")
    counting(Mlp, "forward_cached")
    counting(Mlp, "backward")
    cfg = TrainConfig(iterations=47, target_refresh=10, batch_size=8, hidden_units=8, seed=1)
    fit(feature_corpus(np.random.default_rng(4)), cfg)
    assert calls == {"step": 47, "forward_cached": 47, "backward": 47}


def test_taken_entry_is_the_first_match_of_each_step():
    """The one-pass search finds what a per-step scan finds: each step's first
    recorded candidate equal to its action, also when the action repeats."""
    rng = np.random.default_rng(6)
    trajs = feature_corpus(rng, n_episodes=15)
    for traj in trajs[::2]:
        for step in traj.steps:
            step.candidates.insert(int(rng.integers(len(step.candidates) + 1)), step.action)
    want = []
    for traj in trajs:
        for step in traj.steps:
            want.append(next(j for j, c in enumerate(step.candidates)
                             if np.array_equal(c, step.action)))
    table = build_transitions(trajs)
    assert (table.taken - table.corpus.cand_offsets[:-1]).tolist() == want
    index = [make_traj([index_step(0, 1, 0.0, 3), AbstractStep(
        state=np.array([1.0]), action=2, reward=0.0, candidates=[2, 0, 2])])]
    assert build_transitions(index).taken.tolist() == [1, 3]


@pytest.mark.parametrize("kind", ["features", "index"])
def test_taken_action_missing_from_its_candidates_rejected(kind):
    if kind == "features":
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        steps = [AbstractStep(state=np.zeros(2), action=a, reward=0.0, candidates=[a, b]),
                 AbstractStep(state=np.zeros(2), action=a, reward=0.0, candidates=[b])]
    else:
        steps = [index_step(0, 1, 0.0, 3), AbstractStep(
            state=np.array([0.0]), action=2, reward=0.0, candidates=[0, 1])]
    with pytest.raises(MalformedRecord, match="missing from its candidate set"):
        build_transitions([make_traj(steps)])


class TestBehaviorCloning:
    def test_deterministic_behavior_cloned(self):
        trajs = [make_traj([index_step(0, 1, 0.0, 3)], f"t{i}") for i in range(20)]
        policy = bc_train(trajs, TrainConfig(seed=0))
        probs = policy.probs(np.array([0.0]), [0, 1, 2])
        assert probs[1] >= 0.99

    def test_tabular_count_logits(self):
        steps = [index_step(0, 0, 0.0, 2) for _ in range(3)]
        steps += [index_step(0, 1, 0.0, 2)]
        trajs = [make_traj([s]) for s in steps]
        policy = bc_train(trajs, TrainConfig(seed=0))
        probs = policy.probs(np.array([0.0]), [0, 1])
        assert probs[0] == pytest.approx(0.75)
        assert probs[1] == pytest.approx(0.25)

    def test_stochastic_expert_matches_empirical_frequencies(self):
        rng = np.random.default_rng(4)
        target = {0: [0.7, 0.2, 0.1], 1: [0.1, 0.1, 0.8]}
        counts = {s: np.zeros(3) for s in target}
        trajs = []
        for i in range(1500):
            s = int(rng.integers(0, 2))
            a = int(rng.choice(3, p=target[s]))
            counts[s][a] += 1
            trajs.append(make_traj([index_step(s, a, 0.0, 3)], f"t{i}"))
        policy = bc_train(trajs, TrainConfig(seed=0))
        for s in target:
            empirical = counts[s] / counts[s].sum()
            got = policy.probs(np.array([float(s)]), [0, 1, 2])
            assert 0.5 * np.abs(got - empirical).sum() < 1e-9  # exact for tabular

    def test_network_form_approximates_frequencies(self):
        rng = np.random.default_rng(5)
        probs_true = np.array([0.75, 0.25])
        trajs = []
        for i in range(400):
            a = int(rng.choice(2, p=probs_true))
            action = np.array([float(a), 1.0 - float(a)])
            step = AbstractStep(state=np.zeros(2), action=action, reward=0.0,
                                candidates=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
            trajs.append(make_traj([step], f"t{i}", scheme="topology"))
        cfg = TrainConfig(iterations=2000, hidden_units=16, step_size=3e-3, seed=0)
        policy = bc_train(trajs, cfg)
        got = policy.probs(np.zeros(2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        empirical = np.array([
            sum(np.allclose(t.steps[0].action, [1.0, 0.0]) for t in trajs) / 400,
        ])
        assert abs(got[0] - empirical[0]) < 0.05


class TestPolicyProbs:
    def tabular_policy(self, qvals, temperature=1.0):
        q = TabularQ(state_index={(0.0,): 0}, q=np.array([qvals]), gamma=0.9)
        return QPolicy(q=q, temperature=temperature)

    def test_single_candidate(self):
        policy = self.tabular_policy([5.0])
        assert policy.probs(np.array([0.0]), [0]).tolist() == [1.0]

    def test_equal_q_splits_evenly(self):
        policy = self.tabular_policy([1.0, 1.0])
        assert policy.probs(np.array([0.0]), [0, 1]).tolist() == [0.5, 0.5]

    def test_matches_extended_precision_softmax(self):
        policy = self.tabular_policy([2.0, 1.0, 0.0])
        got = policy.probs(np.array([0.0]), [0, 1, 2])
        want = softmax_mp([2.0, 1.0, 0.0])
        assert np.max(np.abs(got - want)) < 1e-12
        assert got[0] == pytest.approx(0.66524096, abs=1e-7)
        assert got[1] == pytest.approx(0.24472847, abs=1e-7)
        assert got[2] == pytest.approx(0.09003057, abs=1e-7)

    def test_sums_to_one_and_permutation_equivariant(self):
        rng = np.random.default_rng(6)
        qvals = rng.normal(size=5).tolist()
        policy = self.tabular_policy(qvals)
        base = policy.probs(np.array([0.0]), [0, 1, 2, 3, 4])
        assert base.sum() == pytest.approx(1.0, abs=1e-9)
        perm = [3, 0, 4, 1, 2]
        shuffled = policy.probs(np.array([0.0]), perm)
        assert np.allclose(shuffled, base[perm])

    def test_shift_invariance(self):
        policy_a = self.tabular_policy([1.0, 2.0, 3.0])
        policy_b = self.tabular_policy([101.0, 102.0, 103.0])
        pa = policy_a.probs(np.array([0.0]), [0, 1, 2])
        pb = policy_b.probs(np.array([0.0]), [0, 1, 2])
        assert np.allclose(pa, pb, atol=1e-12)

    def test_low_temperature_concentrates(self):
        policy = self.tabular_policy([0.4, 0.5], temperature=1e-4)
        probs = policy.probs(np.array([0.0]), [0, 1])
        assert probs[1] >= 0.999

    def test_probs_via_module_function(self):
        policy = self.tabular_policy([0.0, 1.0])
        direct = policy_probs(policy, np.array([0.0]), [0, 1])
        assert np.allclose(direct, policy.probs(np.array([0.0]), [0, 1]))

    def test_an_id_past_the_columns_is_worth_zero_and_a_negative_id_raises(self):
        # ids past the largest one trained on have no column: they get the
        # value 0 that a state training never saw gets
        policy = bc_train([make_traj([index_step(0, 1, 0.0, 2)])], TrainConfig(seed=0))
        q = policy.q.q[0]
        for state, row in ((np.array([0.0]), [q[0], q[1], 0.0, 0.0]),
                           (np.array([5.0]), [0.0, 0.0, 0.0, 0.0])):
            assert policy.probs(state, [0, 1, 2, 7]).tobytes() == policy_probs(
                QPolicy(TabularQ({(float(state[0]),): 0}, np.array([row]), 0.9)), state,
                [0, 1, 2, 3]).tobytes()
        for state in (np.array([0.0]), np.array([5.0])):
            with pytest.raises(DimensionMismatch, match="action id -1 is negative"):
                policy.probs(state, [-1, 1])


class TestNetworkQEncode:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_one_hot_id_outside_the_encoding_raises(self, bad):
        # -1 once set the last column, and an id equal to the size raised a bare IndexError
        onehot = NetworkQ(Mlp(6, 4), 3, {"kind": "onehot", "size": 3}, gamma=0.9)
        with pytest.raises(DimensionMismatch,
                           match=f"action id {bad} outside a one-hot encoding of size 3"):
            onehot.encode(np.zeros(3), [bad])

    def test_rows_and_width_checks(self):
        state = np.array([1.0, 2.0, 3.0])
        feats = NetworkQ(Mlp(5, 4), 3, {"kind": "features", "dim": 2}, gamma=0.9)
        rows = feats.encode(state, [np.array([4.0, 5.0]), np.array([6.0, 7.0])])
        assert np.array_equal(rows, [[1, 2, 3, 4, 5], [1, 2, 3, 6, 7]])
        onehot = NetworkQ(Mlp(6, 4), 3, {"kind": "onehot", "size": 3}, gamma=0.9)
        assert np.array_equal(onehot.encode(state, [2, 0]),
                              [[1, 2, 3, 0, 0, 1], [1, 2, 3, 1, 0, 0]])
        for bad_state, cands in [(np.zeros(2), [np.zeros(2)]),       # state width
                                 (state, [np.zeros(3)]),              # action width
                                 (state, [np.zeros(2), np.zeros(3)])]:  # unequal widths
            with pytest.raises(DimensionMismatch):
                feats.encode(bad_state, cands)


class TestPolicyPersistence:
    def test_tabular_round_trip(self, tmp_path):
        trajs = [make_traj([index_step(0, 1, 1.0, 2)], "a")]
        policy = bc_train(trajs, TrainConfig(seed=0))
        path = tmp_path / "policy.json"
        save_policy(policy, path, metadata={"id": "bc"})
        loaded, meta = load_policy(path)
        assert meta["id"] == "bc"
        assert np.allclose(loaded.probs(np.array([0.0]), [0, 1]),
                           policy.probs(np.array([0.0]), [0, 1]))

    def test_network_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        action = rng.normal(size=2)
        step = AbstractStep(state=rng.normal(size=2), action=action, reward=0.5,
                            candidates=[action])
        trajs = [make_traj([step], "a", scheme="topology")]
        cfg = TrainConfig(iterations=50, hidden_units=8, seed=0)
        q = cql_train(trajs, cfg)
        policy = QPolicy(q=q, temperature=0.7)
        path = tmp_path / "policy.json"
        save_policy(policy, path, metadata={"id": "cql"})
        loaded, _ = load_policy(path)
        state = rng.normal(size=2)
        cands = [rng.normal(size=2), rng.normal(size=2)]
        assert np.allclose(loaded.probs(state, cands), policy.probs(state, cands))
        assert loaded.temperature == 0.7

    @pytest.mark.parametrize("damage", ["truncated", "no_form", "not_an_object", "q_rows",
                                        "network_width", "net_params", "zero_temperature",
                                        "negative_temperature"])
    def test_damaged_file_raises_malformed_record_naming_it(self, tmp_path, damage):
        trajs = [make_traj([index_step(0, 1, 1.0, 2)], "a")]
        path = tmp_path / "policy_bc.json"
        save_policy(bc_train(trajs, TrainConfig(seed=0)), path)
        text = path.read_text()
        obj, net = json.loads(text), Mlp(3, 4).to_json()
        network = {**obj, "form": "network", "state_dim": 1, "net": net,
                   "action_encoding": {"kind": "onehot", "size": 2}}  # 3 = 1 + 2 inputs
        path.write_text(json.dumps(network))
        assert load_policy(path)[0].q.net.input_dim == 3  # the undamaged network loads
        damaged = {
            "truncated": text[: len(text) // 2],
            "not_an_object": "[1, 2]",
            "no_form": {k: v for k, v in obj.items() if k != "form"},
            "q_rows": {**obj, "states": obj["states"] + [[1.0]]},  # 2 states, 1 q row
            "network_width": {**network, "state_dim": 2},
            "net_params": {**network, "net": {**net, "params": net["params"][1:]}},
            "zero_temperature": {**obj, "temperature": 0.0},
            "negative_temperature": {**obj, "temperature": -1.0},
        }[damage]
        path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        with pytest.raises(MalformedRecord, match="policy_bc.json"):
            load_policy(path)
