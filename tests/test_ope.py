import numpy as np
import pytest

from oracles import policy_value_linear
from test_nets import assert_close
from test_offline_rl import duplicated_corpus, feature_corpus
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.errors import NoCandidates
from twinmdp.offline_rl import (
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    build_transitions,
    policy_probs,
)
from twinmdp.nets import Adam, Mlp, grouped_max
from twinmdp.ope import _flat_policy_probs, fqe, fqe_many, rank_policies
from twinmdp.trajectories import JudgeScores


def make_traj(steps, traj_id="t"):
    return AbstractTrajectory(trajectory_id=traj_id, scenario_id="s",
                              scheme="name", steps=steps,
                              scores=JudgeScores(0.0, 0.0))


def index_step(state_id, action, reward, n_actions):
    return AbstractStep(state=np.array([float(state_id)]), action=action,
                        reward=reward, candidates=list(range(n_actions)))


def tabular_policy(pi: np.ndarray, temperature=1.0) -> QPolicy:
    """QPolicy whose softmax reproduces the given (S, A) distribution."""
    with np.errstate(divide="ignore"):
        q = np.log(pi)
    index = {(float(s),): s for s in range(pi.shape[0])}
    return QPolicy(q=TabularQ(state_index=index, q=q, gamma=0.9),
                   temperature=temperature)


def random_mdp(rng, n_states, n_actions):
    P = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    R = rng.uniform(0, 1, size=(n_states, n_actions))
    return P, R


def random_episodic_mdp(rng, n_states, n_actions):
    """Episodic MDP: the last dirichlet slot is the termination event, so the
    continuation kernel is substochastic and episodes end on their own."""
    full = rng.dirichlet(np.ones(n_states + 1), size=(n_states, n_actions))
    P_cont = full[:, :, :n_states]
    R = rng.uniform(0, 1, size=(n_states, n_actions))
    return P_cont, R


def log_episodes(P, R, rng, n_episodes, horizon):
    n_states, n_actions = R.shape
    trajs = []
    for i in range(n_episodes):
        s = int(rng.integers(0, n_states))
        steps = []
        for _ in range(horizon):
            a = int(rng.integers(0, n_actions))
            steps.append(index_step(s, a, R[s, a], n_actions))
            s = int(rng.choice(n_states, p=P[s, a]))
        trajs.append(make_traj(steps, f"e{i}"))
    return trajs


def log_episodic(P_cont, R, rng, n_episodes, cap=500):
    """Roll out until the termination event fires (uniform behavior)."""
    n_states, n_actions = R.shape
    trajs = []
    for i in range(n_episodes):
        s = int(rng.integers(0, n_states))
        steps = []
        for _ in range(cap):
            a = int(rng.integers(0, n_actions))
            steps.append(index_step(s, a, R[s, a], n_actions))
            cont = P_cont[s, a]
            outcome = rng.choice(n_states + 1,
                                 p=np.append(cont, 1.0 - cont.sum()))
            if outcome == n_states:
                break
            s = int(outcome)
        trajs.append(make_traj(steps, f"e{i}"))
    return trajs


def reference_flat_policy_probs(table, policy):
    """pi(a|s) per candidate entry, looking every step's state up on its own."""
    cand, group, pq = table.candidates, table.cand_step, policy.q
    sid_pol = np.empty(table.n, dtype=int)
    for i in range(table.n):
        s = pq.state_id(table.states[i])
        sid_pol[i] = len(pq.q) if s is None else s
    padded = np.vstack([pq.q, np.zeros((1, pq.n_actions))])
    logits = padded[sid_pol[group], cand] / policy.temperature
    gmax = grouped_max(logits, group, table.n)
    degenerate = ~np.isfinite(gmax)
    safe_max = np.where(degenerate, 0.0, gmax)
    expd = np.where(np.isfinite(logits), np.exp(logits - safe_max[group]), 0.0)
    expd[degenerate[group]] = 1.0
    gsum = np.zeros(table.n)
    np.add.at(gsum, group, expd)
    return expd / gsum[group]


class TestFqe:
    def test_one_step_episodes_average_terminal_reward(self):
        rng = np.random.default_rng(0)
        rewards = rng.uniform(0, 1, size=20)
        trajs = [make_traj([index_step(0, 0, float(r), 1)], f"e{i}")
                 for i, r in enumerate(rewards)]
        policy = tabular_policy(np.array([[1.0]]))
        est = fqe(policy, trajs, TrainConfig(gamma=0.9, seed=0))
        assert est.initial_value == pytest.approx(rewards.mean(), abs=1e-9)

    def test_gamma_zero_reduces_to_one_step_lookup(self):
        rng = np.random.default_rng(1)
        P, R = random_mdp(rng, 3, 2)
        trajs = log_episodes(P, R, rng, 200, 5)
        pi = rng.dirichlet(np.ones(2), size=3)
        policy = tabular_policy(pi)
        est = fqe(policy, trajs, TrainConfig(gamma=0.0, seed=0))
        # oracle: empirical mean reward per (s, a), weighted by pi at the
        # logged initial states
        sums = np.zeros((3, 2))
        counts = np.zeros((3, 2))
        for traj in trajs:
            for step in traj.steps:
                s, a = int(step.state[0]), int(step.action)
                sums[s, a] += step.reward
                counts[s, a] += 1
        mean_r = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        want = np.mean([
            pi[int(t.steps[0].state[0])] @ mean_r[int(t.steps[0].state[0])]
            for t in trajs
        ])
        assert est.initial_value == pytest.approx(want, abs=1e-9)

    def test_constant_reward_geometric_series(self):
        # time-indexed states keep each cell's Bellman target exact, so the
        # estimate is the truncated geometric series itself
        trajs = []
        horizon = 120
        for i in range(3):
            steps = [AbstractStep(state=np.array([float(t)]), action=0,
                                  reward=1.0, candidates=[0])
                     for t in range(horizon)]
            trajs.append(make_traj(steps, f"e{i}"))
        policy = tabular_policy(np.ones((horizon, 1)))
        est0 = fqe(policy, trajs, TrainConfig(gamma=0.0, seed=0))
        assert est0.initial_value == pytest.approx(1.0, abs=1e-9)
        est9 = fqe(policy, trajs, TrainConfig(gamma=0.9, seed=0), max_sweeps=2000,
                   tol=1e-12)
        want = (1 - 0.9**horizon) / (1 - 0.9)
        assert est9.initial_value == pytest.approx(want, rel=1e-6)
        assert abs(est9.initial_value - 10.0) < 10.0 * 0.9**horizon + 1e-6

    def test_matches_linear_system_oracle(self):
        rng = np.random.default_rng(2)
        gamma = 0.9
        for trial in range(3):
            P_cont, R = random_episodic_mdp(rng, 3, 2)
            pi = rng.dirichlet(np.ones(2) * 3, size=3)
            policy = tabular_policy(pi)
            trajs = log_episodic(P_cont, R, rng, 1500)
            est = fqe(policy, trajs, TrainConfig(gamma=gamma, seed=0),
                      max_sweeps=600, tol=1e-10)
            v = policy_value_linear(P_cont, R, pi, gamma)
            q_pi = R + gamma * np.einsum("sat,t->sa", P_cont, v)
            want = np.mean([
                pi[int(t.steps[0].state[0])] @ q_pi[int(t.steps[0].state[0])]
                for t in trajs
            ])
            assert est.initial_value == pytest.approx(want, rel=0.05)

    def test_reward_shift_raises_value(self):
        rng = np.random.default_rng(3)
        P, R = random_mdp(rng, 3, 2)
        trajs = log_episodes(P, R, rng, 100, 10)
        shifted = []
        for traj in trajs:
            steps = [AbstractStep(state=s.state, action=s.action,
                                  reward=s.reward + 0.5, candidates=s.candidates)
                     for s in traj.steps]
            shifted.append(make_traj(steps, traj.trajectory_id))
        pi = rng.dirichlet(np.ones(2), size=3)
        policy = tabular_policy(pi)
        cfg = TrainConfig(gamma=0.9, seed=0)
        base = fqe(policy, trajs, cfg).initial_value
        up = fqe(policy, shifted, cfg).initial_value
        assert up > base


def per_step_policy_probs(table, policy):
    """pi(a|s) per candidate entry from one policy_probs call per step."""
    off = table.cand_offsets
    return np.concatenate([policy_probs(policy, table.states[i],
                                        table.candidates[off[i] : off[i + 1]])
                           for i in range(table.n)])


def reference_fqe_network(table, policy, cfg, tol):
    """The one-policy network FQE loop that lockstep FQE replaced: its fitted
    network, initial value and the number of rounds it ran."""
    rows, group = table.rows(table.encoding), table.cand_step  # a row per entry
    net = Mlp(rows.shape[1], cfg.hidden_units, seed=cfg.seed)
    optimizer = Adam(net.params, step_size=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    pi = per_step_policy_probs(table, policy)
    has_next = ~table.terminal
    nxt = table.next_step[has_next]
    target, prev_value = net.copy(), np.inf
    rounds = max(1, cfg.iterations // max(1, cfg.target_refresh))
    for done in range(1, rounds + 1):
        expectation = np.bincount(group, weights=pi * target.forward(rows), minlength=table.n)
        targets = table.rewards.copy()
        targets[has_next] = table.rewards[has_next] + cfg.gamma * expectation[nxt]
        for _ in range(max(1, cfg.target_refresh)):
            batch = rng.choice(table.n, size=min(cfg.batch_size, table.n), replace=False)
            out, acts = net.forward_cached(rows[table.taken][batch])
            optimizer.step(net.backward(acts, 2.0 * (out - targets[batch]) / len(batch)))
        target = net.copy()
        expectation = np.bincount(group, weights=pi * net.forward(rows), minlength=table.n)
        value = float(np.mean(expectation[table.episode_starts]))
        if abs(value - prev_value) < tol:
            break
        prev_value = value
    return net, value, done


def network_policy(seed, temperature, state_dim=3, action_dim=2, hidden=8):
    q = NetworkQ(net=Mlp(state_dim + action_dim, hidden, seed=seed), state_dim=state_dim,
                 action_encoding={"kind": "features", "dim": action_dim}, gamma=0.7)
    return QPolicy(q=q, temperature=temperature)


class TestLockstepNetworkFqe:
    CFG = TrainConfig(alpha=0.0, gamma=0.7, iterations=600, batch_size=16, hidden_units=8,
                      target_refresh=20, step_size=1e-2, seed=3)

    @pytest.mark.parametrize("tol,distinct_stops", [(1e-5, False), (0.013, True)],
                             ids=["no_early_stop", "stops_at_different_rounds"])
    def test_stack_equals_one_policy_fits(self, tol, distinct_stops):
        trajs = feature_corpus(np.random.default_rng(0), n_episodes=30)
        table = build_transitions(trajs)
        policies = [network_policy(1, 1.0), network_policy(2, 0.3), network_policy(3, 3.0)]
        want = [reference_fqe_network(table, p, self.CFG, tol) for p in policies]
        stops = [rounds for _, _, rounds in want]
        assert len(set(stops)) == (3 if distinct_stops else 1)
        stacked = fqe_many(policies, table, self.CFG, tol=tol)
        for policy, est, (net, value, _) in zip(policies, stacked, want):
            alone = fqe(policy, trajs, self.CFG, tol=tol)
            assert est.initial_value == alone.initial_value
            assert np.array_equal(est.qhat.net.params, alone.qhat.net.params)
            # the reference forwards every entry's row, the fit each distinct
            # row once: equal up to summation order
            assert est.initial_value == pytest.approx(value, rel=0, abs=1e-12)
            np.testing.assert_allclose(est.qhat.net.params, net.params, rtol=0, atol=1e-12)
        if tol == 1e-5:
            ranked = rank_policies([(p, {"id": f"p{i}"}) for i, p in enumerate(policies)],
                                   trajs, self.CFG, k=3)
            for entry in ranked:
                i = int(entry["id"][1])
                assert entry["initial_value"] == stacked[i].initial_value
                assert entry["initial_value"] == pytest.approx(want[i][1], rel=0, abs=1e-12)


class TestDistinctRowFqe:
    CFG = TrainConfig(alpha=0.0, gamma=0.7, iterations=200, batch_size=16, hidden_units=8,
                      target_refresh=10, step_size=1e-2, seed=3)

    def test_stack_gradients_equal_the_full_row_loops(self, frozen_gradients):
        """On a table whose every entry repeats one of 12 rows, each member's
        gradient in the (P, n) stack equals its own full-row loop's up to
        summation order, step by step (the frozen network stops every fit
        after two rounds)."""
        table = build_transitions(duplicated_corpus(np.random.default_rng(2)))
        policies = [network_policy(1, 1.0), network_policy(2, 0.3), network_policy(3, 3.0)]
        fqe_many(policies, table, self.CFG)
        stacked = frozen_gradients[:]
        assert len(stacked) == 2 * self.CFG.target_refresh
        for p, policy in enumerate(policies):
            frozen_gradients.clear()
            reference_fqe_network(table, policy, self.CFG, 1e-5)
            assert len(frozen_gradients) == len(stacked)
            for g, want in zip(stacked, frozen_gradients):
                assert_close(g[p], want)

    def test_stack_equals_one_policy_fits(self):
        table = build_transitions(duplicated_corpus(np.random.default_rng(3)))
        policies = [network_policy(4, 1.0), network_policy(5, 0.5), network_policy(6, 2.0)]
        for policy, est in zip(policies, fqe_many(policies, table, self.CFG, tol=1e-3)):
            alone = fqe(policy, table, self.CFG, tol=1e-3)
            assert est.initial_value == alone.initial_value
            assert np.array_equal(est.qhat.net.params, alone.qhat.net.params)


class TestRankPolicies:
    def two_action_world(self, rng, n_episodes=200):
        # single state, action 0 pays 1, action 1 pays 0
        R = np.array([[1.0, 0.0]])
        trajs = []
        for i in range(n_episodes):
            steps = [index_step(0, int(rng.integers(0, 2)), 0.0, 2)
                     for _ in range(4)]
            steps = [
                AbstractStep(state=s.state, action=s.action,
                             reward=R[0, int(s.action)], candidates=s.candidates)
                for s in steps
            ]
            trajs.append(make_traj(steps, f"e{i}"))
        return trajs

    def test_single_candidate_returned(self):
        rng = np.random.default_rng(0)
        trajs = self.two_action_world(rng)
        policy = tabular_policy(np.array([[0.9, 0.1]]))
        ranked = rank_policies([(policy, {"id": "only"})], trajs,
                               TrainConfig(gamma=0.9, seed=0), k=3)
        assert len(ranked) == 1
        assert ranked[0]["id"] == "only"
        assert ranked[0]["rank"] == 1

    def test_dominant_policy_ranked_first(self):
        rng = np.random.default_rng(1)
        trajs = self.two_action_world(rng)
        good = tabular_policy(np.array([[0.95, 0.05]]))
        bad = tabular_policy(np.array([[0.05, 0.95]]))
        ranked = rank_policies([(bad, {"id": "bad"}), (good, {"id": "good"})],
                               trajs, TrainConfig(gamma=0.9, seed=0), k=2)
        assert [e["id"] for e in ranked] == ["good", "bad"]
        assert ranked[0]["initial_value"] > ranked[1]["initial_value"]

    def test_ranking_invariant_to_input_order(self):
        rng = np.random.default_rng(2)
        trajs = self.two_action_world(rng, n_episodes=80)
        pols = {
            "a": tabular_policy(np.array([[0.9, 0.1]])),
            "b": tabular_policy(np.array([[0.5, 0.5]])),
            "c": tabular_policy(np.array([[0.1, 0.9]])),
        }
        cfg = TrainConfig(gamma=0.9, seed=0)
        fwd = rank_policies([(pols[k], {"id": k}) for k in "abc"], trajs, cfg, k=3)
        rev = rank_policies([(pols[k], {"id": k}) for k in "cba"], trajs, cfg, k=3)
        assert [e["id"] for e in fwd] == [e["id"] for e in rev]

    def test_shared_table_scores_like_separate_fqe_runs(self):
        rng = np.random.default_rng(4)
        trajs = self.two_action_world(rng, n_episodes=60)
        pols = {"a": tabular_policy(np.array([[0.9, 0.1]])),
                "b": tabular_policy(np.array([[0.3, 0.7]]))}
        cfg = TrainConfig(gamma=0.9, seed=0)
        ranked = rank_policies([(pols[k], {"id": k}) for k in "ab"], trajs, cfg, k=2)
        table = build_transitions(trajs)
        for entry in ranked:
            alone = fqe(pols[entry["id"]], trajs, cfg).initial_value
            assert entry["initial_value"] == alone
            assert fqe(pols[entry["id"]], table, cfg).initial_value == alone

    def test_table_work_is_shared_and_read_only(self):
        rng = np.random.default_rng(5)
        table = build_transitions(self.two_action_world(rng, n_episodes=20))
        cfg = TrainConfig(gamma=0.9, seed=0)
        fqe(tabular_policy(np.array([[0.9, 0.1]])), table, cfg)
        index, sid = table.state_ids
        fqe(tabular_policy(np.array([[0.2, 0.8]])), table, cfg)
        assert table.state_ids[0] is index and table.state_ids[1] is sid
        assert table.cand_rows is table.cand_rows
        for derived in (sid, table.cand_step, table.cand_rows):
            with pytest.raises(ValueError):
                derived[0] = 0

    def test_tabular_probs_equal_the_per_step_lookup(self):
        rng = np.random.default_rng(6)
        table = build_transitions(log_episodes(*random_mdp(rng, 4, 3), rng, 30, 5))
        pi = rng.dirichlet(np.ones(3), size=3)  # no row for state 3: unseen
        pi[1, 2] = 0.0  # a -inf logit
        policy = tabular_policy(pi, temperature=0.7)
        assert 3.0 in table.states[:, 0]
        assert np.array_equal(_flat_policy_probs(table, policy),
                              reference_flat_policy_probs(table, policy))

    def test_network_probs_equal_the_per_step_policy_probs(self):
        rng = np.random.default_rng(8)
        table = build_transitions(feature_corpus(rng, n_episodes=40))
        assert len(np.unique(np.diff(table.cand_offsets))) == 5  # 1 to 5 candidates
        for policy in (network_policy(4, 0.7), network_policy(5, 1.0, hidden=256)):
            assert np.array_equal(_flat_policy_probs(table, policy),
                                  per_step_policy_probs(table, policy))
        # untrained region: a non-finite output falls back to uniform
        degenerate = network_policy(6, 1.0)
        degenerate.q.net.biases[-1][...] = np.inf
        probs = _flat_policy_probs(table, degenerate)
        assert np.array_equal(probs, per_step_policy_probs(table, degenerate))
        assert np.array_equal(probs, 1.0 / np.diff(table.cand_offsets)[table.cand_step])

    def test_onehot_network_probs_equal_the_per_step_policy_probs(self):
        rng = np.random.default_rng(9)
        table = build_transitions(log_episodes(*random_mdp(rng, 4, 3), rng, 30, 5))
        q = NetworkQ(net=Mlp(4, 8, seed=1), state_dim=1,
                     action_encoding={"kind": "onehot", "size": 3}, gamma=0.9)
        policy = QPolicy(q=q, temperature=0.5)
        assert np.array_equal(_flat_policy_probs(table, policy),
                              per_step_policy_probs(table, policy))

    def test_k_larger_than_pool(self):
        rng = np.random.default_rng(3)
        trajs = self.two_action_world(rng, n_episodes=50)
        policy = tabular_policy(np.array([[0.5, 0.5]]))
        ranked = rank_policies([(policy, {"id": "x"})], trajs,
                               TrainConfig(gamma=0.9, seed=0), k=10)
        assert len(ranked) == 1

    def test_no_candidates_rejected(self):
        with pytest.raises(NoCandidates):
            rank_policies([], [], TrainConfig(), k=1)
