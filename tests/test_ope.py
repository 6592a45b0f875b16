import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import policy_value_linear
from test_offline_rl import duplicated_corpus, feature_corpus, index_corpus
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.errors import DimensionMismatch, NoCandidates
from twinmdp.offline_rl import (
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    build_transitions,
    policy_probs,
)
from twinmdp.nets import Mlp
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
    off = table.corpus.cand_offsets
    return np.concatenate([policy_probs(policy, table.states[i],
                                        table.candidates[off[i] : off[i + 1]])
                           for i in range(table.n)])


def network_policy(seed, temperature, state_dim=3, action_dim=2, hidden=8):
    q = NetworkQ(net=Mlp(state_dim + action_dim, hidden, seed=seed), state_dim=state_dim,
                 action_encoding={"kind": "features", "dim": action_dim}, gamma=0.7)
    return QPolicy(q=q, temperature=temperature)


def reference_fqe_rows(table, policy, gamma, tol, max_sweeps):
    """The row-cell sweep as a per-step loop over one row per entry: its
    initial value and the number of sweeps it ran. A cell is a distinct row's
    bytes; each sweep sets every taken cell to the mean Bellman target of the
    steps that take it and stops once the largest cell change delta has
    delta * gamma <= tol * (1 - gamma)."""
    off, full = table.corpus.cand_offsets, table.rows(table.encoding)
    pi = per_step_policy_probs(table, policy)
    cells = {}
    entry_cell = [cells.setdefault(row.tobytes(), len(cells)) for row in full]

    def step_value(q, i):
        return sum(pi[e] * q[entry_cell[e]] for e in range(off[i], off[i + 1]))

    q = [0.0] * len(cells)
    for sweeps in range(1, max_sweeps + 1):
        sums, counts = [0.0] * len(cells), [0] * len(cells)
        for i in range(table.n):
            u = entry_cell[table.taken[i]]
            target = table.corpus.rewards[i]
            if not table.terminal[i]:
                target += gamma * step_value(q, table.next_step[i])
            sums[u] += target
            counts[u] += 1
        new_q = [s / c if c else 0.0 for s, c in zip(sums, counts)]
        delta = max(abs(a - b) for a, b in zip(new_q, q))
        q = new_q
        if delta * gamma <= tol * (1 - gamma):
            break
    return float(np.mean([step_value(q, i) for i in table.corpus.step_offsets[:-1]])), sweeps


class TestLockstepNetworkFqe:
    """One fqe_many call on several network policies: each estimate equals
    its own fqe call and the per-step reference sweep, whether the policies'
    sweeps all run to max_sweeps or stop at different counts."""
    CFG = TrainConfig(gamma=0.9)

    @pytest.mark.parametrize("tol,distinct_stops", [(0.0, False), (1e-3, True)],
                             ids=["no_early_stop", "stops_at_different_rounds"])
    def test_stack_equals_one_policy_fits(self, tol, distinct_stops):
        trajs = duplicated_corpus(np.random.default_rng(1))
        table = build_transitions(trajs)
        policies = [network_policy(1, 0.05), network_policy(2, 1.0), network_policy(3, 20.0)]
        want = [reference_fqe_rows(table, p, self.CFG.gamma, tol, 60) for p in policies]
        stops = [sweeps for _, sweeps in want]
        assert len(set(stops)) == (3 if distinct_stops else 1)
        assert distinct_stops or stops[0] == 60
        estimates = fqe_many(policies, table, self.CFG, tol=tol, max_sweeps=60)
        for policy, est, (value, _) in zip(policies, estimates, want):
            alone = fqe(policy, trajs, self.CFG, tol=tol, max_sweeps=60)
            assert est.initial_value == alone.initial_value
            # the reference sums entry by entry, the sweep by np.bincount
            assert est.initial_value == pytest.approx(value, rel=0, abs=1e-12)
        ranked = rank_policies([(p, {"id": f"p{i}"}) for i, p in enumerate(policies)],
                               trajs, self.CFG, k=3)
        default = fqe_many(policies, table, self.CFG)
        for entry in ranked:
            i = int(entry["id"][1])
            assert entry["initial_value"] == default[i].initial_value
            assert entry["initial_value"] == pytest.approx(
                reference_fqe_rows(table, policies[i], self.CFG.gamma, 1e-5, 500)[0],
                rel=0, abs=1e-12)


class TestDistinctRowFqe:
    def test_stack_equals_one_policy_fits(self):
        """On a table whose every entry repeats one of 12 rows, each of one
        fqe_many call's estimates equals its own fqe call."""
        table = build_transitions(duplicated_corpus(np.random.default_rng(3)))
        assert len(table.cand_rows) <= 12 < len(table.row_id)
        policies = [network_policy(4, 1.0), network_policy(5, 0.5), network_policy(6, 2.0)]
        cfg = TrainConfig(gamma=0.7)
        for policy, est in zip(policies, fqe_many(policies, table, cfg, tol=1e-3)):
            alone = fqe(policy, table, cfg, tol=1e-3)
            assert est.initial_value == alone.initial_value
            assert est.initial_value == pytest.approx(
                reference_fqe_rows(table, policy, cfg.gamma, 1e-3, 500)[0], rel=0, abs=1e-12)


def empirical_mdp_initial_value(trajs, policy, gamma):
    """The initial value of ``policy`` on the empirical MDP over the corpus's
    distinct (state, action) rows, from one linear solve of Q = r + gamma P Q.
    A row's r is the mean reward of the steps that take it, and P[row] is the
    mean over those steps of the policy's probabilities of the next step's
    candidate rows (none after an episode's last step). A row that no step
    takes has Q = 0."""
    def key(state, action):
        return np.asarray(state, float).tobytes(), np.asarray(action, float).tobytes()

    cells = {}
    for traj in trajs:
        for step in traj.steps:
            for c in step.candidates:
                cells.setdefault(key(step.state, c), len(cells))
    reward, count = np.zeros(len(cells)), np.zeros(len(cells))
    P = np.zeros((len(cells), len(cells)))
    for traj in trajs:
        for step, nxt in zip(traj.steps, traj.steps[1:] + [None]):
            u = cells[key(step.state, step.action)]
            reward[u] += step.reward
            count[u] += 1
            if nxt is not None:
                probs = policy_probs(policy, nxt.state, nxt.candidates)
                for c, prob in zip(nxt.candidates, probs):
                    P[u, cells[key(nxt.state, c)]] += prob
    taken = count > 0
    reward[taken] /= count[taken]
    P[taken] /= count[taken, None]
    q = np.linalg.solve(np.eye(len(cells)) - gamma * P, reward)
    return np.mean([policy_probs(policy, t.steps[0].state, t.steps[0].candidates)
                    @ [q[cells[key(t.steps[0].state, c)]] for c in t.steps[0].candidates]
                    for t in trajs])


class TestRowCellFqe:
    def test_feature_actions_match_the_linear_system_oracle(self):
        """On feature actions and a network policy, the row-cell sweep is exact
        policy evaluation on the empirical MDP of the table's distinct rows,
        some of which no step takes."""
        for seed in range(3):
            trajs = duplicated_corpus(np.random.default_rng(seed), n_episodes=8)
            table = build_transitions(trajs)
            taken = np.unique(table.row_id[table.taken])
            assert len(taken) < len(table.cand_rows) <= 12 < len(table.row_id)
            policies = [network_policy(seed, 1.0), network_policy(seed + 3, 0.3)]
            estimates = fqe_many(policies, table, TrainConfig(gamma=0.7), tol=1e-13,
                                 max_sweeps=5000)
            for policy, est in zip(policies, estimates):
                want = empirical_mdp_initial_value(trajs, policy, 0.7)
                assert est.initial_value == pytest.approx(want, rel=0, abs=1e-9)

    def test_index_actions_keep_the_state_action_cells(self):
        """On index actions, the distinct rows are the (state, action) pairs,
        so the row-cell sweep matches the same oracle."""
        rng = np.random.default_rng(7)
        P, R = random_mdp(rng, 3, 2)
        trajs = log_episodes(P, R, rng, 40, 6)
        policy = tabular_policy(rng.dirichlet(np.ones(2), size=3), temperature=0.8)
        est = fqe(policy, trajs, TrainConfig(gamma=0.9), tol=1e-13, max_sweeps=5000)
        want = empirical_mdp_initial_value(trajs, policy, 0.9)
        assert est.initial_value == pytest.approx(want, rel=0, abs=1e-9)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 0.99),
           r_max=st.floats(1e-3, 1e3), index_actions=st.booleans())
    def test_initial_values_lie_in_the_reward_bound(self, seed, gamma, r_max,
                                                    index_actions):
        """Rewards in [0, r_max] keep every sweep's Q, and so every initial
        value, in [0, r_max / (1 - gamma)]; the 1e-12 slack is float rounding
        of the means."""
        rng = np.random.default_rng(seed)
        n_states, n_actions = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        states, feats = rng.normal(size=(n_states, 3)), rng.normal(size=(n_actions, 2))
        trajs = []
        for i in range(int(rng.integers(1, 8))):
            steps = []
            for _ in range(int(rng.integers(1, 7))):
                s = int(rng.integers(n_states))
                ids = sorted(rng.choice(n_actions, size=int(rng.integers(1, n_actions + 1)),
                                        replace=False).tolist())
                a = ids[int(rng.integers(len(ids)))]
                reward = float(rng.choice([0.0, r_max, rng.uniform(0.0, r_max)]))
                if index_actions:
                    steps.append(AbstractStep(state=np.array([float(s)]), action=a,
                                              reward=reward, candidates=ids))
                else:
                    steps.append(AbstractStep(state=states[s], action=feats[a], reward=reward,
                                              candidates=[feats[j] for j in ids]))
            trajs.append(make_traj(steps, f"e{i}"))
        if index_actions:
            policies = [tabular_policy(rng.dirichlet(np.ones(n_actions), size=n_states), t)
                        for t in (0.2, 1.0)]
        else:
            policies = [network_policy(seed % 1000, t) for t in (0.2, 1.0, 5.0)]
        bound = r_max / (1.0 - gamma)
        for est in fqe_many(policies, trajs, TrainConfig(gamma=gamma)):
            assert 0.0 <= est.initial_value <= bound * (1 + 1e-12)


def long_episode_corpus(rng, n_episodes, length):
    """Feature episodes of ``length`` steps over 3 states and 4 actions, with
    rewards in [0, 1]: long chains make the sweep converge at a rate near gamma."""
    states, actions = rng.normal(size=(3, 3)), rng.normal(size=(4, 2))
    trajs = []
    for i in range(n_episodes):
        steps = []
        for _ in range(length):
            cands = list(actions[rng.choice(4, size=int(rng.integers(1, 5)), replace=False)])
            steps.append(AbstractStep(state=states[rng.integers(3)],
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=float(rng.uniform()), candidates=cands))
        trajs.append(make_traj(steps, f"t{i}"))
    return trajs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 0.95),
       tol=st.sampled_from([1e-2, 1e-3, 1e-5]))
def test_the_stop_rule_leaves_the_initial_value_within_tol(seed, gamma, tol):
    """The sweep stops once delta * gamma <= tol * (1 - gamma), which puts
    every cell, and so the initial value, within tol of the fixed point: here
    the value at tol 1e-14. (Stopping at delta < tol left up to 15 tol on
    such corpora.)"""
    rng = np.random.default_rng(seed)
    table = build_transitions(long_episode_corpus(rng, int(rng.integers(2, 6)),
                                                  int(rng.integers(10, 40))))
    policies = [network_policy(seed % 1000, t) for t in (0.3, 3.0)]
    cfg = TrainConfig(gamma=gamma)
    rough = fqe_many(policies, table, cfg, tol=tol)
    exact = fqe_many(policies, table, cfg, tol=1e-14, max_sweeps=5000)
    for a, b in zip(rough, exact):
        assert abs(a.initial_value - b.initial_value) <= tol


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

    def test_tabular_policy_rejects_an_id_outside_its_columns(self):
        trajs = self.two_action_world(np.random.default_rng(0), n_episodes=5)
        policy = tabular_policy(np.array([[1.0]]))  # one column: id 1 has none
        with pytest.raises(DimensionMismatch, match="action id 1 outside the 1 "):
            fqe(policy, trajs, TrainConfig(gamma=0.9))

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

    def test_tabular_probs_equal_the_per_step_policy_probs(self):
        rng = np.random.default_rng(6)
        table = build_transitions(log_episodes(*random_mdp(rng, 4, 3), rng, 30, 5))
        pi = rng.dirichlet(np.ones(3), size=3)  # no row for state 3: unseen
        pi[1, 2] = 0.0  # a -inf logit
        policy = tabular_policy(pi, temperature=0.7)
        assert 3.0 in table.states[:, 0]
        assert np.array_equal(_flat_policy_probs(table, policy),
                              per_step_policy_probs(table, policy))

    def test_probs_on_six_to_twelve_candidates_equal_the_served_probs(self):
        """Steps of 8 or more candidates are where a sequential sum and the
        served pairwise sum part ways in the last bits."""
        rng = np.random.default_rng(10)
        table = build_transitions(index_corpus(rng, 20, n_states=5, n_actions=12,
                                               n_candidates=(6, 13)))
        counts = np.diff(table.corpus.cand_offsets)
        assert counts.min() == 6 and counts.max() == 12
        pi = rng.dirichlet(np.ones(12), size=4)  # no row for state 4: unseen
        pi[0, :6] = 0.0  # -inf logits
        pi[1] = 0.0  # every logit -inf: uniform
        q = NetworkQ(net=Mlp(13, 8, seed=2), state_dim=1,
                     action_encoding={"kind": "onehot", "size": 12}, gamma=0.9)
        for policy in (tabular_policy(pi, temperature=0.7), QPolicy(q=q, temperature=0.3)):
            assert np.array_equal(_flat_policy_probs(table, policy),
                                  per_step_policy_probs(table, policy))
        rng = np.random.default_rng(11)
        table = build_transitions(feature_corpus(rng, n_episodes=30, n_candidates=(6, 13)))
        assert set(np.diff(table.corpus.cand_offsets)) == set(range(6, 13))
        policy = network_policy(12, 0.7)
        assert np.array_equal(_flat_policy_probs(table, policy),
                              per_step_policy_probs(table, policy))

    def test_network_probs_equal_the_per_step_policy_probs(self):
        rng = np.random.default_rng(8)
        table = build_transitions(feature_corpus(rng, n_episodes=40))
        assert len(np.unique(np.diff(table.corpus.cand_offsets))) == 5  # 1 to 5 candidates
        for policy in (network_policy(4, 0.7), network_policy(5, 1.0, hidden=256)):
            assert np.array_equal(_flat_policy_probs(table, policy),
                                  per_step_policy_probs(table, policy))
        # untrained region: a non-finite output falls back to uniform
        degenerate = network_policy(6, 1.0)
        degenerate.q.net.biases[-1][...] = np.inf
        probs = _flat_policy_probs(table, degenerate)
        assert np.array_equal(probs, per_step_policy_probs(table, degenerate))
        assert np.array_equal(probs, 1.0 / np.diff(table.corpus.cand_offsets)[table.cand_step])

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
