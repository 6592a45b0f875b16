import math

import numpy as np
import pytest

from oracles import (
    preference_count,
    preference_pairs_loop,
    train_reward_per_batch,
    trex_loss_mp,
)
from test_nets import assert_close
from test_offline_rl import duplicated_corpus
from twinmdp import reward_learning
from twinmdp.abstraction import AbstractStep, AbstractTrajectory, pack_corpus
from twinmdp.errors import EmptyPairSet, MalformedRecord
from twinmdp.nets import PLAN_BATCHES
from twinmdp.reward_learning import (
    PreferencePair,
    RewardTrainConfig,
    StepRows,
    build_pairs,
    encode_step_rows,
    new_reward_net,
    pair_accuracy,
    relabel,
    save_reward_net,
    load_reward_net,
    train_reward,
    trajectory_return,
    trex_grad,
    trex_loss,
)
from twinmdp.trajectories import JudgeScores


def feature_trajectory(rng, n_steps=3, state_dim=3, action_dim=2, traj_id="t"):
    steps = []
    for _ in range(n_steps):
        action = rng.normal(size=action_dim)
        steps.append(
            AbstractStep(
                state=rng.normal(size=state_dim),
                action=action,
                reward=0.0,
                candidates=[action, rng.normal(size=action_dim)],
            )
        )
    return AbstractTrajectory(
        trajectory_id=traj_id, scenario_id="s", scheme="topology", steps=steps,
        scores=JudgeScores(50.0, 0.0),
    )


def scored(traj, fpc, rce=0.0):
    return traj, JudgeScores(fpc_accuracy=fpc, rce_identification=rce)


class TestBuildPairs:
    def test_equal_scores_give_no_pairs(self):
        rng = np.random.default_rng(0)
        trajs = [scored(feature_trajectory(rng), 40.0) for _ in range(5)]
        assert build_pairs(trajs, signal="fpc_only", margin=0.0) == []

    def test_three_scores_forced_ordering(self):
        rng = np.random.default_rng(0)
        trajs = [scored(feature_trajectory(rng), s) for s in (10.0, 50.0, 90.0)]
        pairs = build_pairs(trajs, signal="fpc_only", margin=5.0)
        assert {(p.lower, p.higher) for p in pairs} == {(0, 1), (0, 2), (1, 2)}

    def test_count_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 100, size=100).tolist()
        trajs = [scored(feature_trajectory(rng, n_steps=1), s) for s in scores]
        pairs = build_pairs(trajs, signal="fpc_only", margin=5.0,
                            max_pairs=10**9)
        assert len(pairs) == preference_count(scores, 5.0)

    @pytest.mark.parametrize("margin, max_pairs", [(5.0, 10**9), (0.0, 10**9), (5.0, 300)],
                             ids=["all", "margin_zero_with_ties", "subsampled"])
    def test_equals_double_loop_oracle(self, margin, max_pairs):
        rng = np.random.default_rng(4)
        scores = np.round(rng.uniform(0, 100, size=60), 0).tolist()  # with ties
        trajs = [scored(feature_trajectory(rng, n_steps=1), s) for s in scores]
        pairs = build_pairs(trajs, signal="fpc_only", margin=margin,
                            max_pairs=max_pairs, seed=9)
        want = preference_pairs_loop(scores, margin, max_pairs, seed=9)
        assert [(p.lower, p.higher, p.score_gap) for p in pairs] == want
        assert all(type(p.score_gap) is float for p in pairs)
        assert len(pairs) == min(max_pairs, preference_count(scores, margin))

    def test_subsample_is_seeded_and_bounded(self):
        rng = np.random.default_rng(2)
        trajs = [scored(feature_trajectory(rng, n_steps=1), float(i)) for i in range(40)]
        a = build_pairs(trajs, signal="fpc_only", margin=0.5, max_pairs=50, seed=3)
        b = build_pairs(trajs, signal="fpc_only", margin=0.5, max_pairs=50, seed=3)
        assert len(a) == 50
        assert a == b

    def test_mean_signal(self):
        rng = np.random.default_rng(3)
        low = scored(feature_trajectory(rng), 80.0, rce=0.0)    # mean 40
        high = scored(feature_trajectory(rng), 20.0, rce=100.0)  # mean 60
        pairs = build_pairs([low, high], signal="mean_fpc_rce", margin=5.0)
        assert len(pairs) == 1 and pairs[0].lower == 0 and pairs[0].higher == 1

    def test_pair_invariants(self):
        with pytest.raises(MalformedRecord):
            PreferencePair(lower=1, higher=1, score_gap=1.0)
        with pytest.raises(MalformedRecord):
            PreferencePair(lower=0, higher=1, score_gap=0.0)


class TestTrexLoss:
    def test_equal_returns_give_ln2(self):
        rng = np.random.default_rng(0)
        traj = feature_trajectory(rng)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=0)
        pair = PreferencePair(lower=0, higher=1, score_gap=1.0)
        loss = trex_loss(net, pair, [traj, traj])
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ln3_gap_closed_form(self):
        # returns differing by ln 3 give loss ln(4/3)
        rng = np.random.default_rng(1)
        t1 = feature_trajectory(rng, n_steps=1)
        t2 = feature_trajectory(rng, n_steps=1)
        net = new_reward_net(encode_step_rows(t1).shape[1], 8, seed=0)
        g1 = trajectory_return(net, t1)
        g2 = trajectory_return(net, t2)
        # shift the output bias so G2' - G1' = ln 3 exactly... instead scale:
        # verify against the analytic form using the actual returns
        pair = PreferencePair(lower=0, higher=1, score_gap=1.0)
        loss = trex_loss(net, pair, [t1, t2])
        assert loss == pytest.approx(np.logaddexp(0.0, g1 - g2), abs=1e-12)
        assert trex_loss_mp(math.log(1.0), math.log(3.0)) == pytest.approx(
            math.log(4.0 / 3.0), abs=1e-12
        )

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(2)
        for k in range(100):
            t1 = feature_trajectory(rng, n_steps=2, traj_id=f"a{k}")
            t2 = feature_trajectory(rng, n_steps=2, traj_id=f"b{k}")
            net = new_reward_net(encode_step_rows(t1).shape[1], 8, seed=k)
            got = trex_loss(net, PreferencePair(0, 1, 1.0), [t1, t2])
            want = trex_loss_mp(trajectory_return(net, t1), trajectory_return(net, t2))
            assert got == pytest.approx(want, rel=1e-10)

    def test_antisymmetry_bound(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            t1 = feature_trajectory(rng)
            t2 = feature_trajectory(rng)
            net = new_reward_net(encode_step_rows(t1).shape[1], 8, seed=k)
            fwd = trex_loss(net, PreferencePair(0, 1, 1.0), [t1, t2])
            rev = trex_loss(net, PreferencePair(1, 0, 1.0), [t1, t2])
            assert fwd + rev >= 2 * math.log(2.0) - 1e-12

    def test_strictly_decreasing_in_gap(self):
        losses = [trex_loss_mp(0.0, g) for g in (-1.0, 0.0, 1.0, 2.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_discounted_returns(self):
        rng = np.random.default_rng(4)
        traj = feature_trajectory(rng, n_steps=3)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=0)
        rewards = net.forward(encode_step_rows(traj))
        expected = rewards[0] + 0.5 * rewards[1] + 0.25 * rewards[2]
        assert trajectory_return(net, traj, discount=0.5) == pytest.approx(expected)


class TestTrexGrad:
    def test_identical_trajectories_zero_gradient(self):
        rng = np.random.default_rng(0)
        traj = feature_trajectory(rng)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=0)
        grad = trex_grad(net, [PreferencePair(0, 1, 1.0)], [traj, traj])
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 20:
            trajs = [feature_trajectory(rng, n_steps=2) for _ in range(4)]
            batch = [PreferencePair(0, 1, 1.0), PreferencePair(2, 3, 1.0)]
            net = new_reward_net(encode_step_rows(trajs[0]).shape[1], 6, seed=done)
            rows = np.concatenate([encode_step_rows(t) for t in trajs])
            if _min_preactivation(net, rows) < 1e-3:
                # the loss is kinked at ReLU boundaries; central differences
                # straddling one do not estimate the (sub)gradient
                continue
            done += 1
            grads = trex_grad(net, batch, trajs)
            theta = net.params.copy()
            eps = 1e-5

            def mean_loss(vec):
                net.params[:] = vec
                return float(np.mean([trex_loss(net, p, trajs) for p in batch]))

            fd = np.empty_like(theta)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += eps
                down[i] -= eps
                fd[i] = (mean_loss(up) - mean_loss(down)) / (2 * eps)
            net.params[:] = theta
            scale = np.maximum.reduce([np.abs(fd), np.abs(grads),
                                       np.full_like(fd, 1e-6)])
            assert np.max(np.abs(grads - fd) / scale) < 1e-4

    def test_duplicated_batch_leaves_mean_unchanged(self):
        rng = np.random.default_rng(2)
        trajs = [feature_trajectory(rng) for _ in range(4)]
        batch = [PreferencePair(0, 1, 1.0), PreferencePair(2, 3, 1.0)]
        net = new_reward_net(encode_step_rows(trajs[0]).shape[1], 8, seed=0)
        single = trex_grad(net, batch, trajs)
        doubled = trex_grad(net, batch + batch, trajs)
        assert np.allclose(single, doubled, atol=1e-12)


# --- per-trajectory reference: one forward per trajectory return -------------------
#
# The references forward every step's own row, repeated rows included, while
# the packed table forwards each distinct row once; the comparisons below are
# exact for the pair accuracy and up to summation order (``assert_close``)
# for the returns and gradients.

def pair_tuples(pairs):
    """(lower, higher) of each pair, from PreferencePairs or an (n, 2) array."""
    if isinstance(pairs, np.ndarray):
        return [tuple(row) for row in pairs.tolist()]
    return [(p.lower, p.higher) for p in pairs]


def reference_return(net, rows, discount):
    rewards = net.forward(rows)
    if discount == 1.0:
        return float(rewards.sum())
    return float(rewards @ discount ** np.arange(len(rewards)))


def reference_returns(net, pairs, packed, discount):
    returns = {}
    for pair in pair_tuples(pairs):
        for i in pair:
            if i not in returns:
                lo, hi = packed.offsets[i], packed.offsets[i + 1]
                returns[i] = reference_return(net, packed.rows[packed.row_id[lo:hi]], discount)
    return returns


def reference_trex_grad(net, batch, packed, discount=1.0):
    returns = reference_returns(net, batch, packed, discount)
    idx, weights = [], []
    for lower, higher in pair_tuples(batch):
        sig = 1.0 / (1.0 + np.exp(-(returns[lower] - returns[higher])))
        for i, coeff in ((lower, sig), (higher, -sig)):
            lo, hi = packed.offsets[i], packed.offsets[i + 1]
            idx.append(np.arange(lo, hi))
            weights.append(coeff * discount ** np.arange(hi - lo) / len(batch))
    _, acts = net.forward_cached(packed.rows[packed.row_id[np.concatenate(idx)]])
    return net.backward(acts, np.concatenate(weights))


def reference_pair_accuracy(net, pairs, packed, discount=1.0):
    returns = reference_returns(net, pairs, packed, discount)
    hits = sum(returns[higher] > returns[lower] for lower, higher in pair_tuples(pairs))
    return hits / len(pairs)


def mixed_length_corpus(rng, n_trajs, max_steps=20, **dims):
    """Feature trajectories of lengths 1..max_steps, every length present."""
    lengths = np.concatenate([np.arange(1, max_steps + 1),
                              rng.integers(1, max_steps + 1, size=n_trajs - max_steps)])
    trajs = [feature_trajectory(rng, n_steps=int(n), traj_id=f"t{i}", **dims)
             for i, n in enumerate(rng.permutation(lengths))]
    pairs = build_pairs([scored(t, float(s)) for t, s in
                         zip(trajs, rng.uniform(0, 100, size=n_trajs))],
                        signal="fpc_only", margin=5.0)
    return trajs, pairs


@pytest.mark.parametrize("discount", [1.0, 0.9])
class TestStackedReturnsMatchPerTrajectory:
    """One pass over a batch's distinct rows gives each trajectory's own
    forward, up to summation order, at any hidden width and trajectory length
    (every length from 1 up is present)."""

    @pytest.mark.parametrize("hidden", [1, 2, 16, 256])
    def test_returns(self, discount, hidden):
        rng = np.random.default_rng(0)
        trajs, _ = mixed_length_corpus(rng, 60)
        packed = StepRows.pack(trajs)
        net = new_reward_net(packed.rows.shape[1], hidden, seed=1)
        want = [reference_return(net, encode_step_rows(t), discount) for t in trajs]
        assert_close(packed.returns(net, np.arange(len(trajs)), discount), want)
        assert packed.returns(net, [], discount).shape == (0,)
        assert_close([trajectory_return(net, t, discount) for t in trajs], want)

    @pytest.mark.parametrize("hidden", [1, 2, 16, 256])
    def test_trex_grad_and_pair_accuracy(self, discount, hidden):
        rng = np.random.default_rng(1)
        trajs, pairs = mixed_length_corpus(rng, 50)
        packed = StepRows.pack(trajs)
        net = new_reward_net(packed.rows.shape[1], hidden, seed=2)
        for start in range(0, 320, 32):
            batch = pairs[start:start + 32] + pairs[start:start + 3]  # repeats too
            assert_close(trex_grad(net, batch, packed, discount),
                         reference_trex_grad(net, batch, packed, discount))
        assert (pair_accuracy(net, pairs, packed, discount)
                == reference_pair_accuracy(net, pairs, packed, discount))

    def test_train_reward_params(self, discount):
        """train_reward against its loop driven by the per-trajectory
        references on pair arrays, batch by batch."""
        rng = np.random.default_rng(2)
        trajs, pairs = mixed_length_corpus(rng, 40)
        cfg = RewardTrainConfig(hidden_units=16, epochs=3, batch_size=16, seed=3,
                                discount=discount)
        got = train_reward(pairs, trajs, cfg).params
        want = train_reward_per_batch(pairs, StepRows.pack(trajs), cfg, reference_trex_grad,
                                      reference_pair_accuracy)
        assert_close(got, want.params)


@pytest.mark.parametrize("discount", [1.0, 0.9])
@pytest.mark.parametrize("holdout", [0.0, 0.2])
@pytest.mark.parametrize("corpus,batch_size", [("mixed", 7), ("mixed", 1000),
                                                ("repeated", 32)],
                         ids=["short_last_batch", "one_batch_per_epoch", "repeated_rows"])
def test_planned_epochs_equal_the_per_batch_loop(corpus, batch_size, holdout, discount):
    """Planning an epoch's batches PLAN_BATCHES at a time runs the same
    operations on the same arrays as laying each batch out in its own
    trex_grad call, so the parameters are equal bit for bit; at batch size 7
    an epoch takes 82 or 102 batches, so it takes two or three plans."""
    rng = np.random.default_rng(4)
    if corpus == "mixed":
        trajs, pairs = mixed_length_corpus(rng, 40)
    else:
        trajs, pairs = TestDistinctRowTrex().corpus(5)
    cfg = RewardTrainConfig(hidden_units=16, epochs=3, batch_size=batch_size, seed=3,
                            discount=discount, holdout_fraction=holdout)
    n_train = len(pairs) - min(int(round(holdout * len(pairs))), len(pairs) - 1)
    assert n_train % batch_size != 0 and (n_train < batch_size) == (batch_size == 1000)
    assert batch_size != 7 or n_train > PLAN_BATCHES * batch_size
    got = train_reward(pairs, trajs, cfg).params
    assert np.array_equal(got, train_reward_per_batch(pairs, StepRows.pack(trajs), cfg).params)


@pytest.mark.parametrize("holdout", [0.0, 0.1])
def test_one_trex_grad_call_per_batch(holdout, monkeypatch):
    """The benchmark's layer counts stay truthful: train_reward calls the
    module's trex_grad once per batch, ceil(n_train / batch_size) per epoch."""
    calls = []
    original = reward_learning.trex_grad

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(reward_learning, "trex_grad", counting)
    trajs, pairs = mixed_length_corpus(np.random.default_rng(6), 30)
    cfg = RewardTrainConfig(hidden_units=4, epochs=4, batch_size=24, seed=1,
                            holdout_fraction=holdout)
    train_reward(pairs, trajs, cfg)
    n_train = len(pairs) - int(round(holdout * len(pairs)))
    assert len(calls) == math.ceil(n_train / 24) * 4
    assert sum(calls) == n_train * 4


class TestDistinctRowTrex:
    """Trajectories whose every step repeats one of 12 rows: the packed table
    stores each row once, and the returns, the gradient and the pair accuracy
    equal the per-step references (the gradient up to summation order)."""

    def corpus(self, seed):
        rng = np.random.default_rng(seed)
        trajs = duplicated_corpus(rng, n_episodes=60)
        pairs = build_pairs([scored(t, float(s)) for t, s in
                             zip(trajs, rng.uniform(0, 100, size=len(trajs)))],
                            signal="fpc_only", margin=5.0)
        return trajs, pairs

    def test_packed_rows_are_distinct_and_rebuild_every_step(self):
        trajs, _ = self.corpus(0)
        packed = StepRows.pack(trajs)
        full = np.concatenate([encode_step_rows(t) for t in trajs])
        assert len(packed.rows) <= 12 < len(full)
        assert packed.rows[packed.row_id].tobytes() == full.tobytes()

    @pytest.mark.parametrize("discount", [1.0, 0.9])
    def test_trex_grad_and_pair_accuracy(self, discount):
        trajs, pairs = self.corpus(1)
        packed = StepRows.pack(trajs)
        net = new_reward_net(packed.rows.shape[1], 16, seed=2)
        ends = np.array([(p.lower, p.higher) for p in pairs])
        for start in range(0, 320, 32):
            batch = pairs[start:start + 32] + pairs[start:start + 3]  # repeats too
            want = reference_trex_grad(net, batch, packed, discount)
            assert_close(trex_grad(net, batch, packed, discount), want)
            batch_ends = np.concatenate([ends[start:start + 32], ends[start:start + 3]])
            assert np.array_equal(trex_grad(net, batch_ends, packed, discount),
                                  trex_grad(net, batch, packed, discount))
        want = reference_pair_accuracy(net, pairs, packed, discount)
        assert pair_accuracy(net, pairs, packed, discount) == want
        assert pair_accuracy(net, ends, packed, discount) == want


def index_corpus(rng, n_episodes=40, vocab=5):
    """Index-action episodes of 1 to 5 steps over 3 assessment-coded states,
    one of them holding a -0.0: rows repeat within and across trajectories."""
    states = rng.choice([0.0, 1.0, 2.0], size=(3, vocab))
    states[0, 0] = -0.0
    trajs = []
    for i in range(n_episodes):
        steps = []
        for _ in range(int(rng.integers(1, 6))):
            cands = rng.choice(vocab, size=int(rng.integers(1, 4)), replace=False).tolist()
            steps.append(AbstractStep(state=states[rng.integers(3)],
                                      action=cands[int(rng.integers(len(cands)))],
                                      reward=0.0, candidates=cands))
        trajs.append(AbstractTrajectory(trajectory_id=f"t{i}", scenario_id="s", scheme="name",
                                        steps=steps, scores=JudgeScores(50.0, 0.0)))
    return trajs


class TestOneHotRows:
    """Index actions: the packed rows rebuild every trajectory's
    ``encode_step_rows`` bit for bit, and relabeling the packed corpus gives
    each trajectory the forward of those rows."""

    def test_packed_rows_rebuild_every_step(self):
        trajs = index_corpus(np.random.default_rng(0))
        packed = StepRows.pack(trajs)
        full = np.concatenate([encode_step_rows(t) for t in trajs])
        assert len(packed.rows) < len(full)
        assert packed.rows[packed.row_id].tobytes() == full.tobytes()

    def test_relabel_matches_forward_pass(self):
        trajs = index_corpus(np.random.default_rng(1))
        net = new_reward_net(encode_step_rows(trajs[0]).shape[1], 8, seed=0)
        got = relabel(pack_corpus(trajs), net, mode="irl").rewards
        want = np.concatenate([net.forward(encode_step_rows(t)) for t in trajs])
        assert got.tobytes() == want.tobytes()


def _min_preactivation(net, rows):
    h = rows
    closest = np.inf
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = h @ W + b
        closest = min(closest, float(np.min(np.abs(pre))))
        h = np.maximum(pre, 0.0)
    return closest


def synthetic_ranked_world(rng, n_trajs=200, n_steps=8):
    """Trajectories whose true per-step reward is a known feature function."""
    w_state = rng.normal(size=3)
    w_action = rng.normal(size=2)

    def true_reward(state, action):
        return float(state @ w_state + action @ w_action)

    trajs = []
    returns = []
    for i in range(n_trajs):
        steps = []
        total = 0.0
        for _ in range(n_steps):
            state = rng.normal(size=3)
            action = rng.normal(size=2)
            total += true_reward(state, action)
            steps.append(AbstractStep(state=state, action=action, reward=0.0,
                                      candidates=[action]))
        trajs.append(
            AbstractTrajectory(trajectory_id=f"t{i}", scenario_id="s",
                               scheme="topology", steps=steps,
                               scores=JudgeScores(0.0, 0.0))
        )
        returns.append(total)
    returns = np.asarray(returns)
    lo, hi = returns.min(), returns.max()
    scores = 100.0 * (returns - lo) / (hi - lo)
    return trajs, scores


class TestTrainReward:
    def test_recovers_ranking_on_synthetic_world(self):
        rng = np.random.default_rng(0)
        trajs, scores = synthetic_ranked_world(rng)
        pairs = build_pairs(
            [(t, JudgeScores(s, 0.0)) for t, s in zip(trajs, scores)],
            signal="fpc_only", margin=5.0, max_pairs=2500, seed=0,
        )
        holdout = pairs[::10]
        train = [p for i, p in enumerate(pairs) if i % 10]
        net = train_reward(train, trajs,
                           RewardTrainConfig(hidden_units=32, epochs=12, seed=0))
        assert pair_accuracy(net, holdout, trajs) >= 0.9

    def test_empty_pairs_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(EmptyPairSet):
            train_reward([], [feature_trajectory(rng)])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        trajs, scores = synthetic_ranked_world(rng, n_trajs=30, n_steps=3)
        pairs = build_pairs(
            [(t, JudgeScores(s, 0.0)) for t, s in zip(trajs, scores)],
            signal="fpc_only", margin=10.0, max_pairs=200, seed=0,
        )
        cfg = RewardTrainConfig(hidden_units=8, epochs=3, seed=5)
        n1 = train_reward(pairs, trajs, cfg)
        n2 = train_reward(pairs, trajs, cfg)
        assert np.array_equal(n1.params, n2.params)


class TestRelabel:
    def test_sparse_final(self):
        rng = np.random.default_rng(0)
        traj = feature_trajectory(rng, n_steps=4)
        out = relabel([traj], mode="sparse", outcome=100.0)
        assert out.rewards.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_combined_with_zero_blend_equals_irl(self):
        rng = np.random.default_rng(1)
        traj = feature_trajectory(rng, n_steps=4)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=0)
        irl = relabel([traj], net, mode="irl")
        combined = relabel([traj], net, mode="combined", outcome=80.0, blend=0.0)
        assert irl.rewards.tolist() == combined.rewards.tolist()

    def test_irl_matches_forward_pass(self):
        rng = np.random.default_rng(2)
        traj = feature_trajectory(rng, n_steps=5)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=1)
        out = relabel([traj], net, mode="irl")
        want = net.forward(encode_step_rows(traj))
        assert np.allclose(out.rewards.tolist(), want)

    def test_combined_adds_outcome_at_terminal(self):
        rng = np.random.default_rng(3)
        traj = feature_trajectory(rng, n_steps=2)
        net = new_reward_net(encode_step_rows(traj).shape[1], 8, seed=0)
        irl = relabel([traj], net, mode="irl")
        combined = relabel([traj], net, mode="combined", outcome=50.0, blend=2.0)
        assert combined.rewards[-1] == pytest.approx(irl.rewards[-1] + 2.0 * 0.5)


def test_reward_net_round_trip(tmp_path):
    net = new_reward_net(5, 16, seed=3)
    path = tmp_path / "net.json"
    save_reward_net(net, path)
    loaded = load_reward_net(path)
    x = np.random.default_rng(0).normal(size=(4, 5))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_truncated_reward_net_raises_malformed_record_naming_it(tmp_path):
    path = tmp_path / "reward_net.json"
    save_reward_net(new_reward_net(5, 16, seed=3), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(MalformedRecord, match="reward_net.json"):
        load_reward_net(path)
