"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities. Criteria 8-10 drive the full
demo pipeline end to end; everything else checks a component against an
independent oracle at a pinned tolerance.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from criteria import c08_checks, c09_holds
from oracles import (
    floyd_warshall,
    hubs_eigen,
    policy_value_linear,
    t_sf_mp,
    trex_loss_mp,
    viterbi_bruteforce,
)
from test_pipeline import SMALL_CONFIG
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.hmm import fit_hmm, viterbi_decode
from twinmdp.offline_rl import FullVocabulary, TrainConfig, cql_train
from twinmdp.ope import fqe
from twinmdp.pipeline import (
    load_config,
    robustness_sweep,
    stage_reproduce,
    validate_config,
)
from twinmdp.reward_learning import (
    PreferencePair,
    RewardTrainConfig,
    build_pairs,
    encode_step_rows,
    new_reward_net,
    pair_accuracy,
    train_reward,
    trex_grad,
    trex_loss,
)
from twinmdp.stats import (
    TrialRecord,
    nemenyi_cd,
    paired_t_bonferroni,
    pass_at_3_bootstrap,
)
from twinmdp.topology import hubs_scores, make_graph, shortest_distance
from twinmdp.trajectories import Entity, JudgeScores

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_demo")
    cfg = load_config(DEMO_CONFIG)
    start = time.monotonic()
    summary = stage_reproduce(cfg, out)
    elapsed = time.monotonic() - start
    return cfg, out, summary, elapsed


# --- criterion 1: preference loss and gradient correctness ----------------------

def _random_feature_traj(rng, n_steps, traj_id):
    steps = []
    for _ in range(n_steps):
        action = rng.normal(size=2)
        steps.append(AbstractStep(state=rng.normal(size=3), action=action,
                                  reward=0.0, candidates=[action]))
    return AbstractTrajectory(trajectory_id=traj_id, scenario_id="s",
                              scheme="topology", steps=steps,
                              scores=JudgeScores(0.0, 0.0))


def _min_preactivation(net, rows):
    h = rows
    closest = np.inf
    for W, b in zip(net.weights[:-1], net.biases[:-1]):
        pre = h @ W + b
        closest = min(closest, float(np.min(np.abs(pre))))
        h = np.maximum(pre, 0.0)
    return closest


def test_c01_preference_loss_and_gradient():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    worst_loss_err = 0.0
    for k in range(100):
        t1 = _random_feature_traj(rng, 2, f"a{k}")
        t2 = _random_feature_traj(rng, 2, f"b{k}")
        net = new_reward_net(5, 8, seed=k)
        got = trex_loss(net, PreferencePair(0, 1, 1.0), [t1, t2])
        g1 = float(net.forward(encode_step_rows(t1)).sum())
        g2 = float(net.forward(encode_step_rows(t2)).sum())
        want = trex_loss_mp(g1, g2)
        worst_loss_err = max(worst_loss_err, abs(got - want) / abs(want))

    worst_grad_err = 0.0
    done = 0
    while done < 20:
        trajs = [_random_feature_traj(rng, 2, f"g{done}-{i}") for i in range(4)]
        net = new_reward_net(5, 6, seed=200 + done)
        rows = np.concatenate([encode_step_rows(t) for t in trajs])
        if _min_preactivation(net, rows) < 1e-3:
            continue  # kinked point: the loss is not differentiable there
        done += 1
        batch = [PreferencePair(0, 1, 1.0), PreferencePair(2, 3, 1.0)]
        grads = trex_grad(net, batch, trajs)
        theta = net.params.copy()
        eps = 1e-5
        fd = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            net.params[:] = up
            hi = np.mean([trex_loss(net, p, trajs) for p in batch])
            net.params[:] = down
            lo = np.mean([trex_loss(net, p, trajs) for p in batch])
            fd[i] = (hi - lo) / (2 * eps)
        net.params[:] = theta
        scale = np.maximum.reduce([np.abs(fd), np.abs(grads),
                                   np.full_like(fd, 1e-6)])
        worst_grad_err = max(worst_grad_err, float(np.max(np.abs(grads - fd) / scale)))

    elapsed = time.monotonic() - start
    ok = worst_loss_err <= 1e-10 and worst_grad_err <= 1e-4 and elapsed < 30
    report(1, ok, f"loss rel err {worst_loss_err:.2e} (<=1e-10), "
                  f"grad rel err {worst_grad_err:.2e} (<=1e-4), {elapsed:.1f}s (<30s)")
    assert worst_loss_err <= 1e-10
    assert worst_grad_err <= 1e-4
    assert elapsed < 30


# --- criterion 2: reward recovery from rankings -----------------------------------

def _finite_mdp_world(rng, n_trajs=200, n_states=6, length=8):
    rewards = rng.uniform(-1, 1, size=(n_states, n_states))  # action = next pick
    trajs = []
    returns = []
    for i in range(n_trajs):
        steps = []
        total = 0.0
        for _ in range(length):
            s = int(rng.integers(n_states))
            a = int(rng.integers(n_states))
            state = np.zeros(n_states)
            state[s] = 1.0
            total += rewards[s, a]
            steps.append(AbstractStep(state=state, action=a, reward=0.0,
                                      candidates=list(range(n_states))))
        trajs.append(AbstractTrajectory(trajectory_id=f"t{i}", scenario_id="s",
                                        scheme="name", steps=steps,
                                        scores=JudgeScores(0.0, 0.0)))
        returns.append(total)
    returns = np.asarray(returns)
    scores = 100.0 * (returns - returns.min()) / (returns.max() - returns.min())
    return trajs, scores


def test_c02_reward_recovery_and_noise_robustness():
    start = time.monotonic()
    rng = np.random.default_rng(22)
    trajs, scores = _finite_mdp_world(rng)
    pairs = build_pairs(
        [(t, JudgeScores(s, 0.0)) for t, s in zip(trajs, scores)],
        signal="fpc_only", margin=5.0, max_pairs=2500, seed=1,
    )
    holdout = pairs[::10]
    train = [p for i, p in enumerate(pairs) if i % 10]

    net = train_reward(train, trajs,
                       RewardTrainConfig(hidden_units=32, epochs=12, seed=0))
    clean_acc = pair_accuracy(net, holdout, trajs)

    flip_rng = np.random.default_rng(2)
    noisy_train = [
        PreferencePair(p.higher, p.lower, p.score_gap)
        if flip_rng.random() < 0.2 else p
        for p in train
    ]
    noisy_net = train_reward(noisy_train, trajs,
                             RewardTrainConfig(hidden_units=32, epochs=12, seed=0))
    noisy_acc = pair_accuracy(noisy_net, holdout, trajs)

    elapsed = time.monotonic() - start
    ok = clean_acc >= 0.90 and noisy_acc >= 0.80 and elapsed < 180
    report(2, ok, f"held-out ranking accuracy {clean_acc:.3f} (>=0.90), "
                  f"with 20% flipped labels {noisy_acc:.3f} (>=0.80), "
                  f"{elapsed:.1f}s (<180s)")
    assert clean_acc >= 0.90
    assert noisy_acc >= 0.80
    assert elapsed < 180


# --- criterion 3: conservative Q-learning vs value iteration -----------------------

def test_c03_cql_matches_value_iteration():
    from test_offline_rl import (
        random_episodic_mdp,
        rollout_corpus,
        value_iteration_terminal,
    )

    start = time.monotonic()
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(10):
        n_states = int(rng.integers(2, 6))
        n_actions = int(rng.integers(2, 4))
        nxt, rewards = random_episodic_mdp(rng, n_states, n_actions)
        trajs = rollout_corpus(nxt, rewards, rng)
        cfg = TrainConfig(alpha=0.0, gamma=0.9, iterations=40000,
                          target_refresh=100, seed=trial)
        q = cql_train(trajs, cfg, FullVocabulary(n_actions))
        want = value_iteration_terminal(nxt, rewards, 0.9)
        got = np.stack([
            q.values(np.array([float(s)]), list(range(n_actions)))
            for s in range(n_states)
        ])
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 60
    report(3, ok, f"max |Q - Q*| {worst:.2e} (<1e-3), greedy policies identical, "
                  f"{elapsed:.1f}s (<60s)")
    assert worst < 1e-3
    assert elapsed < 60


# --- criterion 4: FQE against the exact linear system ------------------------------

def test_c04_fqe_fidelity():
    from test_ope import (
        log_episodic,
        random_episodic_mdp,
        tabular_policy,
    )

    start = time.monotonic()
    rng = np.random.default_rng(44)
    gamma = 0.9
    worst = 0.0
    for trial in range(10):
        n_states = int(rng.integers(3, 6))
        n_actions = int(rng.integers(2, 4))
        P_cont, R = random_episodic_mdp(rng, n_states, n_actions)
        pi = rng.dirichlet(np.ones(n_actions) * 3, size=n_states)
        policy = tabular_policy(pi)
        trajs = log_episodic(P_cont, R, rng, 5000)
        est = fqe(policy, trajs, TrainConfig(gamma=gamma, seed=0),
                  max_sweeps=800, tol=1e-10)
        v = policy_value_linear(P_cont, R, pi, gamma)
        q_pi = R + gamma * np.einsum("sat,t->sa", P_cont, v)
        want = np.mean([
            pi[int(t.steps[0].state[0])] @ q_pi[int(t.steps[0].state[0])]
            for t in trajs
        ])
        worst = max(worst, abs(est.initial_value - want) / abs(want))
    elapsed = time.monotonic() - start
    ok = worst < 0.02 and elapsed < 120
    report(4, ok, f"worst initial-value rel err {worst:.4f} (<0.02) over 10 MDPs "
                  f"x 5000 episodes, {elapsed:.1f}s (<120s)")
    assert worst < 0.02
    assert elapsed < 120


# --- criterion 5: HMM fitting and decoding ------------------------------------------

def test_c05_hmm_suite():
    from test_hmm import random_hmm, sample_sequences

    start = time.monotonic()
    rng = np.random.default_rng(55)
    worst_drop = 0.0
    for trial in range(50):
        k = int(rng.integers(1, 4))
        true = random_hmm(k, int(rng.integers(1, 4)), rng)
        seqs = sample_sequences(true, 5, 12, rng)
        _, trace = fit_hmm(seqs, k, max_iter=20, tol=0.0, seed=trial)
        if len(trace) > 1:
            worst_drop = min(worst_drop, float(np.min(np.diff(trace))))

    cases = 0
    mismatches = 0
    while cases < 200:
        k = int(rng.integers(1, 4))
        t = int(rng.integers(1, 9))
        model = random_hmm(k, 2, rng)
        seq = rng.normal(0, 2, size=(t, 2))
        got = viterbi_decode(model, seq)
        want = viterbi_bruteforce(model.initial, model.transition, model.means,
                                  model.variances, seq)
        mismatches += got != want
        cases += 1

    elapsed = time.monotonic() - start
    ok = worst_drop >= -1e-9 and mismatches == 0 and elapsed < 60
    report(5, ok, f"worst log-likelihood step {worst_drop:.2e} (>=-1e-9), "
                  f"{mismatches}/200 decoder mismatches, {elapsed:.1f}s (<60s)")
    assert worst_drop >= -1e-9
    assert mismatches == 0
    assert elapsed < 60


# --- criterion 6: graph primitives ---------------------------------------------------

def test_c06_graph_suite():
    rng = np.random.default_rng(66)
    worst_hub = 0.0
    for trial in range(50):
        n = int(rng.integers(2, 13))
        nodes = [Entity(name=f"n{i}", etype="Pod") for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        n_edges = int(rng.integers(0, len(pairs) + 1))
        picked = rng.choice(len(pairs), size=n_edges, replace=False)
        edges_idx = [pairs[k] for k in picked]
        g = make_graph(nodes, [(nodes[i], nodes[j]) for i, j in edges_idx])
        oracle = floyd_warshall(n, edges_idx)
        for i in range(n):
            for j in range(n):
                got = shortest_distance(g, nodes[i], nodes[j])
                want = None if np.isinf(oracle[i, j]) else int(oracle[i, j])
                assert got == want
        if edges_idx:
            hubs = hubs_scores(g, max_iter=5000, tol=1e-14)
            got_vec = np.array([hubs[e] for e in nodes])
            want_vec = hubs_eigen(n, edges_idx)
            worst_hub = max(worst_hub, float(np.linalg.norm(got_vec - want_vec)))
    ok = worst_hub < 1e-8
    report(6, ok, f"distances equal Floyd-Warshall on 50 graphs; "
                  f"hub error {worst_hub:.2e} (<1e-8)")
    assert worst_hub < 1e-8


# --- criterion 7: statistics -----------------------------------------------------------

def test_c07_statistics_suite():
    rng = np.random.default_rng(77)
    outcomes = (rng.random(10000) < 0.4).astype(int)
    res = pass_at_3_bootstrap(
        {"only": [TrialRecord(success=int(s), f1=float(s)) for s in outcomes]})
    boot_err = abs(res.recall_mean - (1 - 0.6**3))

    worst_p = 0.0
    for _ in range(20):
        base = rng.normal(size=10)
        method = base + rng.normal(0.3, 1.0, size=10)
        out = paired_t_bonferroni(base, {"m": method})
        diffs = method - base
        t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
        worst_p = max(worst_p, abs(out["m"].p_raw - t_sf_mp(float(t), 9)))

    two = nemenyi_cd(np.vstack([np.ones(20), np.full(20, 2.0)]), ["a", "b"])
    four = nemenyi_cd(np.full((4, 6), 2.5), list("abcd"))
    cd_err = max(abs(two.cd - 1.959964 * np.sqrt(6 / 120.0)),
                 abs(four.cd - 2.569032 * np.sqrt(20 / 36.0)))
    cd_n = nemenyi_cd(np.vstack([np.ones(10), np.full(10, 2.0)]), ["a", "b"]).cd
    scaling = cd_n / two.cd

    ok = (boot_err < 0.02 and worst_p < 1e-6 and cd_err < 1e-9
          and abs(scaling - np.sqrt(2.0)) < 1e-12)
    report(7, ok, f"bootstrap err {boot_err:.4f} (<0.02), t-test err {worst_p:.2e} "
                  f"(<1e-6), cd err {cd_err:.2e}, cd scaling sqrt2 "
                  f"{abs(scaling - np.sqrt(2.0)):.1e}")
    assert boot_err < 0.02
    assert worst_p < 1e-6
    assert cd_err < 1e-9
    assert abs(scaling - np.sqrt(2.0)) < 1e-12


# --- criteria 8-10: the closed loop -----------------------------------------------------

def test_c08_closed_loop_improvement(demo_run):
    cfg, out, summary, elapsed = demo_run
    methods = summary["methods"]
    arm = methods["rl_irl+prioritize"]
    base = methods["baseline"]
    bc = methods["bc+prioritize"]
    checks = c08_checks(methods, elapsed)
    report(8, all(checks.values()),
           f"recall {arm['pass3_recall_mean']:.3f} vs baseline "
           f"{base['pass3_recall_mean']:.3f}, adjusted p {arm['p_adjusted']:.2e} "
           f"(<0.05), rank {arm['avg_rank']:.2f} <= BC {bc['avg_rank']:.2f}, "
           f"end-to-end {elapsed:.0f}s (<600s)")
    assert checks["improved"]
    assert checks["significant"]
    assert checks["rank_ok"]
    assert checks["in_time"]


def test_c09_pruning_cost(demo_run):
    _, _, summary, _ = demo_run
    methods = summary["methods"]
    prune = methods["rl_irl+prune"]["mean_entities_explored"]
    base = methods["baseline"]["mean_entities_explored"]
    ok = c09_holds(methods)
    report(9, ok, f"pruned arm explored {prune:.2f} entities on average vs "
                  f"baseline {base:.2f} (paired seeds)")
    assert ok


def test_c10_robustness_sweep_soft(demo_run):
    cfg, out, _, _ = demo_run
    sweep = robustness_sweep(cfg, out, counts=(100, 200, 300, 400))
    rl_range = sweep["range"]["rl_irl"]
    bc_range = sweep["range"]["bc"]
    ok = rl_range < bc_range
    report(10, ok,
           f"initial-value range over trajectory budgets: reward-relabeled "
           f"{rl_range:.4f} vs cloner {bc_range:.4f} (soft criterion)")
    if not ok:
        warnings.warn(
            "soft robustness criterion not met: "
            f"rl_irl range {rl_range:.4f} >= bc range {bc_range:.4f}"
        )


def test_c11_reproduce_determinism(tmp_path):
    cfg = validate_config(json.loads(json.dumps(SMALL_CONFIG)))
    s1 = stage_reproduce(cfg, tmp_path / "one")
    s2 = stage_reproduce(cfg, tmp_path / "two")
    ok = s1["artifacts"] == s2["artifacts"]
    n_files = sum(len(v) for v in s1["artifacts"].values())
    report(11, ok, f"two full runs, {n_files} artifact hashes identical")
    assert ok
