"""Offline policy induction and offline policy selection.

Logs episodes from a small known MDP, fits the conservative Q-learner and a
behavior cloner, verifies the Q-learner against exact value iteration, and
ranks candidate policies by their fitted-Q initial values without touching
the environment again.
"""

import numpy as np

from twinmdp import (
    QPolicy,
    TrainConfig,
    bc_train,
    cql_train,
    fqe,
    policy_probs,
    rank_policies,
)
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.trajectories import JudgeScores

rng = np.random.default_rng(1)

# Deterministic episodic MDP: 4 states, 3 actions; action 0 ends the episode.
N_STATES, N_ACTIONS = 4, 3
nxt = np.empty((N_STATES, N_ACTIONS), dtype=int)
nxt[:, 0] = -1
for a in (1, 2):
    nxt[:, a] = rng.integers(0, N_STATES, size=N_STATES)
rewards = np.round(rng.uniform(-1, 1, size=(N_STATES, N_ACTIONS)), 2)
print("reward table:")
print(rewards)


def episode(start, rng):
    s, steps = start, []
    for t in range(8):
        a = 0 if t == 7 else int(rng.integers(0, N_ACTIONS))
        steps.append(AbstractStep(state=np.array([float(s)]), action=a,
                                  reward=rewards[s, a],
                                  candidates=list(range(N_ACTIONS))))
        if nxt[s, a] < 0:
            break
        s = nxt[s, a]
    return AbstractTrajectory(trajectory_id=f"e{rng.integers(1 << 30)}",
                              scenario_id="mdp", scheme="name", steps=steps,
                              scores=JudgeScores(0.0, 0.0))


trajs = [episode(int(rng.integers(N_STATES)), rng) for _ in range(120)]
print(f"\nlogged {sum(len(t.steps) for t in trajs)} transitions")

print("\n== conservative Q-learning (alpha = 0 reduces to fitted Q-iteration) ==")
cfg = TrainConfig(alpha=0.0, gamma=0.9, iterations=30000, target_refresh=100,
                  seed=0)
q = cql_train(trajs, cfg)

q_star = np.zeros((N_STATES, N_ACTIONS))
for _ in range(300):
    cont = np.where(nxt >= 0, q_star[np.maximum(nxt, 0)].max(axis=2), 0.0)
    q_star = rewards + 0.9 * cont
learned = np.stack([q.values(np.array([float(s)]), [0, 1, 2])
                    for s in range(N_STATES)])
print(f"max |Q - Q*| = {np.max(np.abs(learned - q_star)):.2e}")
print(f"greedy actions: learned {learned.argmax(axis=1)}, "
      f"optimal {q_star.argmax(axis=1)}")

print("\n== softmax policies over candidate actions ==")
policy = QPolicy(q=q, temperature=1.0)
for s in range(N_STATES):
    probs = policy_probs(policy, np.array([float(s)]), [0, 1, 2])
    print(f"state {s}: " + " ".join(f"{p:.3f}" for p in probs))

print("\n== behavior cloning reproduces the logged (uniform) behavior ==")
cloner = bc_train(trajs, TrainConfig(seed=0))
probs = policy_probs(cloner, np.array([0.0]), [0, 1, 2])
print("state 0:", " ".join(f"{p:.3f}" for p in probs))

print("\n== offline ranking by fitted-Q initial value ==")
sharp = QPolicy(q=q, temperature=0.2)   # close to greedy on the learned Q
flat = QPolicy(q=q, temperature=5.0)    # nearly uniform
ranked = rank_policies(
    [(sharp, {"id": "greedy-ish"}), (flat, {"id": "diffuse"}),
     (cloner, {"id": "cloner"})],
    trajs, TrainConfig(gamma=0.9, seed=0), k=3,
)
for entry in ranked:
    print(f"  rank {entry['rank']}: {entry['id']:10s} "
          f"initial value {entry['initial_value']:+.4f}")

est = fqe(sharp, trajs, TrainConfig(gamma=0.9, seed=0), policy_id="greedy-ish")
print(f"\nfitted-Q estimate for the sharp policy: {est.initial_value:+.4f}")
