"""Learning a per-turn reward from trajectory rankings alone.

Generates episodes in a world whose true per-step reward is known, keeps
only the induced ranking (scores on a 0-100 scale), and trains the
preference model. The learned reward never sees a single true reward value,
yet ranks held-out trajectory pairs almost perfectly and tracks the true
reward's structure.
"""

import numpy as np

from twinmdp import JudgeScores, build_pairs, pair_accuracy, relabel, train_reward
from twinmdp.abstraction import AbstractStep, AbstractTrajectory
from twinmdp.reward_learning import RewardTrainConfig, trajectory_return

rng = np.random.default_rng(0)

w_state = rng.normal(size=3)
w_action = rng.normal(size=2)


def true_reward(state, action):
    return float(state @ w_state + action @ w_action)


print("== generating 200 episodes with hidden ground-truth rewards ==")
trajs, returns = [], []
for i in range(200):
    steps, total = [], 0.0
    for _ in range(8):
        state, action = rng.normal(size=3), rng.normal(size=2)
        total += true_reward(state, action)
        steps.append(AbstractStep(state=state, action=action, reward=0.0,
                                  candidates=[action]))
    trajs.append(AbstractTrajectory(trajectory_id=f"ep{i}", scenario_id="w",
                                    scheme="topology", steps=steps,
                                    scores=JudgeScores(0.0, 0.0)))
    returns.append(total)

returns = np.asarray(returns)
scores = 100.0 * (returns - returns.min()) / (returns.max() - returns.min())
print(f"true returns span [{returns.min():.2f}, {returns.max():.2f}]")

pairs = build_pairs(
    [(t, JudgeScores(s, 0.0)) for t, s in zip(trajs, scores)],
    signal="fpc_only", margin=5.0, max_pairs=2500, seed=0,
)
holdout, train = pairs[::10], [p for i, p in enumerate(pairs) if i % 10]
print(f"{len(pairs)} preference pairs ({len(holdout)} held out)")

print("\n== training the reward network on pairwise preferences ==")
net = train_reward(train, trajs, RewardTrainConfig(hidden_units=32, epochs=12,
                                                   seed=0))
print(f"held-out pair ranking accuracy: {pair_accuracy(net, holdout, trajs):.3f}")

predicted = np.array([trajectory_return(net, t) for t in trajs])
corr = np.corrcoef(predicted, returns)[0, 1]
print(f"corr(predicted return, true return) = {corr:.3f}")

print("\n== relabeling a trajectory with the learned per-turn reward ==")
dense = relabel([trajs[0]], net, mode="irl")
sparse = relabel([trajs[0]], mode="sparse", outcome=scores[0])
print("irl   :", [f"{r:+.2f}" for r in dense.rewards])
print("sparse:", [f"{r:+.2f}" for r in sparse.rewards])
