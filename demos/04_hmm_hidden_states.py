"""Hidden-phase modeling of diagnosis walks.

Feature sequences from simulated episodes feed a Gaussian hidden Markov
model; the decoded states behave like coarse phases of the investigation
(scanning vs closing in) and can be appended to the policy's state.
"""

import numpy as np

from twinmdp import (
    EpisodeConfig,
    ScenarioConfig,
    SchemeSpec,
    abstract,
    fit_hmm,
    generate_scenario,
    run_episode,
    viterbi_decode,
)

rng_seeds = range(40)
scn_cfg = ScenarioConfig(n_nodes=12, edge_density=0.08, chain_length=4,
                         evidence_noise=0.05)
ep_cfg = EpisodeConfig(max_turns=10, epsilon=0.4)

print("== simulating 40 episodes and abstracting their feature sequences ==")
episodes, graphs = [], {}
for seed in rng_seeds:
    scn = generate_scenario(scn_cfg, seed=seed, scenario_id=f"s{seed}")
    episodes.append(run_episode(scn, None, ep_cfg, seed=seed).trajectory)
    graphs[scn.scenario_id] = scn.graph
tables = abstract(episodes, SchemeSpec(kind="topology", unreachable_sentinel=12.0), graphs)

sequences = tables.observations()
dims = sequences[0].shape[1]
print(f"{len(sequences)} sequences, {dims}-dimensional observations "
      "(state features ++ action features)")

print("\n== fitting a 3-state model with seeded EM ==")
model, trace = fit_hmm(sequences, n_states=3, max_iter=40, seed=0)
print(f"log-likelihood: {trace[0]:.1f} -> {trace[-1]:.1f} "
      f"({len(trace)} iterations, monotone non-decreasing)")
print("state means (rows are hidden states):")
print(np.round(model.means, 2))
print("transition matrix:")
print(np.round(model.transition, 2))

print("\n== decoding one walk ==")
path = viterbi_decode(model, sequences[0])
print("hidden phase per turn:", path)

print("\n== the decoded phase as columns of the DT-MDP's state table ==")
augmented = tables.with_hidden_states(model)
first = slice(*tables.step_offsets[:2])
print("state rows before:", tables.states[tables.state_id[first]].tolist())
print("state rows after :", augmented.states[augmented.state_id[first]].tolist())
print("appended 1-hot columns, per turn:", np.argmax(
    augmented.states[augmented.state_id[first], -model.n_states:], axis=1).tolist())
print(f"distinct states: {len(tables.states)} -> {len(augmented.states)}")
