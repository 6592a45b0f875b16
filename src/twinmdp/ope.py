"""Off-policy evaluation: fitted Q-evaluation and initial-value ranking.

FQE re-estimates the Q function of a frozen target policy from logged
transitions: Q(s_t, a_t) <- r_t + gamma * sum_a' pi(a'|s_{t+1}) Q(s_{t+1}, a'),
with terminal steps bootstrapping zero. The expectation uses the full
softmax policy, since downstream interventions consume those probabilities.
The initial value averages the policy-weighted Q over the logged initial
states and ranks candidate policies offline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoCandidates
from .nets import grouped_max
from .offline_rl import (
    CandidateSet,
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    TransitionTable,
    build_transitions,
    network_q,
    network_setup,
)


@dataclass
class FqeEstimate:
    qhat: TabularQ | NetworkQ
    target_policy_id: str
    initial_value: float


def fqe(
    policy: QPolicy,
    eval_trajs,
    cfg: TrainConfig,
    action_space=CandidateSet(),
    policy_id: str = "",
    tol: float = 1e-5,
    max_sweeps: int = 500,
) -> FqeEstimate:
    """Fitted Q-evaluation of ``policy`` on logged trajectories.

    ``eval_trajs`` is a trajectory list or its TransitionTable, built under
    ``action_space``; a table is only read, so one can score many policies.
    The evaluation set should be disjoint from the policy's training data;
    that split is the caller's responsibility.
    """
    table = (eval_trajs if isinstance(eval_trajs, TransitionTable)
             else build_transitions(list(eval_trajs), action_space))
    if table.index_actions:
        qhat, value = _fqe_tabular(table, policy, cfg, tol, max_sweeps)
    else:
        qhat, value = _fqe_network(table, policy, cfg, tol)
    return FqeEstimate(qhat=qhat, target_policy_id=policy_id, initial_value=value)


def _flat_policy_probs(table: TransitionTable, policy: QPolicy) -> np.ndarray:
    """pi(a|s) for every candidate entry; fixed for the whole evaluation."""
    cand, group = table.candidates, table.cand_step
    if isinstance(policy.q, TabularQ) and table.index_actions:
        pq = policy.q
        index, sid = table.state_ids  # each distinct state looked up once
        unseen = len(pq.q)  # the extra zero row
        sid_pol = np.array([pq.state_index.get(s, unseen) for s in index], dtype=int)[sid]
        padded = np.vstack([pq.q, np.zeros((1, pq.n_actions))])
        logits = padded[sid_pol[group], cand] / policy.temperature
        gmax = grouped_max(logits, group, table.n)
        # states where every candidate is -inf (never-taken actions) -> uniform
        degenerate = ~np.isfinite(gmax)
        safe_max = np.where(degenerate, 0.0, gmax)
        expd = np.where(np.isfinite(logits), np.exp(logits - safe_max[group]), 0.0)
        expd[degenerate[group]] = 1.0
        gsum = np.zeros(table.n)
        np.add.at(gsum, group, expd)
        return expd / gsum[group]
    # generic path: one probs call per transition, as the policy is served
    off = table.cand_offsets
    return np.concatenate([policy.probs(table.states[i], cand[off[i] : off[i + 1]])
                           for i in range(table.n)])


# --- tabular FQE -------------------------------------------------------------------

def _fqe_tabular(table, policy, cfg, tol, max_sweeps):
    n_actions = table.n_actions
    index, sid = table.state_ids
    cell = sid * n_actions + table.cand_ids[table.taken]
    counts = np.bincount(cell, minlength=len(index) * n_actions).astype(float)
    seen = counts > 0

    cand, group = table.cand_ids, table.cand_step
    pi_flat = _flat_policy_probs(table, policy)
    sid_flat = sid[group]

    has_next = ~table.terminal
    nxt = table.next_step[has_next]
    rewards = table.rewards

    q = np.zeros((len(index), n_actions))
    for _ in range(max_sweeps):
        expectation = np.bincount(
            group, weights=pi_flat * q[sid_flat, cand], minlength=table.n
        )
        targets = rewards.copy()
        targets[has_next] = rewards[has_next] + cfg.gamma * expectation[nxt]
        sums = np.bincount(cell, weights=targets, minlength=q.size)
        new_flat = q.reshape(-1).copy()
        new_flat[seen] = sums[seen] / counts[seen]
        new_q = new_flat.reshape(q.shape)
        delta = float(np.max(np.abs(new_q - q)))
        q = new_q
        if delta < tol:
            break

    expectation = np.bincount(
        group, weights=pi_flat * q[sid_flat, cand], minlength=table.n
    )
    value = float(np.mean(expectation[table.episode_starts]))
    return TabularQ(state_index=index, q=q, gamma=cfg.gamma), value


# --- network FQE -------------------------------------------------------------------

def _fqe_network(table, policy, cfg, tol):
    cand_rows, net, optimizer, rng = network_setup(table, cfg)
    taken_rows = cand_rows[table.taken]
    group = table.cand_step
    pi_flat = _flat_policy_probs(table, policy)

    has_next = ~table.terminal
    nxt = table.next_step[has_next]

    target = net.copy()
    prev_value = np.inf
    value = 0.0
    rounds = max(1, cfg.iterations // max(1, cfg.target_refresh))
    for _ in range(rounds):
        cand_q = target.forward(cand_rows)
        expectation = np.bincount(group, weights=pi_flat * cand_q, minlength=table.n)
        targets = table.rewards.copy()
        targets[has_next] = table.rewards[has_next] + cfg.gamma * expectation[nxt]
        for _ in range(max(1, cfg.target_refresh)):
            batch = rng.choice(table.n, size=min(cfg.batch_size, table.n),
                               replace=False)
            out, acts = net.forward_cached(taken_rows[batch])
            dout = 2.0 * (out - targets[batch]) / len(batch)
            optimizer.step(net.backward(acts, dout))
        target = net.copy()
        cand_q = net.forward(cand_rows)
        expectation = np.bincount(group, weights=pi_flat * cand_q, minlength=table.n)
        value = float(np.mean(expectation[table.episode_starts]))
        if abs(value - prev_value) < tol:
            break
        prev_value = value

    return network_q(table, net, cfg.gamma), value


def rank_policies(candidates, eval_trajs, cfg: TrainConfig, k: int,
                  action_space=CandidateSet()) -> list[dict]:
    """FQE-score every candidate policy and return the top-k.

    ``candidates`` is a list of (QPolicy, metadata) where metadata carries at
    least an "id". Sorting is by initial value descending, ties broken by id,
    so the result is independent of input order.
    """
    if not candidates:
        raise NoCandidates("no candidate policies to rank")
    if k < 1:
        raise NoCandidates("k must be >= 1")
    table = build_transitions(list(eval_trajs), action_space)
    entries = []
    for policy, metadata in candidates:
        pid = str(metadata.get("id", ""))
        est = fqe(policy, table, cfg, policy_id=pid)
        entries.append(
            {
                "id": pid,
                "initial_value": est.initial_value,
                "metadata": dict(metadata),
            }
        )
    entries.sort(key=lambda e: (-e["initial_value"], e["id"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries[: min(k, len(entries))]
