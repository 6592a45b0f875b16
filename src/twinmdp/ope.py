"""Off-policy evaluation: fitted Q-evaluation and initial-value ranking.

FQE re-estimates the Q function of a frozen target policy from logged
transitions: Q(s_t, a_t) <- r_t + gamma * sum_a' pi(a'|s_{t+1}) Q(s_{t+1}, a'),
with terminal steps bootstrapping zero. The expectation uses the full
softmax policy, since downstream interventions consume those probabilities.
The initial value averages the policy-weighted Q over the logged initial
states and ranks candidate policies offline.
Network FQE fits all candidates in lockstep, as one stack of networks on
the shared minibatch trainer; each equals its own one-policy fit bit for bit.
A refresh forwards the table's distinct rows once, through the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoCandidates
from .nets import Mlp, grouped_max
from .offline_rl import (
    CandidateSet,
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    TransitionTable,
    build_transitions,
    minibatch_train,
    network_q,
)


@dataclass
class FqeEstimate:
    qhat: TabularQ | NetworkQ
    target_policy_id: str
    initial_value: float


def fqe(policy: QPolicy, eval_trajs, cfg: TrainConfig, action_space=CandidateSet(),
        policy_id: str = "", tol: float = 1e-5, max_sweeps: int = 500) -> FqeEstimate:
    """Fitted Q-evaluation of ``policy`` on logged trajectories.

    ``eval_trajs`` is a trajectory list or its TransitionTable, built under
    ``action_space``; a table is only read, so one can score many policies.
    The evaluation set should be disjoint from the policy's training data;
    that split is the caller's responsibility.
    """
    return fqe_many([policy], eval_trajs, cfg, action_space, [policy_id], tol,
                    max_sweeps)[0]


def fqe_many(policies, eval_trajs, cfg: TrainConfig, action_space=CandidateSet(),
             policy_ids=None, tol: float = 1e-5, max_sweeps: int = 500) -> list[FqeEstimate]:
    """``fqe`` of every policy on one table, each estimate equal to its own call."""
    table = (eval_trajs if isinstance(eval_trajs, TransitionTable)
             else build_transitions(list(eval_trajs), action_space))
    if table.index_actions:
        fits = [_fqe_tabular(table, policy, cfg, tol, max_sweeps) for policy in policies]
    else:
        fits = _fqe_network(table, policies, cfg, tol)
    return [FqeEstimate(qhat=qhat, target_policy_id=pid, initial_value=value)
            for (qhat, value), pid in zip(fits, policy_ids or [""] * len(policies))]


def _flat_policy_probs(table: TransitionTable, policy: QPolicy) -> np.ndarray:
    """pi(a|s) for every candidate entry, equal to the per-step policy_probs;
    fixed for the whole evaluation."""
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
    # a network: one (B, k, d) forward per candidate count k, whose slices are
    # the steps' own forwards, then a row-wise softmax
    q, off = policy.q, table.cand_offsets
    rows = q.encode(table.states[group], cand)
    counts = np.diff(off)
    probs = np.empty(len(rows))
    for k in np.unique(counts):
        entries = off[:-1][counts == k, None] + np.arange(k)
        logits = q.net.forward(rows[entries]) / policy.temperature
        peak = logits.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            expd = np.exp(logits - peak)
            expd /= expd.sum(axis=1, keepdims=True)
        expd[~np.isfinite(peak[:, 0])] = 1.0 / k  # untrained region: uniform
        probs[entries] = expd
    return probs


# --- tabular FQE -------------------------------------------------------------------

def _fqe_tabular(table, policy, cfg, tol, max_sweeps):
    """Q is kept flat, a cell per (state, action); ``cand_cell`` reads it."""
    index = table.state_ids[0]
    cand_cell, group = table.cand_cell, table.cand_step
    cell = cand_cell[table.taken]
    pi_flat = _flat_policy_probs(table, policy)
    q = np.zeros(len(index) * table.n_actions)
    counts = np.bincount(cell, minlength=q.size).astype(float)
    seen = counts > 0

    for _ in range(max_sweeps):
        expectation = np.bincount(group, weights=pi_flat * q[cand_cell], minlength=table.n)
        sums = np.bincount(cell, weights=table.backup(expectation, cfg.gamma),
                           minlength=q.size)
        new_q = q.copy()
        new_q[seen] = sums[seen] / counts[seen]
        delta = float(np.max(np.abs(new_q - q)))
        q = new_q
        if delta < tol:
            break

    expectation = np.bincount(group, weights=pi_flat * q[cand_cell], minlength=table.n)
    value = float(np.mean(expectation[table.episode_starts]))
    return TabularQ(state_index=index, q=q.reshape(len(index), table.n_actions),
                    gamma=cfg.gamma), value


# --- network FQE -------------------------------------------------------------------

def _fqe_network(table, policies, cfg, tol):
    """Lockstep FQE of P policies on one (P, n) stack. A member leaves the stack
    at the first round its value moves by < tol, and its fit is its net then."""
    group, n_pol = table.cand_step, len(policies)
    pi = [_flat_policy_probs(table, policy) for policy in policies]
    steps = max(1, cfg.iterations // cfg.target_refresh) * cfg.target_refresh
    active, prev, fits, targets = list(range(n_pol)), [np.inf] * n_pol, [None] * n_pol, None

    def refresh(net, step):
        nonlocal targets
        members = [Mlp.from_params(net.input_dim, cfg.hidden_units, w)
                   for w in net.params.copy()]
        out = net.forward(table.cand_rows)[:, table.row_id]  # one stacked forward
        expect = np.reshape([np.bincount(group, pi[p] * q_p, table.n)
                             for p, q_p in zip(active, out)], (len(active), table.n))
        keep = np.ones(len(active), dtype=bool)
        for j, p in enumerate(active if step else ()):
            value = float(np.mean(expect[j][table.episode_starts]))
            if abs(value - prev[p]) < tol or step == steps:
                fits[p], keep[j] = (network_q(table, members[j], cfg.gamma), value), False
            prev[p] = value
        active[:] = [p for p, kept in zip(active, keep) if kept]
        targets = table.backup(expect[keep], cfg.gamma)
        return keep

    def learner(batch):
        out = yield table.row_id[table.taken[batch]]
        yield 2.0 * (out - targets[:, batch]) / len(batch)

    refresh(minibatch_train(table, cfg, learner, n_pol, steps, refresh), steps)
    return fits


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
    estimates = fqe_many([policy for policy, _ in candidates], eval_trajs, cfg, action_space)
    entries = [{"id": str(meta.get("id", "")), "initial_value": est.initial_value,
                "metadata": dict(meta)} for est, (_, meta) in zip(estimates, candidates)]
    entries.sort(key=lambda e: (-e["initial_value"], e["id"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries[: min(k, len(entries))]
