"""Off-policy evaluation: fitted Q-evaluation and initial-value ranking.

FQE re-estimates the Q function of a frozen target policy from logged
transitions: Q(s_t, a_t) <- r_t + gamma * sum_a' pi(a'|s_{t+1}) Q(s_{t+1}, a'),
with terminal steps bootstrapping zero. The expectation uses the full
softmax policy, since downstream interventions consume those probabilities.
The initial value averages the policy-weighted Q over the logged initial
states and ranks candidate policies offline.

The DT-MDP is finite, so Q keeps one cell per distinct (state, action) row
of the table (``TransitionTable.row_id``), over each step's recorded
candidates, for index and feature actions alike. Each sweep sets every
taken cell to the mean Bellman backup of the steps that take it
(``TransitionTable.taken_means``), which is exact policy evaluation on the
empirical MDP (model-based OPE). A cell that no logged step takes stays at
0. The policy's probabilities are the served ones, ``policy_probs``, bit for
bit, so a tabular policy rejects an id outside its columns here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoCandidates
from .nets import softmax_rows
from .offline_rl import (
    QPolicy,
    TabularQ,
    TrainConfig,
    TransitionTable,
    build_transitions,
)


@dataclass
class FqeEstimate:
    target_policy_id: str
    initial_value: float


def fqe(policy: QPolicy, eval_trajs, cfg: TrainConfig, policy_id: str = "",
        tol: float = 1e-5, max_sweeps: int = 500) -> FqeEstimate:
    """Fitted Q-evaluation of ``policy`` on logged trajectories.

    ``eval_trajs`` is a packed corpus, a trajectory list, or their
    TransitionTable; a table is only read, so one can score many policies.
    The evaluation set should be disjoint from the policy's training data;
    that split is the caller's responsibility. Of ``cfg`` only the discount,
    ``cfg.gamma``, is read. The sweep stops after ``max_sweeps``, or once the
    largest cell change delta of a sweep has delta * gamma <= tol * (1 - gamma).
    The sweep is a gamma-contraction in the largest cell error, so every cell,
    and with them the initial value, is then within ``tol`` of the fixed
    point; at gamma = 0 the first sweep is exact.
    """
    return fqe_many([policy], eval_trajs, cfg, [policy_id], tol, max_sweeps)[0]


def fqe_many(policies, eval_trajs, cfg: TrainConfig, policy_ids=None,
             tol: float = 1e-5, max_sweeps: int = 500) -> list[FqeEstimate]:
    """``fqe`` of every policy on one table, each estimate equal to its own call."""
    table = (eval_trajs if isinstance(eval_trajs, TransitionTable)
             else build_transitions(eval_trajs))
    return [FqeEstimate(target_policy_id=pid,
                        initial_value=_fqe_rows(table, policy, cfg, tol, max_sweeps))
            for policy, pid in zip(policies, policy_ids or [""] * len(policies))]


def _fqe_rows(table, policy, cfg, tol, max_sweeps) -> float:
    """The initial value of ``policy`` under a Q cell per distinct row."""
    row_id, group = table.row_id, table.cand_step
    pi_flat = _flat_policy_probs(table, policy)
    q = np.zeros(len(table.cand_rows))

    for _ in range(max_sweeps):
        expectation = np.bincount(group, weights=pi_flat * q[row_id], minlength=table.n)
        new_q = table.taken_means(q, table.backup(expectation, cfg.gamma))
        delta = float(np.max(np.abs(new_q - q)))
        q = new_q
        if delta * cfg.gamma <= tol * (1.0 - cfg.gamma):
            break

    expectation = np.bincount(group, weights=pi_flat * q[row_id], minlength=table.n)
    return float(np.mean(expectation[table.corpus.step_offsets[:-1]]))


def _flat_policy_probs(table: TransitionTable, policy: QPolicy) -> np.ndarray:
    """pi(a|s) for every candidate entry, equal to the per-step policy_probs
    bit for bit; fixed for the whole evaluation.

    The steps with k candidates form one (B, k) array of values, and
    ``softmax_rows`` is policy_probs' softmax on B rows at once. A table
    looks each distinct state up once. A network forwards each (B, k, d)
    stack, whose slices are the steps' own forwards. Forwarding the distinct
    rows once would not do: BLAS picks its kernel by call shape, so a row's
    output in one (U, d) call can differ in its last bits from its output in
    its step's own (k, d) call.
    """
    q, off = policy.q, table.corpus.cand_offsets
    tabular = isinstance(q, TabularQ)
    if tabular:
        index, sid = table.state_ids
        unseen = len(q.q)  # the extra zero row
        q_row = np.array([q.state_index.get(s, unseen) for s in index], dtype=int)[sid]
        padded = np.vstack([q.q, np.zeros((1, q.n_actions))])
        values = padded[q_row[table.cand_step], q.columns(table.candidates)]
    else:
        rows = q.encode(table.states[table.cand_step], table.candidates)
    counts = np.diff(off)
    probs = np.empty(off[-1])
    for k in np.unique(counts):
        entries = off[:-1][counts == k, None] + np.arange(k)
        logits = values[entries] if tabular else q.net.forward(rows[entries])
        probs[entries] = softmax_rows(logits / policy.temperature)
    return probs


def rank_policies(candidates, eval_trajs, cfg: TrainConfig, k: int) -> list[dict]:
    """FQE-score every candidate policy and return the top-k.

    ``candidates`` is a list of (QPolicy, metadata) where metadata carries at
    least an "id". Sorting is by initial value descending, ties broken by id,
    so the result is independent of input order.
    """
    if not candidates:
        raise NoCandidates("no candidate policies to rank")
    if k < 1:
        raise NoCandidates("k must be >= 1")
    estimates = fqe_many([policy for policy, _ in candidates], eval_trajs, cfg)
    entries = [{"id": str(meta.get("id", "")), "initial_value": est.initial_value,
                "metadata": dict(meta)} for est, (_, meta) in zip(estimates, candidates)]
    entries.sort(key=lambda e: (-e["initial_value"], e["id"]))
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries[: min(k, len(entries))]
