"""Independent brute-force oracles used to freeze and verify expected values.

Everything here is deliberately naive (dense matrices, exhaustive
enumeration, quadratic loops, high-precision arithmetic) and never shares
code with the implementations under test. The training-loop references at
the end drive the package's own network and optimizer, but do every step's
index bookkeeping inside the step, as the loops did before they planned
their batches ahead. The held closed loop at the end drives the package's
own simulator and corpus writer, and holds every episode until it writes
them, as ``collect`` and ``simulate`` did before they streamed.
"""

from __future__ import annotations

import csv
import itertools
import json
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
from scipy.cluster.vq import kmeans2

from twinmdp import pipeline, simulator
from twinmdp.nets import Adam, Mlp
from twinmdp.offline_rl import load_policy
from twinmdp.trajectories import save_corpus


def corpus_line_via_dicts(traj) -> str:
    """A raw corpus line as the writer built it before it wrote text: one dict
    per record, step and entity mention, then ``json.dumps(sort_keys=True)``."""
    def entity(e):
        return {"name": e.name, "etype": e.etype}

    def step(s):
        return {
            "turn_index": s.turn_index,
            "chosen_entity": entity(s.chosen_entity),
            "candidate_entities": [entity(e) for e in s.candidate_entities],
            "assessments": [
                [entity(e), label]
                for e, label in sorted(s.assessments.items(), key=lambda kv: kv[0])
            ],
            "intermediate_reward": s.intermediate_reward,
        }

    return json.dumps({
        "trajectory_id": traj.trajectory_id,
        "scenario_id": traj.scenario_id,
        "symptom_entity": entity(traj.symptom_entity),
        "steps": [step(s) for s in traj.steps],
        "scores": {
            "fpc_accuracy": traj.scores.fpc_accuracy,
            "rce_identification": traj.scores.rce_identification,
        },
        "final_root_cause": (
            entity(traj.final_root_cause) if traj.final_root_cause else None
        ),
    }, sort_keys=True)


def abstract_line_via_dicts(traj) -> str:
    """An abstract corpus line as the writer built it before it wrote text: one
    dict per record, step and action, then ``json.dumps(sort_keys=True)``."""
    def action(a):
        if isinstance(a, (int, np.integer)):
            return {"index": int(a)}
        return {"features": np.asarray(a, dtype=float).tolist()}

    return json.dumps({
        "trajectory_id": traj.trajectory_id,
        "scenario_id": traj.scenario_id,
        "scheme": traj.scheme,
        "scores": {
            "fpc_accuracy": traj.scores.fpc_accuracy,
            "rce_identification": traj.scores.rce_identification,
        },
        "steps": [
            {
                "state": s.state.tolist(),
                "action": action(s.action),
                "reward": s.reward,
                "candidates": [action(c) for c in s.candidates],
            }
            for s in traj.steps
        ],
    }, sort_keys=True)


def floyd_warshall(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """All-pairs directed distances; inf when unreachable."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        dist[u, v] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    return dist


def hubs_eigen(n: int, edges: list[tuple[int, int]],
               iters: int = 20000) -> np.ndarray:
    """Dominant eigenvector of E E^T by long dense power iteration."""
    E = np.zeros((n, n))
    for u, v in edges:
        E[u, v] = 1.0
    M = E @ E.T
    h = np.ones(n) / np.sqrt(n)
    for _ in range(iters):
        nxt = M @ h
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return h
        h = nxt / norm
    return h


def viterbi_bruteforce(initial, transition, means, variances, seq) -> list[int]:
    """Exhaustive argmax over all K^T state paths (log domain)."""
    K = len(initial)
    T = len(seq)
    log_init = np.log(np.maximum(initial, 1e-300))
    log_trans = np.log(np.maximum(transition, 1e-300))

    def emis(t, k):
        diff = seq[t] - means[k]
        return float(
            -0.5 * np.sum(np.log(2 * np.pi * variances[k]) + diff * diff / variances[k])
        )

    # each (t, k) emission once; the path loop adds them in the same order
    table = [[emis(t, k) for k in range(K)] for t in range(T)]
    best_path = None
    best_score = -np.inf
    for path in itertools.product(range(K), repeat=T):
        score = log_init[path[0]] + table[0][path[0]]
        for t in range(1, T):
            score += log_trans[path[t - 1], path[t]] + table[t][path[t]]
        if score > best_score:
            best_score = score
            best_path = path
    return list(best_path)


def _log_emissions_per_sequence(means, variances, seq) -> np.ndarray:
    diff = seq[:, None, :] - means[None, :, :]
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
    quad = -0.5 * np.sum(diff * diff / variances[None, :, :], axis=2)
    return quad + log_norm[None, :]


def forward_backward_per_sequence(initial, transition, means, variances, seq):
    """Scaled forward-backward (Rabiner 1989) over one (T, D) sequence:
    (gamma, xi_sum, log_likelihood), one (K,) vector product per step."""
    log_emis = _log_emissions_per_sequence(means, variances, seq)
    T, K = log_emis.shape
    shift = log_emis.max(axis=1, keepdims=True)
    emis = np.exp(log_emis - shift)
    alpha = np.zeros((T, K))
    scale = np.zeros(T)
    alpha[0] = initial * emis[0]
    scale[0] = alpha[0].sum()
    alpha[0] /= scale[0]
    for t in range(1, T):
        alpha[t] = (alpha[t - 1] @ transition) * emis[t]
        scale[t] = alpha[t].sum()
        alpha[t] /= scale[t]
    beta = np.zeros((T, K))
    beta[-1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (transition @ (emis[t + 1] * beta[t + 1])) / scale[t + 1]
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = np.zeros((K, K))
    for t in range(T - 1):
        xi = (alpha[t][:, None] * transition) * (emis[t + 1] * beta[t + 1])[None, :]
        xi_sum += xi / scale[t + 1]
    log_likelihood = float(np.sum(np.log(scale)) + np.sum(shift))
    return gamma, xi_sum, log_likelihood


def fit_hmm_per_sequence(sequences, n_states, max_iter=100, tol=1e-6, seed=0):
    """Baum-Welch with one forward-backward pass per sequence per iteration,
    the statistics accumulated sequence by sequence. The means start at
    scipy's ``kmeans2(minit="++")`` centres of the pooled observations, the
    variances at the pooled variance, the probabilities uniform. Returns
    (initial, transition, means, variances) and the log-likelihood trace."""
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    pooled = np.concatenate(seqs, axis=0)
    var_floor = 1e-6
    pooled_var = np.maximum(pooled.var(axis=0), var_floor)
    K, D = n_states, pooled.shape[1]
    if K == 1:
        means = pooled.mean(axis=0, keepdims=True)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            means = kmeans2(pooled, K, minit="++", seed=np.random.default_rng(seed))[0]
    variances = np.tile(pooled_var, (K, 1))
    initial = np.full(K, 1.0 / K)
    transition = np.full((K, K), 1.0 / K)
    ll_trace = []
    for _ in range(max_iter):
        init_acc = np.zeros(K)
        trans_acc = np.zeros((K, K))
        weight_acc = np.zeros(K)
        mean_acc = np.zeros((K, D))
        sq_acc = np.zeros((K, D))
        total_ll = 0.0
        for seq in seqs:
            gamma, xi_sum, ll = forward_backward_per_sequence(
                initial, transition, means, variances, seq)
            total_ll += ll
            init_acc += gamma[0]
            trans_acc += xi_sum
            weight_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ seq
            sq_acc += gamma.T @ (seq * seq)
        ll_trace.append(total_ll)
        initial = init_acc / init_acc.sum()
        row = trans_acc.sum(axis=1, keepdims=True)
        transition = np.where(row > 0, trans_acc / np.where(row > 0, row, 1.0), 1.0 / K)
        w = np.maximum(weight_acc, 1e-12)[:, None]
        means = mean_acc / w
        variances = np.maximum(sq_acc / w - means * means, var_floor)
        if len(ll_trace) >= 2 and ll_trace[-1] - ll_trace[-2] < tol:
            break
    return (initial, transition, means, variances), ll_trace


def prefix_decode_hidden_states(initial, transition, means, variances, observations):
    """The hidden state a serving-time runtime offers after each observed
    prefix, by decoding the whole prefix again every turn: argmax of the
    initial distribution before any observation, then the most likely
    transition out of the last state of the prefix's Viterbi path. Returns
    len(observations) + 1 states. Plain numpy recursion, first max on ties.
    """
    observations = np.asarray(observations, dtype=float)
    with np.errstate(divide="ignore"):
        log_init = np.log(initial)
        log_trans = np.log(transition)
    K = len(initial)
    states = [int(np.argmax(initial))]
    for T in range(1, len(observations) + 1):
        seq = observations[:T]
        diff = seq[:, None, :] - means[None, :, :]
        log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * variances), axis=1)
        quad = -0.5 * np.sum(diff * diff / variances[None, :, :], axis=2)
        log_emis = quad + log_norm[None, :]
        delta = np.zeros((T, K))
        delta[0] = log_init + log_emis[0]
        for t in range(1, T):
            cand = delta[t - 1][:, None] + log_trans
            best = np.argmax(cand, axis=0)
            delta[t] = cand[best, np.arange(K)] + log_emis[t]
        states.append(int(np.argmax(transition[int(np.argmax(delta[-1]))])))
    return states


def preference_count(scores: list[float], margin: float) -> int:
    """O(n^2) double loop counting strict-margin preferences."""
    count = 0
    n = len(scores)
    for i in range(n):
        for j in range(n):
            if i != j and scores[j] - scores[i] > margin:
                count += 1
    # each unordered pair can satisfy the strict gap in only one direction
    return count


def preference_pairs_loop(scores: list[float], margin: float, max_pairs: int,
                          seed: int) -> list[tuple[int, int, float]]:
    """(lower, higher, gap) of every strict-margin preference, in double-loop
    order, then the seeded uniform subsample when more than max_pairs exist."""
    pairs = []
    n = len(scores)
    for i in range(n):
        for j in range(i + 1, n):
            gap = scores[j] - scores[i]
            if gap > margin:
                pairs.append((i, j, gap))
            elif -gap > margin:
                pairs.append((j, i, -gap))
    if len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(pairs), size=max_pairs, replace=False))
        pairs = [pairs[k] for k in keep]
    return pairs


def trex_loss_mp(returns_low: float, returns_high: float) -> float:
    """Extended-precision softmax cross-entropy on a preference pair."""
    with mpmath.workdps(60):
        g_i = mpmath.mpf(returns_low)
        g_j = mpmath.mpf(returns_high)
        loss = -mpmath.log(mpmath.exp(g_j) / (mpmath.exp(g_i) + mpmath.exp(g_j)))
        return float(loss)


def softmax_mp(values, temperature: float = 1.0) -> np.ndarray:
    with mpmath.workdps(60):
        exps = [mpmath.exp(mpmath.mpf(v) / temperature) for v in values]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def value_iteration(P, R, gamma: float, iters: int = 10000,
                    tol: float = 1e-12) -> np.ndarray:
    """Exact Q* for a finite MDP. P: (S, A) -> next state id, R: (S, A)."""
    S, A = R.shape
    q = np.zeros((S, A))
    for _ in range(iters):
        nxt = R + gamma * q[P].max(axis=2)
        if np.max(np.abs(nxt - q)) < tol:
            q = nxt
            break
        q = nxt
    return q


def policy_value_linear(P, R, policy, gamma: float) -> np.ndarray:
    """v^pi from the linear system (I - gamma P_pi) v = r_pi.

    P: (S, A, S) transition probabilities, R: (S, A) expected rewards,
    policy: (S, A) action probabilities.
    """
    S = R.shape[0]
    P_pi = np.einsum("sa,sat->st", policy, P)
    r_pi = np.einsum("sa,sa->s", policy, R)
    return np.linalg.solve(np.eye(S) - gamma * P_pi, r_pi)


def t_sf_mp(t: float, df: int) -> float:
    """Two-sided p-value of a paired t statistic via the incomplete beta."""
    with mpmath.workdps(50):
        x = df / (df + mpmath.mpf(t) ** 2)
        p = mpmath.betainc(df / mpmath.mpf(2), mpmath.mpf(1) / 2, 0, x,
                           regularized=True)
        return float(p)


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: ceil(p/100 * n)-th smallest, 1-indexed."""
    ordered = sorted(values)
    import math

    idx = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[idx - 1]


def set_f1(predicted: set, truth: set) -> float:
    if not predicted:
        return 0.0
    prec = len(predicted & truth) / len(predicted)
    rec = len(predicted & truth) / len(truth)
    if prec + rec == 0:
        return 0.0
    return 2 * prec * rec / (prec + rec)


def pass_at_3_enumerated(trials_by_scenario):
    """Best-of-three over every ordered triple of trial indices: per scenario
    the mean and variance of the max over all n^3 draws with replacement,
    then the mean over scenarios and sqrt(sum of variances) / scenarios.
    Returns (recall_mean, recall_std, f1_mean, f1_std, scenario recalls in
    sorted-scenario order)."""
    scenarios = sorted(trials_by_scenario)
    recall_cells, f1_cells = [], []
    for s in scenarios:
        trials = trials_by_scenario[s]
        triples = list(itertools.product(range(len(trials)), repeat=3))
        best = np.asarray([max(trials[i].success for i in t) for t in triples], dtype=float)
        best_f1 = np.asarray([max(trials[i].f1 for i in t) for t in triples])
        recall_cells.append((best.mean(), best.var()))
        f1_cells.append((best_f1.mean(), best_f1.var()))
    recall = np.asarray(recall_cells)
    f1 = np.asarray(f1_cells)
    return (recall[:, 0].mean(), np.sqrt(recall[:, 1].sum()) / len(scenarios),
            f1[:, 0].mean(), np.sqrt(f1[:, 1].sum()) / len(scenarios), recall[:, 0])


def min_dist_to_label_loop(dist: np.ndarray, index: dict, src, assessments,
                           label: str, sentinel: float):
    """Smallest directed distance from src to an entity with this label, from
    a dense distance matrix (inf when unreachable); the sentinel when none is
    reachable. None when a matching entity is missing from ``index``."""
    dists = []
    for e, lab in assessments.items():
        if lab != label:
            continue
        if e not in index:
            return None
        d = dist[index[src], index[e]]
        if np.isfinite(d):
            dists.append(d)
    return float(min(dists)) if dists else sentinel


def mlp_forward_out_of_place(weights, biases, x):
    """An MLP's output and each layer's input, every layer a fresh array:
    max(x @ W + b, 0) on the hidden layers, then the output layer. Works on
    2-D rows and (B, N, d) stacks of rows."""
    acts = [x]
    for W, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W + b, 0.0))
    return (acts[-1] @ weights[-1] + biases[-1])[..., 0], acts


def mlp_backward_out_of_place(weights, acts, dout):
    """Gradient of sum(dout * output) as [W0, b0, W1, b1, W2, b2], every
    product a fresh array: the mask is multiplied in and the gradient goes
    back through each layer, the output layer included, by a matmul."""
    grads = []
    upstream = dout[..., None]
    for layer in range(len(weights) - 1, -1, -1):
        if layer < len(weights) - 1:
            upstream = upstream * (acts[layer + 1] > 0)
        grads[:0] = [acts[layer].swapaxes(-1, -2) @ upstream, upstream.sum(axis=-2)]
        if layer > 0:
            upstream = upstream @ weights[layer].swapaxes(-1, -2)
    return grads


def grouped_softmax_add_at(scores, group_ids, n_groups):
    """Softmax within each group, the group sums accumulated by np.add.at."""
    gmax = np.full(n_groups, -np.inf)
    np.maximum.at(gmax, group_ids, scores)
    expd = np.exp(scores - gmax[group_ids])
    gsum = np.zeros(n_groups)
    np.add.at(gsum, group_ids, expd)
    return expd / gsum[group_ids]


# --- tabular CQL and BC with a cell per (state, action id), before the row cells ---------

def _state_numbers(table):
    """Each step's state numbered by first appearance of its values."""
    index = {}
    return index, np.array([index.setdefault(tuple(row), len(index))
                            for row in table.states.tolist()], dtype=int)


def cql_tabular_by_state_action(table, cfg):
    """Tabular CQL's (states, n_actions) Q matrix with a flat cell per (state
    number, action id): the layout the row cells replaced."""
    index, sid = _state_numbers(table)
    n_actions = int(table.cand_ids.max()) + 1
    group = np.repeat(np.arange(table.n), np.diff(table.corpus.cand_offsets))
    cand_cell = sid[group] * n_actions + table.cand_ids
    cell = cand_cell[table.taken]
    q = np.zeros(len(index) * n_actions)
    counts = np.bincount(cell, minlength=q.size).astype(float)
    seen = counts > 0
    live = ~table.terminal
    for start in range(0, cfg.iterations, cfg.target_refresh):
        best = np.full(table.n, -np.inf)
        np.maximum.at(best, group, q[cand_cell])
        targets = table.corpus.rewards.copy()
        targets[live] += cfg.gamma * best[table.next_step[live]]
        if cfg.alpha == 0.0:
            sums = np.bincount(cell, weights=targets, minlength=q.size)
            q[seen] = sums[seen] / counts[seen]
            continue
        for _ in range(min(cfg.target_refresh, cfg.iterations - start)):
            grad = np.zeros_like(q)
            np.add.at(grad, cell, 2.0 * (q[cell] - targets) / table.n)
            probs = grouped_softmax_add_at(q[cand_cell], group, table.n)
            np.add.at(grad, cand_cell, cfg.alpha * probs / table.n)
            np.add.at(grad, cell, -cfg.alpha / table.n)
            q = q - cfg.step_size * grad
    return q.reshape(len(index), n_actions)


def bc_tabular_by_state_action(table):
    """Tabular BC's log visit counts per (state number, action id)."""
    index, sid = _state_numbers(table)
    counts = np.zeros((len(index), int(table.cand_ids.max()) + 1))
    np.add.at(counts, (sid, table.cand_ids[table.taken]), 1.0)
    with np.errstate(divide="ignore"):
        return np.log(counts)


# --- the per-step training loops that the planned loops replaced -----------------------

def _entries(offsets, steps):
    """Candidate entries of ``steps`` in order, and each entry's position in ``steps``."""
    idx = np.concatenate([np.arange(offsets[s], offsets[s + 1]) for s in steps])
    return idx, np.repeat(np.arange(len(steps)), offsets[steps + 1] - offsets[steps])


def minibatch_train_per_step(table, cfg, learner, refresh=None):
    """Network CQL's and BC's minibatch loop with each step's bookkeeping in the
    step: the generator ``learner(batch)`` yields its entries' row ids, is sent
    each entry's output and yields each entry's dout. ``refresh(net)`` runs
    before step 0 and every target_refresh steps."""
    rows = table.cand_rows
    net = Mlp(rows.shape[1], cfg.hidden_units, seed=cfg.seed)
    optimizer = Adam(net.params, step_size=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    for step in range(cfg.iterations):
        if refresh is not None and step % cfg.target_refresh == 0:
            refresh(net)
        batch = rng.choice(table.n, size=min(cfg.batch_size, table.n), replace=False)
        loss = learner(batch)
        present, inverse = np.unique(next(loss), return_inverse=True)
        out, acts = net.forward_cached(rows[present])
        dout = loss.send(out[inverse])
        optimizer.step(net.backward(acts, np.bincount(inverse, dout, len(present))))
    return net


def cql_network_per_step(table, cfg):
    """Network CQL's parameters from ``minibatch_train_per_step``."""
    boot = None

    def refresh(net):
        nonlocal boot
        out = net.forward(table.cand_rows)[table.row_id]
        best = np.full(table.n, -np.inf)
        np.maximum.at(best, table.cand_step, out)
        live = ~table.terminal
        boot = table.corpus.rewards.copy()
        boot[live] += cfg.gamma * best[table.next_step[live]]

    def learner(batch):
        b = len(batch)
        idx, group = _entries(table.corpus.cand_offsets, batch)
        out = yield table.row_id[idx]
        taken = np.flatnonzero(idx == table.taken[batch][group])
        if cfg.alpha > 0:
            dout = cfg.alpha * grouped_softmax_add_at(out, group, b) / b
        else:
            dout = np.zeros_like(out)
        dout[taken] += 2.0 * (out[taken] - boot[batch]) / b - cfg.alpha / b
        yield dout

    return minibatch_train_per_step(table, cfg, learner, refresh).params


def bc_network_per_step(table, cfg):
    """Network BC's parameters from ``minibatch_train_per_step``."""
    def learner(batch):
        b = len(batch)
        idx, group = _entries(table.corpus.cand_offsets, batch)
        out = yield table.row_id[idx]
        dout = grouped_softmax_add_at(out, group, b) / b
        dout[idx == table.taken[batch][group]] -= 1.0 / b
        yield dout

    return minibatch_train_per_step(table, cfg, learner).params


def _trajectory_layout(packed, ends, discount):
    """The distinct trajectories of pair rows ``ends`` and the layout of their steps."""
    ids, inverse = np.unique(ends.ravel(), return_inverse=True)
    starts = packed.offsets[ids]
    lengths = packed.offsets[ids + 1] - starts
    heads = np.cumsum(lengths) - lengths
    pos = np.arange(lengths.sum()) - np.repeat(heads, lengths)
    present, row_of = np.unique(packed.row_id[np.repeat(starts, lengths) + pos],
                                return_inverse=True)
    return inverse, lengths, heads, present, row_of, discount ** pos


def trex_grad_per_batch(net, ends, packed, discount=1.0):
    """The T-REX gradient of one batch of (lower, higher) rows ``ends`` on a
    packed StepRows, laid out inside the call."""
    inverse, lengths, heads, present, row_of, weight = _trajectory_layout(packed, ends,
                                                                          discount)
    out, acts = net.forward_cached(packed.rows[present])
    g = np.add.reduceat(out[row_of] * weight, heads)[inverse].reshape(-1, 2)
    sig = 1.0 / (1.0 + np.exp(-(g[:, 0] - g[:, 1])))
    coeff = np.bincount(inverse, np.stack([sig, -sig], 1).ravel(), len(lengths))
    return net.backward(acts, np.bincount(row_of, np.repeat(coeff, lengths) * weight
                                          / len(ends), len(present)))


def pair_accuracy_per_batch(net, ends, packed, discount=1.0):
    """Share of (lower, higher) rows whose predicted returns agree, laid out
    inside the call."""
    inverse, _, heads, present, row_of, weight = _trajectory_layout(packed, ends, discount)
    out = net.forward(packed.rows[present])
    g = np.add.reduceat(out[row_of] * weight, heads)[inverse].reshape(-1, 2)
    return int(np.count_nonzero(g[:, 1] > g[:, 0])) / len(ends)


def train_reward_per_batch(pairs, packed, config, grad=trex_grad_per_batch,
                           accuracy=pair_accuracy_per_batch):
    """``train_reward``'s loop with one ``grad(net, ends, packed, discount)``
    call per batch of (lower, higher) rows, drawn batch by batch, and
    ``accuracy`` for the held-out snapshot."""
    ends = np.array([(p.lower, p.higher) for p in pairs], dtype=int).reshape(-1, 2)
    net = Mlp(packed.rows.shape[1], config.hidden_units, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(ends))
    n_hold = min(int(round(config.holdout_fraction * len(ends))), len(ends) - 1)
    holdout, train = ends[order[:n_hold]], ends[order[n_hold:]]
    optimizer = Adam(net.params, step_size=config.step_size)
    best_params = net.params.copy()
    best_acc = accuracy(net, holdout, packed, config.discount) if n_hold else -1.0
    for _ in range(config.epochs):
        perm = rng.permutation(len(train))
        for start in range(0, len(train), config.batch_size):
            batch = train[perm[start : start + config.batch_size]]
            optimizer.step(grad(net, batch, packed, config.discount))
        if n_hold:
            acc = accuracy(net, holdout, packed, config.discount)
            if acc > best_acc:
                best_acc, best_params = acc, net.params.copy()
    if n_hold:
        net.params[:] = best_params
    return net


# --- the abstract corpus as it was laid out before it was packed into tables ------------

def abstract_tables_via_dicts(trajs) -> str:
    """The abstract corpus file of ``trajs`` built naively: each distinct state
    row and action found by its float64 bytes (or id) in Python sets, sorted
    by those bytes (ids ascending), every step's taken position the first of
    its candidates with its action's bytes, then ``json.dumps(sort_keys=True)``."""
    steps = [s for t in trajs for s in t.steps]
    index = bool(steps) and isinstance(steps[0].action, (int, np.integer))

    def key(a):
        return int(a) if index else np.asarray(a, dtype=float).tobytes()

    state_keys = sorted({np.asarray(s.state, dtype=float).tobytes() for s in steps})
    action_keys = sorted({key(c) for s in steps for c in s.candidates})
    state_id = {k: i for i, k in enumerate(state_keys)}
    action_id = {k: i for i, k in enumerate(action_keys)}
    offsets, lengths = [0], [0]
    for s in steps:
        offsets.append(offsets[-1] + len(s.candidates))
    for t in trajs:
        lengths.append(lengths[-1] + len(t.steps))
    actions = (action_keys if index
               else [np.frombuffer(k, dtype=float).tolist() for k in action_keys])
    return json.dumps({
        "format_version": 1,
        "scheme": trajs[0].scheme if trajs else "",
        "states": [np.frombuffer(k, dtype=float).tolist() for k in state_keys],
        "actions": actions,
        "state_id": [state_id[np.asarray(s.state, dtype=float).tobytes()] for s in steps],
        "cand_id": [action_id[key(c)] for s in steps for c in s.candidates],
        "cand_offsets": offsets,
        "taken": [[key(c) for c in s.candidates].index(key(s.action)) for s in steps],
        "rewards": [float(s.reward) for s in steps],
        "trajectory_ids": [t.trajectory_id for t in trajs],
        "scenario_ids": [t.scenario_id for t in trajs],
        "step_offsets": lengths,
        "fpc_accuracy": [float(t.scores.fpc_accuracy) for t in trajs],
        "rce_identification": [float(t.scores.rce_identification) for t in trajs],
    }, sort_keys=True)


def abstract_from_json(obj):
    """One line of the abstract corpus as it was written before the tables
    (``abstract_line_via_dicts``), decoded step by step into arrays."""
    from twinmdp.abstraction import AbstractStep, AbstractTrajectory
    from twinmdp.trajectories import JudgeScores

    def action(a):
        return int(a["index"]) if "index" in a else np.asarray(a["features"], dtype=float)

    steps = [AbstractStep(state=np.asarray(s["state"], dtype=float), action=action(s["action"]),
                          reward=float(s["reward"]),
                          candidates=[action(c) for c in s["candidates"]])
             for s in obj["steps"]]
    return AbstractTrajectory(obj["trajectory_id"], obj["scenario_id"], obj["scheme"], steps,
                              JudgeScores(obj["scores"]["fpc_accuracy"],
                                          obj["scores"]["rce_identification"]))


def distinct_rows(rows):
    """The distinct rows of a 2-D array in byte order, compared by their bytes,
    and each row's index among them."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]
    _, first, row_id = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], row_id.reshape(-1)


def first_matches(flat, offsets, actions):
    """Each step's first recorded candidate equal to its action, as a position
    in the step's candidates."""
    step = np.repeat(np.arange(len(actions)), np.diff(offsets))
    hits = np.flatnonzero((flat == actions[step]).reshape(len(flat), -1).all(axis=1))
    first = np.ones(len(hits), dtype=bool)
    first[1:] = step[hits[1:]] != step[hits[:-1]]
    hits = hits[first]
    assert len(hits) == len(actions), "taken action missing from its candidate set"
    return hits - offsets[:-1]


def onehot_rows(states, actions, size):
    """[state | one-hot of the action over ``size``] rows."""
    acts = np.zeros((len(actions), size))
    acts[np.arange(len(actions)), actions] = 1.0
    return np.hstack([states, acts])


def transitions_by_search(trajs) -> dict:
    """A TransitionTable's fields as ``build_transitions`` laid them out
    before the tables: per-step arrays, each step's taken entry by a search
    over its candidates' values, the distinct [state | action] rows by their
    bytes, and the states numbered by first appearance."""
    index_actions = isinstance(trajs[0].steps[0].action, (int, np.integer))
    dtype = int if index_actions else float
    states, actions, cands = [], [], []
    for traj in trajs:
        for step in traj.steps:
            states.append(np.asarray(step.state, dtype=float))
            actions.append(np.asarray(step.action, dtype=dtype))
            cands.append(np.asarray(step.candidates, dtype=dtype))
    offsets = np.concatenate([[0], np.cumsum([len(c) for c in cands])])
    flat, states = np.concatenate(cands), np.stack(states)
    owner = np.repeat(np.arange(len(states)), np.diff(offsets))
    rows = (onehot_rows(states[owner], flat, int(flat.max()) + 1) if index_actions
            else np.hstack([states[owner], flat]))
    cand_rows, row_id = distinct_rows(rows)
    index: dict = {}
    ids = [index.setdefault(tuple(s), len(index)) for s in states.tolist()]
    return {"states": states, "cand_offsets": offsets,
            "taken": offsets[:-1] + first_matches(flat, offsets, np.stack(actions)),
            "cand_rows": cand_rows, "row_id": row_id,
            "state_ids": (index, np.array(ids, dtype=int))}


def step_rows_by_bytes(trajs) -> dict:
    """``StepRows.pack`` as it was before the tables: each trajectory's
    [state | action] rows encoded, one-hot over the state width for index
    actions, then the distinct rows found by their bytes."""
    encoded = []
    for traj in trajs:
        states = np.stack([np.asarray(s.state, dtype=float) for s in traj.steps])
        actions = [s.action for s in traj.steps]
        if isinstance(actions[0], (int, np.integer)):
            encoded.append(onehot_rows(states, np.asarray(actions), states.shape[1]))
        else:
            encoded.append(np.hstack([states, np.asarray(actions, dtype=float)]))
    rows, row_id = distinct_rows(np.concatenate(encoded))
    return {"rows": rows, "row_id": row_id,
            "offsets": np.cumsum([0] + [len(r) for r in encoded])}


# --- abstraction one trajectory at a time, before the table builder ----------------------

def abstract_per_trajectory(raws, spec, graphs, hmm=None) -> list:
    """Each raw trajectory as an AbstractTrajectory, built as ``abstract``
    built it before it streamed into tables: per step the featurizer's state
    and candidate rows, the chosen entity's row as the action and reward 0;
    with ``hmm``, a 1-hot of each step's Viterbi state on the trajectory's
    (state ++ action) observations appended to its state. ``pack_corpus`` of
    the result is the tables that the per-trajectory construction gave."""
    from twinmdp.abstraction import AbstractStep, AbstractTrajectory
    from twinmdp.hmm import viterbi_decode

    views = []
    for raw in raws:
        featurizer = spec.featurizer(graphs.get(raw.scenario_id))
        steps, previous, assessments = [], None, {}
        for step in raw.steps:
            state = featurizer.state_features(raw.symptom_entity, assessments)
            cands = list(featurizer.action_features(step.candidate_entities, previous,
                                                    raw.symptom_entity, assessments))
            action = cands[step.candidate_entities.index(step.chosen_entity)]
            steps.append(AbstractStep(state=state, action=action, reward=0.0, candidates=cands))
            previous, assessments = step.chosen_entity, dict(step.assessments)
        if hmm is not None:
            obs = np.stack([np.concatenate([s.state, np.asarray(s.action, dtype=float)])
                            for s in steps])
            augmented = []
            for s, z in zip(steps, viterbi_decode(hmm, obs)):
                onehot = np.zeros(hmm.n_states)
                onehot[z] = 1.0
                augmented.append(replace(s, state=np.concatenate([s.state, onehot])))
            steps = augmented
        views.append(AbstractTrajectory(raw.trajectory_id, raw.scenario_id, spec.kind, steps,
                                        raw.scores))
    return views


# --- the closed loop as it ran before it streamed its corpus ------------------------------

def _held_batch(scenarios, plan, episode_cfg, trials, master_seed, method_id) -> list:
    """Every episode of a batch, in run order, each as (row, result): the
    trajectories are all held until the caller writes them."""
    held = []
    for s_idx, scn in enumerate(scenarios):
        for trial in range(trials):
            seed = int(np.random.SeedSequence([master_seed, s_idx, trial]).generate_state(1)[0])
            res = simulator.run_episode(scn, plan, episode_cfg, seed,
                                        trajectory_id=f"{scn.scenario_id}-{method_id}-t{trial}")
            held.append(([scn.scenario_id, method_id, trial,
                          f"{res.trajectory.scores.rce_identification:.1f}",
                          f"{res.trajectory.scores.fpc_accuracy:.4f}",
                          res.turns_used, res.entities_explored], res))
    return held


def held_closed_loop(cfg, out: Path, dest: Path) -> None:
    """``collect``'s and ``simulate``'s corpus files and ``simulate``'s results
    table, built as the stages built them before they streamed: each stage
    holds every episode's result, then one ``save_corpus`` writes them all.
    ``out`` holds the run's scheme runtime, HMM and policies; the three files
    go into ``dest`` under their pipeline names."""
    def scenarios(stage, scn_cfg, ids):
        return [simulator.generate_scenario(
            scn_cfg, pipeline.derive_seed(cfg.master_seed, stage, "scenario", i),
            scenario_id=sid) for i, sid in enumerate(ids)]

    train = scenarios("collect", cfg.collect_scenario_cfg,
                      [f"train-{i:03d}" for i in range(cfg.collect_scenarios)])
    held = _held_batch(train, None, cfg.collect_episode_cfg, cfg.collect_episodes,
                       pipeline.derive_seed(cfg.master_seed, "collect"), "collect")
    save_corpus([res.trajectory for _, res in held], dest / pipeline.F_TRAIN_CORPUS)

    test = scenarios("simulate", cfg.compare_scenario_cfg,
                     [f"test-{i:03d}" for i in range(cfg.compare_scenarios)])
    seed = pipeline.derive_seed(cfg.master_seed, "simulate")
    scheme, hmm_model = pipeline.load_scheme_runtime(out)
    held = _held_batch(test, None, cfg.compare_episode_cfg, cfg.compare_trials, seed,
                       "baseline")
    for arm in cfg.arms:
        policy = load_policy(out / pipeline.policy_file(arm.policy_id))[0]
        plan = simulator.CePlan(policy=policy,
                                config=replace(cfg.ce, strategies=arm.strategies),
                                scheme=scheme, hmm=hmm_model)
        held += _held_batch(test, plan, cfg.compare_episode_cfg, cfg.compare_trials, seed,
                            arm.arm_id)
    save_corpus([res.trajectory for _, res in held], dest / pipeline.F_COMPARE_CORPUS)
    with (dest / pipeline.F_RESULTS).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "method_id", "trial", "rce_identification",
                         "fpc_accuracy", "turns_used", "entities_explored"])
        writer.writerows(row for row, _ in held)
