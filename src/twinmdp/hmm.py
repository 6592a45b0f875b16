"""Gaussian hidden Markov model: Baum-Welch fitting and Viterbi decoding.

Emissions are diagonal Gaussians over real feature vectors. Fitting uses
the scaled forward-backward recursions, so per-iteration total
log-likelihood is exact and non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateData, DimensionMismatch

VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class Hmm:
    initial: np.ndarray        # (K,)
    transition: np.ndarray     # (K, K), rows sum to 1
    means: np.ndarray          # (K, D)
    variances: np.ndarray      # (K, D), floored at VAR_FLOOR

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def n_features(self) -> int:
        return self.means.shape[1]

    @cached_property
    def log_initial(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.initial)

    @cached_property
    def log_transition(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.transition)

    @cached_property
    def log_norm(self) -> np.ndarray:
        """(K,) log normaliser of each state's diagonal Gaussian."""
        return -0.5 * np.sum(np.log(2.0 * np.pi * self.variances), axis=1)

    def __post_init__(self):
        if abs(self.initial.sum() - 1.0) > 1e-9:
            raise DimensionMismatch("initial distribution does not sum to 1")
        if np.max(np.abs(self.transition.sum(axis=1) - 1.0)) > 1e-9:
            raise DimensionMismatch("transition rows do not sum to 1")
        if np.any(self.variances < VAR_FLOOR - 1e-12):
            raise DimensionMismatch("variance below floor")


def _check_sequences(sequences: list[np.ndarray]) -> list[np.ndarray]:
    if not sequences:
        raise DimensionMismatch("no sequences")
    seqs = [np.asarray(s, dtype=float) for s in sequences]
    dim = seqs[0].shape[1] if seqs[0].ndim == 2 else None
    for s in seqs:
        if s.ndim != 2 or s.shape[0] == 0 or s.shape[1] != dim:
            raise DimensionMismatch("sequences must be non-empty with equal feature dim")
    return seqs


def _log_emissions(hmm_means, hmm_vars, seq: np.ndarray) -> np.ndarray:
    """(T, K) log density of each observation under each state."""
    diff = seq[:, None, :] - hmm_means[None, :, :]          # (T, K, D)
    log_norm = -0.5 * np.sum(np.log(2.0 * np.pi * hmm_vars), axis=1)  # (K,)
    quad = -0.5 * np.sum(diff * diff / hmm_vars[None, :, :], axis=2)  # (T, K)
    return quad + log_norm[None, :]


def _forward_backward(initial, transition, log_emis):
    """Scaled recursions; returns (gamma, xi_sum, log_likelihood)."""
    T, K = log_emis.shape
    # shift emissions per step for stability; scaling absorbs the shift
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


def sequence_log_likelihood(hmm: Hmm, sequence: np.ndarray) -> float:
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 2 or seq.shape[1] != hmm.n_features:
        raise DimensionMismatch("sequence dimension does not match emissions")
    log_emis = _log_emissions(hmm.means, hmm.variances, seq)
    _, _, ll = _forward_backward(hmm.initial, hmm.transition, log_emis)
    return ll


def fit_hmm(
    sequences: list[np.ndarray],
    n_states: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[Hmm, list[float]]:
    """Baum-Welch estimate; returns the model and the per-iteration
    total log-likelihood trace (non-decreasing).

    Initialization: seeded k-means centroids for the means, pooled variance
    for every state, uniform initial and transition probabilities.
    """
    if n_states < 1:
        raise DimensionMismatch("n_states must be >= 1")
    seqs = _check_sequences(sequences)
    pooled = np.concatenate(seqs, axis=0)
    pooled_var = np.maximum(pooled.var(axis=0), VAR_FLOOR)
    if n_states > 1 and np.allclose(pooled, pooled[0]):
        raise DegenerateData("all observations identical; cannot fit >1 state")

    K, D = n_states, pooled.shape[1]
    if K == 1:
        means = pooled.mean(axis=0, keepdims=True)
    else:
        # imported here: scipy.cluster pulls in scipy.spatial, slow to import
        from scipy.cluster.vq import kmeans2

        means, _ = kmeans2(pooled, K, minit="++", seed=np.random.default_rng(seed))
    variances = np.tile(pooled_var, (K, 1))
    initial = np.full(K, 1.0 / K)
    transition = np.full((K, K), 1.0 / K)

    ll_trace: list[float] = []
    for _ in range(max_iter):
        init_acc = np.zeros(K)
        trans_acc = np.zeros((K, K))
        weight_acc = np.zeros(K)
        mean_acc = np.zeros((K, D))
        sq_acc = np.zeros((K, D))
        total_ll = 0.0
        for seq in seqs:
            log_emis = _log_emissions(means, variances, seq)
            gamma, xi_sum, ll = _forward_backward(initial, transition, log_emis)
            total_ll += ll
            init_acc += gamma[0]
            trans_acc += xi_sum
            weight_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ seq
            sq_acc += gamma.T @ (seq * seq)
        ll_trace.append(total_ll)

        initial = init_acc / init_acc.sum()
        row = trans_acc.sum(axis=1, keepdims=True)
        # states never left keep a uniform outgoing row
        transition = np.where(row > 0, trans_acc / np.where(row > 0, row, 1.0), 1.0 / K)
        w = np.maximum(weight_acc, 1e-12)[:, None]
        means = mean_acc / w
        variances = np.maximum(sq_acc / w - means * means, VAR_FLOOR)

        if len(ll_trace) >= 2 and ll_trace[-1] - ll_trace[-2] < tol:
            break

    return Hmm(initial=initial, transition=transition, means=means,
               variances=variances), ll_trace


def log_emission(hmm: Hmm, observation: np.ndarray) -> np.ndarray:
    """(K,) log density of one observation under each state; bit for bit the
    row that a whole-sequence evaluation gives it."""
    diff = observation - hmm.means
    return -0.5 * np.sum(diff * diff / hmm.variances, axis=1) + hmm.log_norm


def viterbi_step(delta: np.ndarray, log_trans: np.ndarray,
                 log_emis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Viterbi recursion step (Rabiner 1989): the log-score vector of
    the longer prefix and each state's best predecessor. Ties resolve toward
    the lower state index."""
    cand = delta[:, None] + log_trans                 # (from, to)
    back = np.argmax(cand, axis=0)                    # argmax picks lowest on ties
    return cand[back, np.arange(len(delta))] + log_emis, back


def viterbi_decode(hmm: Hmm, sequence: np.ndarray) -> list[int]:
    """Most likely state path; ties resolve toward the lower state index."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim != 2 or seq.shape[0] == 0 or seq.shape[1] != hmm.n_features:
        raise DimensionMismatch("sequence dimension does not match emissions")
    T, K = seq.shape[0], hmm.n_states
    log_emis = _log_emissions(hmm.means, hmm.variances, seq)

    back = np.zeros((T, K), dtype=int)
    delta = hmm.log_initial + log_emis[0]
    for t in range(1, T):
        delta, back[t] = viterbi_step(delta, hmm.log_transition, log_emis[t])

    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path
