"""Gaussian hidden Markov model: Baum-Welch fitting and Viterbi decoding.

Emissions are diagonal Gaussians over real feature vectors. Fitting uses
the scaled forward-backward recursions, so per-iteration total
log-likelihood is exact and non-decreasing.

The E-step runs the sequences in lockstep: one forward-backward pass per
group of equal-length sequences, over their (N, T, K) stack. Every slice
gets the bits its own one-sequence pass gives, and the statistics and the
log-likelihood add up in sequence order, so a fit is bit for bit the fit
that runs the sequences one at a time. Viterbi decodes one sequence at a
time.
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

    def __post_init__(self):
        K, D = self.means.shape if self.means.ndim == 2 else (0, 0)
        if (min(K, D) < 1 or self.initial.shape != (K,) or self.transition.shape != (K, K)
                or self.variances.shape != (K, D)):
            raise DimensionMismatch(
                f"HMM shapes: initial {self.initial.shape}, transition "
                f"{self.transition.shape}, means {self.means.shape}, variances "
                f"{self.variances.shape}; want (K,), (K, K), (K, D) and (K, D), D >= 1")
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


def log_emissions(means: np.ndarray, variances: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(..., K) log density of each row of a (..., D) array under each
    state's diagonal Gaussian. A row gets the same bits alone as in any
    stack of rows."""
    diff = x[..., None, :] - means                                 # (..., K, D)
    norm = -0.5 * np.log(2.0 * np.pi * variances).sum(axis=1)      # (K,)
    quad = -0.5 * (diff * diff / variances).sum(axis=-1)           # (..., K)
    return quad + norm


def _forward_backward(initial, transition, log_emis):
    """Scaled recursions over an (N, T, K) stack of equal-length sequences;
    returns (gamma (N, T, K), xi_sum (N, K, K), log_likelihood (N,)).

    Each slice gets the bits of its own one-sequence pass. The recursions
    multiply one (1, K) row or (K, 1) column per slice (one gemv each, as a
    (K,) vector does), never an (N, K) block: a gemm, an einsum or a
    broadcast sum rounds the last bits differently.
    """
    N, T, K = log_emis.shape
    # shift emissions per step for stability; scaling absorbs the shift
    shift = log_emis.max(axis=2)
    emis = np.exp(log_emis - shift[:, :, None])

    alpha = np.zeros((N, T, K))
    scale = np.zeros((N, T))
    alpha[:, 0] = initial * emis[:, 0]
    scale[:, 0] = alpha[:, 0].sum(axis=1)
    alpha[:, 0] /= scale[:, 0, None]
    for t in range(1, T):
        alpha[:, t] = (alpha[:, t - 1, None, :] @ transition)[:, 0] * emis[:, t]
        scale[:, t] = alpha[:, t].sum(axis=1)
        alpha[:, t] /= scale[:, t, None]

    beta = np.zeros((N, T, K))
    beta[:, -1] = 1.0
    for t in range(T - 2, -1, -1):
        v = emis[:, t + 1] * beta[:, t + 1]
        beta[:, t] = (transition @ v[:, :, None])[:, :, 0] / scale[:, t + 1, None]

    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)

    xi_sum = np.zeros((N, K, K))
    for t in range(T - 1):
        xi = (alpha[:, t, :, None] * transition) * (emis[:, t + 1] * beta[:, t + 1])[:, None, :]
        xi_sum += xi / scale[:, t + 1, None, None]

    log_likelihood = np.log(scale).sum(axis=1) + shift.sum(axis=1)
    return gamma, xi_sum, log_likelihood


def _length_groups(seqs: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each distinct sequence length's (indices, (N, T, D) stack), the
    indices ascending."""
    by_length: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_length.setdefault(s.shape[0], []).append(i)
    return [(np.array(idx), np.stack([seqs[i] for i in idx])) for idx in by_length.values()]


def _sum_in_order(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added one at a time to zeros in row order:
    the bits of a loop that accumulates them."""
    zero = np.zeros((1,) + rows.shape[1:])
    return np.add.accumulate(np.concatenate([zero, rows]), axis=0)[-1]


def log_likelihoods(hmm: Hmm, sequences: list[np.ndarray]) -> np.ndarray:
    """(S,) log-likelihood of each sequence, in the given order: one
    forward pass per length group."""
    seqs = _check_sequences(sequences)
    if seqs[0].shape[1] != hmm.n_features:
        raise DimensionMismatch("sequence dimension does not match emissions")
    out = np.empty(len(seqs))
    for idx, stack in _length_groups(seqs):
        log_emis = log_emissions(hmm.means, hmm.variances, stack)
        out[idx] = _forward_backward(hmm.initial, hmm.transition, log_emis)[2]
    return out


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances, each summed over the
    columns in order from 0, as a C loop over one pair at a time adds them."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        out += diff * diff
    return out


def _kmeans_pp(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """(k, D) centres: k-means++ seeding (Arthur & Vassilvitskii 2007), then
    10 Lloyd steps (``kmeans2``'s default ``iter``).

    Bit for bit ``scipy.cluster.vq.kmeans2(data, k, minit="++", seed=rng)``
    (scipy 1.17.1), draw for draw: ``rng.integers(n)`` picks the first centre
    and one ``rng.uniform()`` each further one, by its squared distance to
    the nearest centre so far. A point joins the first of its nearest
    centres. scipy's ``vq`` measures distances with a loop below 5 columns
    and as ``-2 x.c + |x|^2 + |c|^2`` (a BLAS product) from 5 up, and the
    two differ in the last bits where points are equidistant, so both are
    kept. A centre is the sum of its points in data order divided by their
    count; a centre without points stays where it was.
    """
    n, dim = data.shape
    centres = np.empty((k, dim))
    centres[0] = data[rng.integers(n)]
    d2 = _sq_dists(centres[:1], data)[0]
    for i in range(1, k):
        # all-zero distances give NaN weights, and index 0, as in scipy
        with np.errstate(invalid="ignore"):
            cumprobs = (d2 / d2.sum()).cumsum()
        centres[i] = data[int(np.searchsorted(cumprobs, rng.uniform()))]
        d2 = np.minimum(d2, _sq_dists(centres[i:i + 1], data)[0])
    origin = np.zeros((1, dim))
    data_sq = _sq_dists(data, origin)[:, 0]
    for _ in range(10):
        if dim < 5:
            dists = _sq_dists(data, centres)
        else:
            centre_sq = _sq_dists(centres, origin)[:, 0]
            dists = (-2.0 * (data @ centres.T) + data_sq[:, None]) + centre_sq
        labels = dists.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=data[:, j], minlength=k)
                         for j in range(dim)], axis=1)
        filled = counts > 0
        centres[filled] = sums[filled] / counts[filled, None]
    return centres


def fit_hmm(
    sequences: list[np.ndarray],
    n_states: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> tuple[Hmm, list[float]]:
    """Baum-Welch estimate; returns the model and the per-iteration
    total log-likelihood trace (non-decreasing).

    Initialization: the means are k-means++ centres of the pooled
    observations, seeded by ``seed`` (``_kmeans_pp``, scipy's ``kmeans2``
    bit for bit); every state gets the pooled variance, and the initial and
    transition probabilities are uniform.
    """
    if n_states < 1:
        raise DimensionMismatch("n_states must be >= 1")
    seqs = _check_sequences(sequences)
    pooled = np.concatenate(seqs, axis=0)
    if not np.isfinite(pooled).all():
        raise DegenerateData("observations must be finite")
    pooled_var = np.maximum(pooled.var(axis=0), VAR_FLOOR)
    if n_states > 1 and np.allclose(pooled, pooled[0]):
        raise DegenerateData("all observations identical; cannot fit >1 state")

    K, D = n_states, pooled.shape[1]
    if K == 1:
        means = pooled.mean(axis=0, keepdims=True)
    else:
        means = _kmeans_pp(pooled, K, np.random.default_rng(seed))
    variances = np.tile(pooled_var, (K, 1))
    initial = np.full(K, 1.0 / K)
    transition = np.full((K, K), 1.0 / K)

    # the observations do not change: one stack per length, made once
    groups = [(idx, stack, stack * stack) for idx, stack in _length_groups(seqs)]
    S = len(seqs)
    lls = np.empty(S)
    init_rows = np.empty((S, K))
    trans_rows = np.empty((S, K, K))
    weight_rows = np.empty((S, K))
    mean_rows = np.empty((S, K, D))
    sq_rows = np.empty((S, K, D))
    ll_trace: list[float] = []
    for _ in range(max_iter):
        # E-step, one pass per length group; each sequence's statistics go
        # to its own row, and the rows are summed in sequence order
        for idx, stack, stack_sq in groups:
            log_emis = log_emissions(means, variances, stack)
            gamma, xi_sum, ll = _forward_backward(initial, transition, log_emis)
            gamma_t = gamma.transpose(0, 2, 1)
            lls[idx] = ll
            init_rows[idx] = gamma[:, 0]
            trans_rows[idx] = xi_sum
            weight_rows[idx] = gamma.sum(axis=1)
            mean_rows[idx] = gamma_t @ stack
            sq_rows[idx] = gamma_t @ stack_sq
        ll_trace.append(float(_sum_in_order(lls)))
        init_acc = _sum_in_order(init_rows)
        trans_acc = _sum_in_order(trans_rows)
        weight_acc = _sum_in_order(weight_rows)
        mean_acc = _sum_in_order(mean_rows)
        sq_acc = _sum_in_order(sq_rows)

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
    log_emis = log_emissions(hmm.means, hmm.variances, seq)

    back = np.zeros((T, K), dtype=int)
    delta = hmm.log_initial + log_emis[0]
    for t in range(1, T):
        delta, back[t] = viterbi_step(delta, hmm.log_transition, log_emis[t])

    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path
