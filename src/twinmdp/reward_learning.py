"""Reward learning from ranked trajectories.

Judge scores induce pairwise preferences; a small network r(s, a) is
trained so preferred trajectories receive higher predicted returns
(trajectory-ranked reward extrapolation, Brown et al. 2019). The learned
network then relabels per-turn rewards for offline policy induction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .abstraction import AbstractTrajectory, MdpTables, pack_corpus, ranges
from .errors import DimensionMismatch, EmptyPairSet, MalformedRecord, check_ranges, ranged
from .nets import PLAN_BATCHES, Adam, Mlp, plan_rows, row_sums
from .offline_rl import distinct_pairs, encode_rows
from .trajectories import JudgeScores, read_json, write_json

RANKING_SIGNALS = ("fpc_only", "mean_fpc_rce")

FORMAT_VERSION = 1


@dataclass(frozen=True)
class PreferencePair:
    lower: int
    higher: int
    score_gap: float

    def __post_init__(self):
        if self.lower == self.higher:
            raise MalformedRecord("preference pair must involve two trajectories")
        if self.score_gap <= 0:
            raise MalformedRecord("score_gap must be positive")


def ranking_score(scores: JudgeScores, signal: str) -> float:
    if signal == "fpc_only":
        return scores.fpc_accuracy
    if signal == "mean_fpc_rce":
        return 0.5 * (scores.fpc_accuracy + scores.rce_identification)
    raise MalformedRecord(f"unknown ranking signal {signal!r}")


def build_pairs(
    trajs,
    signal: str = "mean_fpc_rce",
    margin: float = 5.0,
    max_pairs: int = 5000,
    seed: int = 0,
) -> list[PreferencePair]:
    """All ordered preferences whose score gap exceeds the margin.

    ``trajs`` is a sequence of (item, JudgeScores), read for the scores. When more
    pairs exist than max_pairs, a seeded uniform subsample is returned
    (stable order). An empty result is legitimate: equal scores prefer
    nothing.
    """
    if margin < 0:
        raise MalformedRecord("margin must be >= 0")
    values = np.array([ranking_score(s, signal) for _, s in trajs], dtype=float)
    i, j = np.triu_indices(len(values), k=1)  # row-major, as a double loop
    gap = values[j] - values[i]
    up = gap > margin
    keep = np.flatnonzero(up | (-gap > margin))
    if len(keep) > max_pairs:
        rng = np.random.default_rng(seed)
        keep = keep[np.sort(rng.choice(len(keep), size=max_pairs, replace=False))]
    lower, higher = np.where(up, i, j)[keep], np.where(up, j, i)[keep]
    return [PreferencePair(lower=lo, higher=hi, score_gap=g) for lo, hi, g
            in zip(lower.tolist(), higher.tolist(), np.abs(gap[keep]).tolist())]


# --- return prediction ----------------------------------------------------------
#
# Training lays a packed corpus out once as a StepRows table, whose network
# rows are stored once per distinct (state, action) row. The returns,
# the gradient and the pair accuracy lay out a batch's distinct trajectories
# by row id (``StepRows.plan``), forward each distinct row they name once, as
# one 2-D call, and sum the rows per trajectory; the gradient backprops each
# row's summed coefficients (``nets``' distinct-row rule). ``train_reward``
# draws an epoch's permutation, then plans its batches PLAN_BATCHES at a time,
# so each ``trex_grad`` call runs only the math that depends on the network.


def encode_step_rows(traj: AbstractTrajectory) -> np.ndarray:
    """(T, state_dim + action_dim) rows; index actions become 1-hot over the
    vocabulary, whose size equals the state dimension for those schemes."""
    states = np.stack([np.asarray(s.state, dtype=float) for s in traj.steps])
    actions = [s.action for s in traj.steps]
    if isinstance(actions[0], (int, np.integer)):
        return encode_rows(states, np.asarray(actions, dtype=int),
                           {"kind": "onehot", "size": states.shape[1]})
    return encode_rows(states, np.asarray(actions, dtype=float), {"kind": "features"})


@dataclass(frozen=True)
class StepRows:
    """Reward-net rows of a corpus, stored once per distinct row, in byte
    order: step j is rows[row_id[j]], and trajectory i owns steps
    offsets[i]:offsets[i + 1]."""

    rows: np.ndarray
    row_id: np.ndarray
    offsets: np.ndarray

    @classmethod
    def pack(cls, trajs) -> "StepRows":
        """The rows of ``trajs``, a packed corpus or abstract trajectories,
        read off the corpus's row tables: trajectory i's steps are
        ``encode_step_rows`` of trajectory i."""
        if isinstance(trajs, StepRows):
            return trajs
        corpus = pack_corpus(trajs)
        actions, encoding = corpus.taken_id, {"kind": "features"}
        if corpus.index_actions:
            actions = corpus.actions[actions]
            encoding = {"kind": "onehot", "size": corpus.states.shape[1]}
        return cls(*distinct_pairs(corpus, corpus.state_id, actions, encoding),
                   corpus.step_offsets)

    def plan(self, ends: np.ndarray, size: int, discount: float = 1.0) -> list["TrexBatch"]:
        """Batches of trajectory ids laid out at once: ``ends`` cut into runs of
        ``size``, the last one shorter when it must (for pairs, each pair's
        lower then higher trajectory)."""
        bounds = np.append(np.arange(0, len(ends), size), len(ends))
        n_batches, n_trajs = len(bounds) - 1, len(self.offsets) - 1
        owner = np.repeat(np.arange(n_batches), np.diff(bounds))
        keys, inverse = np.unique(owner * n_trajs + ends, return_inverse=True)
        id_batch, ids = np.divmod(keys, n_trajs)
        id_bounds = np.searchsorted(id_batch, np.arange(n_batches + 1))
        starts = self.offsets[ids]
        lengths = self.offsets[ids + 1] - starts
        heads = np.cumsum(lengths) - lengths
        steps = ranges(starts, lengths)
        pos = steps - np.repeat(starts, lengths)
        present, row_bounds, row_of = plan_rows(self.row_id[steps], np.repeat(id_batch, lengths),
                                                n_batches, len(self.rows))
        weight = discount ** pos
        step_bounds = np.append(heads, len(pos))[id_bounds]
        heads -= step_bounds[id_batch]
        inverse -= id_bounds[owner]
        return [TrexBatch(rows=self.rows[present[row_bounds[j]:row_bounds[j + 1]]],
                          row_of=row_of[step_bounds[j]:step_bounds[j + 1]],
                          weight=weight[step_bounds[j]:step_bounds[j + 1]],
                          lengths=lengths[id_bounds[j]:id_bounds[j + 1]],
                          heads=heads[id_bounds[j]:id_bounds[j + 1]],
                          ends=inverse[bounds[j]:bounds[j + 1]])
                for j in range(n_batches)]

    def returns(self, net: Mlp, ids, discount: float = 1.0) -> np.ndarray:
        """Predicted (discounted) return of each trajectory in ``ids``."""
        ids = np.asarray(ids, dtype=int)
        if not len(ids):
            return np.zeros(0)
        batch = self.plan(ids, len(ids), discount)[0]
        return batch.returns(net.forward(batch.rows))[batch.ends]


@dataclass(frozen=True)
class TrexBatch:
    """The distinct trajectories of a batch, laid out ahead of its pass: the
    distinct reward-net rows their steps name, each step's position among
    those rows and its discount weight, each trajectory's length and where
    its steps start, and each batch entry's trajectory among the distinct
    ones (for pairs: lower, higher, pair by pair)."""

    rows: np.ndarray
    row_of: np.ndarray
    weight: np.ndarray
    lengths: np.ndarray
    heads: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        """The number of pairs."""
        return len(self.ends) // 2

    def returns(self, out: np.ndarray) -> np.ndarray:
        """Each distinct trajectory's weighted sum of its rows' outputs ``out``."""
        return np.add.reduceat(out[self.row_of] * self.weight, self.heads)


def _end_rows(pairs) -> np.ndarray:
    """(n, 2) int array of each pair's (lower, higher) trajectory; an array
    of such rows is taken as it is."""
    if isinstance(pairs, np.ndarray):
        return pairs
    return np.array([(p.lower, p.higher) for p in pairs], dtype=int).reshape(-1, 2)


def new_reward_net(input_dim: int, hidden_units: int = 256, seed: int = 0) -> Mlp:
    return Mlp(input_dim, hidden_units, seed=seed)


def trajectory_return(net: Mlp, traj: AbstractTrajectory, discount: float = 1.0) -> float:
    return float(StepRows.pack([traj]).returns(net, [0], discount)[0])


def trex_loss(net: Mlp, pair: PreferencePair, trajs, discount: float = 1.0) -> float:
    """Cross-entropy of the softmax over predicted returns:
    -log exp(G_higher) / (exp(G_lower) + exp(G_higher)), computed stably."""
    g_low = trajectory_return(net, trajs[pair.lower], discount)
    g_high = trajectory_return(net, trajs[pair.higher], discount)
    return float(np.logaddexp(0.0, g_low - g_high))


def trex_grad(net: Mlp, batch, trajs=None, discount: float = 1.0) -> np.ndarray:
    """Exact gradient of the mean batch loss w.r.t. ``net.params``.

    ``batch`` is a planned TrexBatch of pairs, or a list of PreferencePair
    or an (n, 2) array of their (lower, higher) rows, which is planned here
    on ``trajs`` (a trajectory list or its packed StepRows) and ``discount``.
    """
    if len(batch) == 0:
        raise EmptyPairSet("gradient of an empty batch")
    if not isinstance(batch, TrexBatch):
        ends = _end_rows(batch).ravel()
        batch = StepRows.pack(trajs).plan(ends, len(ends), discount)[0]
    out, acts = net.forward_cached(batch.rows)
    g = batch.returns(out)[batch.ends].reshape(-1, 2)
    sig = 1.0 / (1.0 + np.exp(-(g[:, 0] - g[:, 1])))
    # d(mean loss)/d G of each distinct trajectory, of each of its steps, then
    # of each distinct row
    coeff = np.bincount(batch.ends, (sig[:, None] * (1.0, -1.0)).ravel(), len(batch.lengths))
    return net.backward(acts, row_sums(np.repeat(coeff, batch.lengths) * batch.weight
                                       / len(batch), batch.row_of, len(batch.rows)))


def pair_accuracy(net: Mlp, pairs, trajs, discount: float = 1.0) -> float:
    """Fraction of pairs whose predicted returns agree with the preference.

    ``pairs`` is a list of PreferencePair or an (n, 2) array of their (lower,
    higher) rows; ``trajs`` is a trajectory list or its packed StepRows.
    """
    if len(pairs) == 0:
        raise EmptyPairSet("accuracy of an empty pair set")
    ends = _end_rows(pairs).ravel()
    g = StepRows.pack(trajs).returns(net, ends, discount).reshape(-1, 2)
    return int(np.count_nonzero(g[:, 1] > g[:, 0])) / len(pairs)


@dataclass(frozen=True)
class RewardTrainConfig:
    hidden_units: int = ranged(256, "[1, inf)")
    epochs: int = ranged(100, "[1, inf)")
    step_size: float = ranged(1e-3, "(0, inf)")
    batch_size: int = ranged(32, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")
    discount: float = ranged(1.0, "(0, 1]")
    holdout_fraction: float = ranged(0.1, "[0, 1)")

    def __post_init__(self):
        check_ranges(self)


def train_reward(pairs, trajs, config: RewardTrainConfig = RewardTrainConfig()) -> Mlp:
    """Mini-batch optimization of the mean preference loss.

    Holds out a seeded fraction of pairs and returns the parameter snapshot
    with the best held-out pair accuracy. Deterministic given config.seed.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyPairSet("cannot train a reward net without preference pairs")
    trajs = StepRows.pack(trajs)
    net = new_reward_net(trajs.rows.shape[1], config.hidden_units, seed=config.seed)

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(pairs))
    n_hold = int(round(config.holdout_fraction * len(pairs)))
    n_hold = min(n_hold, len(pairs) - 1)
    ends = _end_rows(pairs)
    holdout, train = ends[order[:n_hold]], ends[order[n_hold:]]

    optimizer = Adam(net.params, step_size=config.step_size)
    best_params = net.params.copy()
    best_acc = pair_accuracy(net, holdout, trajs, config.discount) if n_hold else -1.0

    size, per_plan = 2 * config.batch_size, 2 * config.batch_size * PLAN_BATCHES
    for _ in range(config.epochs):
        ends = train[rng.permutation(len(train))].ravel()  # lower, higher, pair by pair
        for start in range(0, len(ends), per_plan):
            for batch in trajs.plan(ends[start:start + per_plan], size, config.discount):
                optimizer.step(trex_grad(net, batch))
        if n_hold:
            acc = pair_accuracy(net, holdout, trajs, config.discount)
            if acc > best_acc:
                best_acc = acc
                best_params = net.params.copy()

    if n_hold:
        net.params[:] = best_params
    return net


# --- relabeling -----------------------------------------------------------------

RELABEL_MODES = ("irl", "sparse", "combined")


def relabel(trajs, net: Mlp | None = None, mode: str = "irl",
            outcome: float | np.ndarray | None = None, blend: float = 1.0) -> MdpTables:
    """The packed corpus ``trajs`` (MdpTables, or abstract trajectories to
    pack) with its reward column replaced.

    irl       r_t = r(s_t, a_t) for every turn
    sparse    r_t = 0 except the final turn, which gets outcome / 100
    combined  irl rewards plus blend * outcome / 100 added to the final turn

    ``outcome`` is on the judges' 0-100 scale and is rescaled to [0, 1], one
    per trajectory. The irl rewards of a trajectory are the forward of its
    (T, d) rows; the trajectories of one length share one stacked forward,
    whose slices are those forwards bit for bit.
    """
    if mode not in RELABEL_MODES:
        raise MalformedRecord(f"unknown relabel mode {mode!r}")
    corpus = pack_corpus(trajs)
    starts, lengths = corpus.step_offsets[:-1], np.diff(corpus.step_offsets)
    if not lengths.all():
        raise MalformedRecord("relabeling needs a final turn in every trajectory")
    rewards = np.zeros(lengths.sum())
    if mode != "sparse":
        if net is None:
            raise MalformedRecord(f"{mode} relabeling needs a reward net")
        packed = StepRows.pack(corpus)
        if packed.rows.shape[1] != net.input_dim:
            raise DimensionMismatch(
                f"trajectory rows ({packed.rows.shape[1]}) do not match net input "
                f"({net.input_dim})"
            )
        for n in np.unique(lengths).tolist():
            steps = starts[lengths == n, None] + np.arange(n)
            rewards[steps] = net.forward(packed.rows[packed.row_id[steps]])
    if mode != "irl":
        if outcome is None:
            raise MalformedRecord(f"{mode} relabeling needs an outcome score")
        scale = blend if mode == "combined" else 1.0
        rewards[starts + lengths - 1] += scale * np.asarray(outcome, dtype=float) / 100.0
    return corpus.with_rewards(rewards)


# --- persistence ------------------------------------------------------------------

def save_reward_net(net: Mlp, path: str | Path) -> None:
    write_json(path, {"format_version": FORMAT_VERSION, **net.to_json()}, "reward net")


def load_reward_net(path: str | Path) -> Mlp:
    return read_json(path, "reward net", Mlp.from_json, version=FORMAT_VERSION)
