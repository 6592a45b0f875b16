"""Offline policy induction: conservative Q-learning and behavior cloning.

Two Q-function forms exist, chosen by the action kind. Index actions (the
small discrete name/nametype schemes) get the tabular form, which hashes
exact state vectors; feature actions (the topology scheme) get the network
form, which scores (state, action-representation) rows with a small MLP.

The conservative penalty and the Bellman backup both range over the
candidate actions recorded at each turn, mirroring how the deployed policy
only ever scores the current turn's candidates.

``build_transitions`` is the one place that lays steps out for learning.
It lays a packed corpus (``MdpTables``) out as a TransitionTable, which reads
the rewards, the candidate offsets (CSR form) and the episode starts off the
corpus and keeps only what it derives: the taken entry and the following
step of every step, and index candidates as one dense array. The table
stores its network rows once per distinct (state, action) row, with a row id
per candidate entry, read off the corpus's row tables (``distinct_pairs``).
Tabular CQL and BC, and FQE, keep one value cell per such row;
``TransitionTable.matrix`` writes a TabularQ's dense matrix from them, a
column per id up to the largest one offered (a TabularQ rejects ids outside
them). Network CQL and BC train in one loop, ``minibatch_train``, which
forwards and backprops each distinct row of a batch once (``nets``'
distinct-row rule). ``TransitionTable.backup`` is the one Bellman backup and
``TransitionTable.taken_means`` the one exact cell update, for CQL and FQE
alike. Tabular CQL takes each step's softmax once per distinct ordered
sequence of candidate rows (``TransitionTable.row_sequences``) and adds a
step's gradient terms in one ordered ``np.bincount``.

The loop plans its batches ahead, up to PLAN_BATCHES at a time within a
target-refresh block: it draws them, and ``TransitionTable.plan`` lays them
all out at once with vectorized index arithmetic (each batch's candidate entries, their distinct
rows, each step's first and taken entry, and its Bellman target). A learner
is then a plain function of one planned ``Batch`` and its entries' outputs,
returning their gradient. Network CQL builds every step's target once per
target refresh, from one forward over the distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .abstraction import MdpTables, pack_corpus, ranges
from .errors import (
    DimensionMismatch,
    EmptyData,
    check_ranges,
    ranged,
)
from .nets import (
    Adam,
    Mlp,
    PLAN_BATCHES,
    grouped_max,
    grouped_softmax,
    plan_rows,
    row_sums,
    softmax_rows,
)
from .trajectories import read_json, write_json

POLICY_FORMAT_VERSION = 1


# --- transition table -------------------------------------------------------------

@dataclass
class TransitionTable:
    """Every logged step, packed once for all learners.

    Step i is step i of ``corpus``, the packed corpus the table lays out, and
    owns its candidate entries corpus.cand_offsets[i]:cand_offsets[i + 1], in
    the order of its recorded candidates; its reward is corpus.rewards[i]. The
    table stores only what it derives: index actions as ``cand_ids`` (feature
    actions are read off the corpus), ``taken[i]``, the entry of the action
    step i took, and ``next_step``. What is derived from these arrays
    (``states``, ``cand_step``, ``state_ids``, ``cand_rows``, ``row_id``,
    ``row_sequences`` and ``taken_counts``) is computed once per table and is
    read-only, so every learner and every policy scored on the table shares
    it. ``row_sequences`` lays out the distinct ordered row-id sequences that
    steps offer, so that tabular CQL takes one softmax per sequence.
    """

    corpus: MdpTables
    taken: np.ndarray             # (N,) candidate entry of the taken action
    next_step: np.ndarray         # (N,) index of the following step, -1 at the end
    terminal: np.ndarray          # (N,) bool, next_step < 0
    cand_ids: np.ndarray | None = None    # (M,) index actions

    @property
    def n(self) -> int:
        return len(self.taken)

    @property
    def index_actions(self) -> bool:
        return self.cand_ids is not None

    @property
    def n_actions(self) -> int:
        return int(self.cand_ids.max()) + 1

    @cached_property
    def states(self) -> np.ndarray:
        """(N, S) each step's state."""
        return _read_only(self.corpus.states[self.corpus.state_id])

    @property
    def candidates(self) -> np.ndarray:
        """(M,) index actions, or (M, A) feature actions."""
        return self.cand_ids if self.index_actions else self.corpus.actions[self.corpus.cand_id]

    @cached_property
    def cand_step(self) -> np.ndarray:
        """(M,) the step that owns each candidate entry."""
        return _read_only(np.repeat(np.arange(self.n), np.diff(self.corpus.cand_offsets)))

    @cached_property
    def state_ids(self) -> tuple[dict, np.ndarray]:
        """State vectors numbered by first appearance, and each step's number."""
        rows, sid = self.corpus.states.tolist(), self.corpus.state_id
        index: dict = {}
        number = np.zeros(len(rows), dtype=int)
        for s in dict.fromkeys(sid.tolist()):  # the state rows, by first appearance
            number[s] = index.setdefault(tuple(rows[s]), len(index))
        return index, _read_only(number[sid])

    def matrix(self, cells: np.ndarray) -> np.ndarray:
        """(states, n_actions) of index actions: the value of each entry's row
        cell at (its state's ``state_ids`` number, its action id), 0 where no
        entry is. States that differ only in a zero's sign (no featurizer
        makes them) have one number, so their cells share a slot."""
        out = np.zeros((len(self.state_ids[0]), self.n_actions))
        out[self.state_ids[1][self.cand_step], self.cand_ids] = cells[self.row_id]
        return out

    @property
    def encoding(self) -> dict:
        """Q-network action encoding: one-hot over the ids seen, or the features."""
        if self.index_actions:
            return {"kind": "onehot", "size": self.n_actions}
        return {"kind": "features", "dim": int(self.corpus.actions.shape[1])}

    def rows(self, encoding: dict) -> np.ndarray:
        """(M, S + A) network rows [state | encoded candidate], one per entry."""
        return encode_rows(self.states[self.cand_step], self.candidates, encoding)

    @cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        actions = self.cand_ids if self.index_actions else self.corpus.cand_id
        rows, row_id = distinct_pairs(self.corpus, self.corpus.state_id[self.cand_step],
                                      actions, self.encoding)
        return _read_only(rows), _read_only(row_id)

    @property
    def cand_rows(self) -> np.ndarray:
        """The distinct Q-network rows of ``rows(encoding)``, each stored once."""
        return self._distinct[0]

    @property
    def row_id(self) -> np.ndarray:
        """(M,) each entry's row in ``cand_rows``: cand_rows[row_id] is
        ``rows(encoding)`` bit for bit."""
        return self._distinct[1]

    @cached_property
    def row_sequences(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct sequences of row ids that steps offer, numbered by
        first appearance: their row ids end to end, the (sequences + 1,)
        offsets of each (CSR form), and each candidate entry's position in
        the first array, which there holds the entry's ``row_id``.

        A sequence is keyed on its row ids in entry order, not on their set:
        a softmax over a step's cells sums its normaliser in entry order, so
        only steps that offer the same rows in the same order share it."""
        rows, off = self.row_id.tolist(), self.corpus.cand_offsets.tolist()
        index: dict = {}
        seq = [index.setdefault(tuple(rows[a:b]), len(index)) for a, b in zip(off[:-1], off[1:])]
        offsets = np.zeros(len(index) + 1, dtype=int)
        np.cumsum([len(key) for key in index], out=offsets[1:])
        step = self.cand_step
        position = offsets[seq][step] + np.arange(len(step)) - self.corpus.cand_offsets[step]
        return (_read_only(np.fromiter(chain.from_iterable(index), dtype=int, count=offsets[-1])),
                _read_only(offsets), _read_only(position))

    @cached_property
    def taken_counts(self) -> np.ndarray:
        """(rows,) the number of steps that take each row of ``cand_rows``."""
        return _read_only(np.bincount(self.row_id[self.taken], minlength=len(self.cand_rows)))

    def backup(self, next_values: np.ndarray, gamma: float) -> np.ndarray:
        """Bellman targets, a new (n,) array: r + gamma * next_values[next_step],
        and r at terminal steps."""
        live = ~self.terminal
        targets = self.corpus.rewards.copy()
        targets[live] += gamma * next_values[self.next_step[live]]
        return targets

    def taken_means(self, cells: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """A copy of the row cells with each taken cell set to the mean of the
        per-step ``targets`` over the steps that take it."""
        seen = self.taken_counts > 0
        sums = np.bincount(self.row_id[self.taken], weights=targets, minlength=len(cells))
        new = cells.copy()
        new[seen] = sums[seen] / self.taken_counts[seen]
        return new

    def plan(self, batches: np.ndarray, targets: np.ndarray | None = None) -> list["Batch"]:
        """Each row of the (K, b) step array ``batches`` as one planned Batch,
        laid out for all K at once; ``targets`` are per-step Bellman targets."""
        n_batches, size = batches.shape
        steps, off = batches.ravel(), self.corpus.cand_offsets
        counts = off[steps + 1] - off[steps]
        idx = ranges(off[steps], counts)
        group = np.repeat(np.arange(len(steps)), counts)
        owner = group // size
        present, row_bounds, entry_row = plan_rows(self.row_id[idx], owner, n_batches,
                                                   len(self.cand_rows))
        first = np.cumsum(counts) - counts
        entry_bounds = np.append(first[::size], len(idx))
        base = np.repeat(entry_bounds[:-1], size)  # each step's batch's first entry
        taken = first - base + self.taken[steps] - off[steps]
        group -= owner * size
        target = [None] * n_batches if targets is None else targets[batches]
        return [Batch(present=present[row_bounds[k]:row_bounds[k + 1]],
                      entry_row=entry_row[e0:e1], group=group[e0:e1],
                      taken=taken[k * size:(k + 1) * size], target=target[k])
                for k, (e0, e1) in enumerate(zip(entry_bounds[:-1], entry_bounds[1:]))]


@dataclass(frozen=True)
class Batch:
    """One minibatch step of a TransitionTable, laid out ahead of its pass.

    The batch's candidate entries run step by step; ``present`` are the ids of
    the distinct rows they name, ascending, and ``entry_row`` is each entry's
    position among them. ``group`` is each entry's step, ``taken`` each
    step's taken entry, and ``target`` each step's Bellman target (None for a
    learner that does not bootstrap).
    """

    present: np.ndarray
    entry_row: np.ndarray
    group: np.ndarray
    taken: np.ndarray
    target: np.ndarray | None

    @property
    def size(self) -> int:
        return len(self.taken)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def encode_rows(states: np.ndarray, actions: np.ndarray, encoding: dict) -> np.ndarray:
    """[state | action] rows; ``states`` is (M, S), or one (S,) state for every row."""
    acts = encode_action(actions, encoding)
    rows = np.empty((len(acts), states.shape[-1] + acts.shape[1]))
    rows[:, : states.shape[-1]] = states
    rows[:, states.shape[-1] :] = acts
    return rows


def encode_action(actions: np.ndarray, encoding: dict) -> np.ndarray:
    """(M, A) network encodings of M actions: one-hot rows over
    encoding["size"] for index actions, the feature rows as given otherwise."""
    if encoding["kind"] != "onehot":
        return actions
    acts = np.zeros((len(actions), encoding["size"]))
    acts[np.arange(len(actions)), _onehot_ids(actions, encoding["size"])] = 1.0
    return acts


def _onehot_ids(ids: np.ndarray, size: int) -> np.ndarray:
    """``ids``, each a column of a one-hot of ``size``, or DimensionMismatch."""
    outside = ids[(ids < 0) | (ids >= size)]
    if len(outside):
        raise DimensionMismatch(f"action id {outside[0]} outside a one-hot encoding of size {size}")
    return ids


def distinct_pairs(corpus: MdpTables, state_id: np.ndarray, actions: np.ndarray,
                   encoding: dict) -> tuple[np.ndarray, np.ndarray]:
    """The distinct [state | encoded action] rows of (state, action) pairs, in
    the byte order of the rows, and each pair's row among them.

    ``state_id`` names rows of ``corpus.states``; ``actions`` are vocabulary
    ids under a one-hot encoding, rows of ``corpus.actions`` otherwise. The
    row tables are in byte order, so the rows' byte order is that of (state
    row, action rank) pairs; a one-hot row ranks by descending id, as 1.0's
    high byte, 0x3F, sorts after 0.0's 0x00.
    """
    onehot = encoding["kind"] == "onehot"
    size = encoding["size"] if onehot else len(corpus.actions)
    if onehot:
        _onehot_ids(actions, size)
    present, row_id = np.unique(state_id * size + (size - 1 - actions if onehot else actions),
                               return_inverse=True)
    state, rank = np.divmod(present, size)
    acts = size - 1 - rank if onehot else corpus.actions[rank]
    return encode_rows(corpus.states[state], acts, encoding), row_id


def build_transitions(trajs) -> TransitionTable:
    """The steps of ``trajs``, a packed corpus or abstract trajectories, as
    one TransitionTable over their recorded candidates."""
    corpus = pack_corpus(trajs)
    n = len(corpus.state_id)
    if not n:
        raise EmptyData("no trajectories")
    next_step = np.arange(1, n + 1)
    next_step[corpus.step_offsets[1:] - 1] = -1
    cand_ids = corpus.actions[corpus.cand_id] if corpus.index_actions else None
    return TransitionTable(corpus, corpus.cand_offsets[:-1] + corpus.taken, next_step,
                           next_step < 0, cand_ids)


# --- Q functions -------------------------------------------------------------------

class TabularQ:
    """Exact state-vector table over a fixed index action space. A state
    outside ``state_index`` (row ``len(q)`` of ``cells``) and an id past the
    columns, which training never saw, have the value 0; a negative id raises."""

    def __init__(self, state_index: dict, q: np.ndarray, gamma: float):
        self.state_index = state_index
        self.q = q
        self.gamma = gamma

    @property
    def n_actions(self) -> int:
        return self.q.shape[1]

    def state_id(self, state: np.ndarray) -> int | None:
        return self.state_index.get(tuple(np.asarray(state, dtype=float).tolist()))

    @cached_property
    def _padded(self) -> np.ndarray:
        """``q`` with a zero row and a zero column appended."""
        return np.pad(self.q, ((0, 1), (0, 1)))

    def cells(self, rows, candidates) -> np.ndarray:
        """The value of each (q row, candidate id); one row, or one per id."""
        ids = np.asarray(candidates, dtype=int)
        if len(ids) and ids.min() < 0:
            raise DimensionMismatch(f"action id {ids.min()} is negative: a tabular Q has no "
                                    f"column for it")
        return self._padded[rows, np.minimum(ids, self.n_actions)]

    def values(self, state: np.ndarray, candidates) -> np.ndarray:
        sid = self.state_id(state)
        return self.cells(len(self.q) if sid is None else sid, candidates)


class NetworkQ:
    """MLP over concatenated (state, action representation) rows."""

    def __init__(self, net: Mlp, state_dim: int, action_encoding: dict, gamma: float):
        self.net = net
        self.state_dim = state_dim
        self.action_encoding = dict(action_encoding)
        self.gamma = gamma

    def encode(self, state: np.ndarray, candidates) -> np.ndarray:
        state = np.asarray(state, dtype=float)
        if state.shape[-1] != self.state_dim:
            raise DimensionMismatch(
                f"state dim {state.shape[-1]} != expected {self.state_dim}"
            )
        enc = self.action_encoding
        onehot = enc["kind"] == "onehot"
        try:
            actions = np.asarray(candidates, dtype=int if onehot else float)
        except ValueError as exc:  # candidates of unequal widths
            raise DimensionMismatch(f"action features: {exc}") from exc
        if not onehot and actions.shape[1:] != (enc["dim"],):
            raise DimensionMismatch(
                f"action features {actions.shape[1:]} != expected ({enc['dim']},)"
            )
        return encode_rows(state, actions, enc)

    def values(self, state: np.ndarray, candidates) -> np.ndarray:
        return self.net.forward(self.encode(state, candidates))


# --- softmax policy ----------------------------------------------------------------

@dataclass
class QPolicy:
    """Softmax-over-candidates policy induced by a Q function."""

    q: TabularQ | NetworkQ
    temperature: float = 1.0

    def probs(self, state: np.ndarray, candidates) -> np.ndarray:
        return policy_probs(self, state, candidates)


def policy_probs(policy: QPolicy, state: np.ndarray, candidates) -> np.ndarray:
    """softmax(Q(state, c) / temperature) over the given candidates."""
    if len(candidates) == 0:
        raise EmptyData("policy_probs needs at least one candidate")
    values = np.asarray(policy.q.values(state, candidates), dtype=float)
    return softmax_rows(values[None] / policy.temperature)[0]


# --- training configuration ----------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    alpha: float = ranged(1.0, "[0, inf)")
    gamma: float = ranged(0.99, "[0, 1)")
    iterations: int = ranged(2000, "[1, inf)")
    step_size: float = ranged(1e-3, "(0, inf)")
    batch_size: int = ranged(64, "[1, inf)")
    seed: int = ranged(0, "[0, inf)")
    hidden_units: int = ranged(256, "[1, inf)")
    target_refresh: int = ranged(200, "[1, inf)")
    temperature: float = ranged(1.0, "(0, inf)")

    def __post_init__(self):
        check_ranges(self)


# --- conservative Q-learning -----------------------------------------------------------

def cql_train(trajs, cfg: TrainConfig):
    """Fit a Q function by conservative Q-learning.

    Minimizes the squared Bellman residual against targets rebuilt every
    target_refresh steps from the Q function of that moment, plus alpha *
    (logsumexp over candidate Q - Q of the taken action). alpha = 0 recovers
    plain fitted Q-learning. Terminal steps bootstrap with zero.
    Deterministic given cfg.seed.

    Both forms take exactly ``iterations`` steps, full-table steps for
    tabular CQL (index actions) and minibatch steps for network CQL, in the
    blocks of ``step_blocks``; at alpha = 0 a tabular block is one exact
    update.
    """
    table = build_transitions(trajs)
    if table.index_actions:
        return _cql_tabular(table, cfg)
    return _cql_network(table, cfg)


def _cql_tabular(table: TransitionTable, cfg: TrainConfig) -> TabularQ:
    """Q keeps a cell per distinct (state, action) row, ``row_id`` reads it.

    A step's softmax term depends only on its candidates' cells in entry
    order, so it is taken once per ordered row sequence (``row_sequences``)
    and gathered back to the entries. The three gradient terms (each step's
    Bellman residual at its taken cell, every entry's softmax term, each
    step's -alpha at its taken cell) are added by one ``np.bincount`` whose
    index lists them in that order: it adds each weight to +0.0 in index
    order, so every cell sums the same terms in the same order as one
    ``np.add.at`` per term into zeros would.
    """
    row_id, group, n = table.row_id, table.cand_step, table.n
    cell = row_id[table.taken]
    q = np.zeros(len(table.cand_rows))
    seq_rows, offsets, position = table.row_sequences
    seq = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    bins = np.concatenate([cell, row_id, cell])
    weights = np.empty(len(bins))
    residuals, softmax_terms = weights[:n], weights[n:n + len(row_id)]
    weights[n + len(row_id):] = -cfg.alpha / n

    for steps in step_blocks(cfg):
        targets = table.backup(grouped_max(q[row_id], group, n), cfg.gamma)
        if cfg.alpha == 0.0:
            q = table.taken_means(q, targets)
        else:
            for _ in range(steps):
                residuals[:] = 2.0 * (q[cell] - targets) / n
                probs = grouped_softmax(q[seq_rows], seq, len(offsets) - 1)
                softmax_terms[:] = (cfg.alpha * probs / n)[position]
                q = q - cfg.step_size * np.bincount(bins, weights, len(q))
    return TabularQ(state_index=table.state_ids[0], q=table.matrix(q), gamma=cfg.gamma)


def step_blocks(cfg: TrainConfig) -> list[int]:
    """The step count of each target block: cfg.iterations steps in blocks of
    cfg.target_refresh, the last block cut short."""
    return [min(cfg.target_refresh, cfg.iterations - start)
            for start in range(0, cfg.iterations, cfg.target_refresh)]


def network_q(table: TransitionTable, net: Mlp, gamma: float) -> NetworkQ:
    return NetworkQ(net=net, state_dim=table.states.shape[1],
                    action_encoding=table.encoding, gamma=gamma)


def minibatch_train(table: TransitionTable, cfg: TrainConfig, learner, targets=None) -> Mlp:
    """The one minibatch loop of network CQL and BC: cfg.iterations Adam steps
    on a cfg.seed network, each on a batch drawn by a cfg.seed rng.

    The steps run in the blocks of ``step_blocks``. At the start of a block
    ``targets(net)``, when given, returns every step's Bellman target under
    the live network. The block's batches are drawn and planned up to
    PLAN_BATCHES at a time (``TransitionTable.plan``). Each step forwards its
    batch's distinct rows once, ``learner(batch, out)`` turns its entries'
    outputs into their gradient, and each row's summed entry gradients are
    backpropagated.
    """
    net = Mlp(table.cand_rows.shape[1], cfg.hidden_units, seed=cfg.seed)
    optimizer = Adam(net.params, step_size=cfg.step_size)
    rng = np.random.default_rng(cfg.seed)
    size = min(cfg.batch_size, table.n)
    for steps in step_blocks(cfg):
        boot = None if targets is None else targets(net)
        for start in range(0, steps, PLAN_BATCHES):
            batches = np.stack([rng.choice(table.n, size=size, replace=False) for _ in
                                range(min(PLAN_BATCHES, steps - start))])
            for batch in table.plan(batches, boot):
                out, acts = net.forward_cached(table.cand_rows[batch.present])
                dout = learner(batch, out[batch.entry_row])
                optimizer.step(net.backward(acts, row_sums(dout, batch.entry_row,
                                                           len(batch.present))))
    return net


def _cql_network(table: TransitionTable, cfg: TrainConfig) -> NetworkQ:
    def targets(net):
        """Every step's Bellman target under the network as it is now."""
        out = net.forward(table.cand_rows)[table.row_id]
        return table.backup(grouped_max(out, table.cand_step, table.n), cfg.gamma)

    def learner(batch, out):
        b = batch.size
        if cfg.alpha > 0:
            dout = cfg.alpha * grouped_softmax(out, batch.group, b) / b
        else:
            dout = np.zeros_like(out)
        taken = batch.taken
        dout[taken] += 2.0 * (out[taken] - batch.target) / b - cfg.alpha / b
        return dout

    return network_q(table, minibatch_train(table, cfg, learner, targets), cfg.gamma)


# --- behavior cloning ---------------------------------------------------------------

def bc_train(trajs, cfg: TrainConfig) -> QPolicy:
    """Clone the logged behavior under the softmax-over-candidates model.

    Tabular: logits are log visit counts, so the softmax over candidates
    reproduces the empirical conditional frequencies. Network: maximizes the
    log-likelihood of taken actions by minibatch gradient ascent.
    """
    table = build_transitions(trajs)
    if table.index_actions:
        with np.errstate(divide="ignore"):
            q = np.log(table.matrix(table.taken_counts))
        return QPolicy(q=TabularQ(state_index=table.state_ids[0], q=q, gamma=cfg.gamma),
                       temperature=cfg.temperature)

    def learner(batch, out):
        dout = grouped_softmax(out, batch.group, batch.size) / batch.size
        dout[batch.taken] -= 1.0 / batch.size
        return dout

    net = minibatch_train(table, cfg, learner)
    return QPolicy(q=network_q(table, net, cfg.gamma), temperature=cfg.temperature)


# --- persistence ----------------------------------------------------------------------

def save_policy(policy: QPolicy, path: str | Path, metadata: dict | None = None) -> None:
    q = policy.q
    obj = {
        "format_version": POLICY_FORMAT_VERSION,
        "temperature": policy.temperature,
        "gamma": q.gamma,
        "metadata": metadata or {},
    }
    if isinstance(q, TabularQ):
        states = sorted(q.state_index, key=lambda s: q.state_index[s])
        obj["form"] = "tabular"
        obj["states"] = [list(s) for s in states]
        obj["q"] = q.q.tolist()
    else:
        obj["form"] = "network"
        obj["state_dim"] = q.state_dim
        obj["action_encoding"] = q.action_encoding
        obj["net"] = q.net.to_json()
    write_json(path, obj, "policy")


def _policy_from_json(obj) -> tuple[QPolicy, dict]:
    if obj["form"] == "tabular":
        index = {tuple(s): i for i, s in enumerate(obj["states"])}
        q = TabularQ(state_index=index, q=np.asarray(obj["q"], dtype=float),
                     gamma=obj["gamma"])
        if q.q.ndim != 2 or len(q.q) != len(obj["states"]):
            raise DimensionMismatch(f"q of shape {q.q.shape} for {len(obj['states'])} states")
    else:
        q = NetworkQ(
            net=Mlp.from_json(obj["net"]),
            state_dim=obj["state_dim"],
            action_encoding=obj["action_encoding"],
            gamma=obj["gamma"],
        )
        enc = q.action_encoding
        width = enc["size"] if enc["kind"] == "onehot" else enc["dim"]
        if q.net.input_dim != q.state_dim + width:
            raise DimensionMismatch(f"network input width {q.net.input_dim} != state dim "
                                    f"{q.state_dim} + action width {width}")
    if not obj["temperature"] > 0:
        raise ValueError(f"temperature {obj['temperature']} is not positive")
    return QPolicy(q=q, temperature=obj["temperature"]), obj.get("metadata", {})


def load_policy(path: str | Path) -> tuple[QPolicy, dict]:
    return read_json(path, "policy", _policy_from_json, version=POLICY_FORMAT_VERSION)
