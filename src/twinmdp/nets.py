"""Small fully connected networks with explicit gradients.

Everything is float64 numpy: the networks here are tiny (three fully
connected layers, ReLU hidden activations, scalar output), and explicit
reverse-mode code keeps training bit-reproducible given a seed.

A network's parameters are one vector, ``Mlp.params``: per layer the weight
matrix (row-major), then the bias. ``weights`` and ``biases`` are views into
it, ``backward`` returns a gradient in its layout, and ``Adam`` updates it.

A pass makes no spare temporaries: a hidden layer adds its bias and applies
the ReLU in place, and ``backward`` masks its upstream gradient in place.

The distinct-row rule: training tables store each network row once and
address their entries by row id. A pass forwards the distinct rows a
batch's ids name, hands each entry its row's output, and backprops each
row's summed entry gradients (``row_sums``). As
sum(dout * output) is linear in dout, this is the gradient of the full-row
pass up to the order of the sums. The training loops plan their batches
ahead: ``plan_rows`` finds every batch's distinct rows, and each entry's
position among them, for up to PLAN_BATCHES batches at once, so a step runs
only the math that depends on the network.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Batches planned at once. A plan holds a (batches, rows) mark and a few
# arrays over every entry of its batches. Planning demo's 200-step CQL block
# at once held about 2.5 MB and raised the run's peak memory by 2 MB; 50
# batches at a time left it where it was, at the same speed.
PLAN_BATCHES = 50

class Mlp:
    """input -> hidden -> hidden -> 1 network, ReLU on hidden layers."""

    def __init__(self, input_dim: int, hidden_units: int, seed: int = 0):
        self._bind(input_dim, hidden_units, None)
        rng = np.random.default_rng(seed)
        for W in self.weights:
            bound = np.sqrt(6.0 / sum(W.shape))  # Glorot uniform
            W[...] = rng.uniform(-bound, bound, size=W.shape)

    @classmethod
    def from_params(cls, input_dim: int, hidden_units: int, params: np.ndarray) -> "Mlp":
        net = cls.__new__(cls)
        net._bind(input_dim, hidden_units, params)
        return net

    def _bind(self, input_dim: int, hidden_units: int, params: np.ndarray | None) -> None:
        """Lay the layers out over ``params`` (zeros when None)."""
        dims = [input_dim, hidden_units, hidden_units, 1]
        layers = list(zip(dims[:-1], dims[1:]))
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in layers)
        if params is None:
            params = np.zeros(size)
        elif params.shape != (size,):
            raise DimensionMismatch(f"{params.shape} parameters, layers {dims} need {size}")
        self.layer_dims, self.params = dims, params
        self.weights, self.biases = [], []
        self._bounds = []  # per layer: weight start, bias start, end
        start = 0
        for fan_in, fan_out in layers:
            mid, end = start + fan_in * fan_out, start + (fan_in + 1) * fan_out
            self.weights.append(params[start:mid].reshape(fan_in, fan_out))
            self.biases.append(params[mid:end])
            self._bounds.append((start, mid, end))
            start = end

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(N, input_dim) -> (N,), or (B, N, input_dim) -> (B, N) with each slice
        equal to forward(slice) bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise DimensionMismatch(f"expected (*, {self.input_dim}) input, got {x.shape}")
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            x = _relu_layer(x, W, b)
        return (x @ self.weights[-1] + self.biases[-1])[..., 0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping each layer's input for backprop."""
        acts = [np.asarray(x, dtype=float)]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(_relu_layer(acts[-1], W, b))
        return (acts[-1] @ self.weights[-1] + self.biases[-1])[..., 0], acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout * output) w.r.t. ``params``, in its layout."""
        grad = np.empty_like(self.params)
        upstream = dout[:, None]  # (N, 1)
        last = len(self.weights) - 1
        for layer in range(last, -1, -1):
            (w_lo, b_lo, b_hi), W = self._bounds[layer], self.weights[layer]
            if layer < last:
                upstream *= acts[layer + 1] > 0
            np.matmul(acts[layer].T, upstream, out=grad[w_lo:b_lo].reshape(W.shape))
            upstream.sum(axis=0, out=grad[b_lo:b_hi])
            if layer == last:  # one output unit: the outer product is exact
                upstream = upstream * W.T
            elif layer > 0:
                upstream = upstream @ W.T
        return grad

    def copy(self) -> "Mlp":
        return Mlp.from_params(self.input_dim, self.layer_dims[1], self.params.copy())

    def to_json(self) -> dict:
        return {"layer_dims": list(self.layer_dims), "params": self.params.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Mlp":
        dims = obj["layer_dims"]
        return cls.from_params(dims[0], dims[1], np.array(obj["params"], dtype=float))


class Adam:
    """Adaptive-moment optimizer over one parameter vector, updated in place."""

    def __init__(self, params: np.ndarray, step_size: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.step_size = params, step_size
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        lr = self.step_size * np.sqrt(1 - self.beta2**self.t) / (1 - self.beta1**self.t)
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grad * grad
        self.params -= lr * self.m / (np.sqrt(self.v) + self.eps)


def plan_rows(ids: np.ndarray, batch, n_batches: int,
              n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct row ids of each of n_batches batches, found at once.

    ``ids`` are row ids below n_rows, and ``batch`` names each id's batch.
    Returns each batch's distinct ids, ascending, back to back in batch
    order; where each batch's ids start among them ((n_batches + 1,)
    bounds); and each id's position among its own batch's distinct ids.
    One (n_batches, n_rows) mark, no sort.
    """
    mark = np.zeros((n_batches, n_rows), dtype=bool)
    mark[batch, ids] = True
    owner, present = np.nonzero(mark)
    bounds = np.searchsorted(owner, np.arange(n_batches + 1))
    position = np.empty((n_batches, n_rows), dtype=np.intp)
    position[owner, present] = np.arange(len(present)) - bounds[owner]
    return present, bounds, position[batch, ids]


def row_sums(values: np.ndarray, inverse: np.ndarray, n_rows: int) -> np.ndarray:
    """Per-entry ``values`` summed per row (``np.bincount`` over ``inverse``)."""
    return np.bincount(inverse, values, n_rows)


def grouped_max(scores: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    gmax = np.full(n_groups, -np.inf)
    np.maximum.at(gmax, group_ids, scores)
    return gmax


def grouped_softmax(scores: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Softmax applied independently within each group of a flat score array."""
    expd = np.exp(scores - grouped_max(scores, group_ids, n_groups)[group_ids])
    return expd / np.bincount(group_ids, expd, n_groups)[group_ids]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row of a (B, k) array, uniform where a row's max is not
    finite (an untrained region). A row sums as the 1-D array would."""
    peak = logits.max(axis=1, keepdims=True)
    finite = np.isfinite(peak)
    if not finite.all():  # such a row becomes zeros: exp(0) / k is 1 / k exactly
        logits, peak = np.where(finite, logits, 0.0), np.where(finite, peak, 0.0)
    expd = np.exp(logits - peak)
    return expd / expd.sum(axis=1, keepdims=True)


def _relu_layer(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(x @ W + b, 0), the bias and the ReLU applied in place."""
    h = x @ W
    h += b
    return np.maximum(h, 0.0, out=h)
