"""Small fully connected networks with explicit gradients.

Everything is float64 numpy: the networks here are tiny (three fully
connected layers, ReLU hidden activations, scalar output), and explicit
reverse-mode code keeps training bit-reproducible given a seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch


class Mlp:
    """input -> hidden -> hidden -> 1 network, ReLU on hidden layers."""

    def __init__(self, input_dim: int, hidden_units: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        dims = [input_dim, hidden_units, hidden_units, 1]
        self.layer_dims = dims
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """(N, input_dim) -> (N,) scalar outputs."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionMismatch(
                f"expected (*, {self.input_dim}) input, got {x.shape}"
            )
        h = x
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        out = h @ self.weights[-1] + self.biases[-1]
        return out[:, 0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping pre-activations for backprop."""
        acts = [np.asarray(x, dtype=float)]
        h = acts[0]
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
            acts.append(h)
        out = (h @ self.weights[-1] + self.biases[-1])[:, 0]
        return out, acts

    def backward(self, acts: list[np.ndarray], dout: np.ndarray) -> list[np.ndarray]:
        """Gradient of sum(dout * output) w.r.t. parameters.

        Returns gradients in flat_params() order.
        """
        grads_w = [np.zeros_like(W) for W in self.weights]
        grads_b = [np.zeros_like(b) for b in self.biases]
        delta = dout[:, None]  # (N, 1)
        grads_w[-1] = acts[-1].T @ delta
        grads_b[-1] = delta.sum(axis=0)
        upstream = delta @ self.weights[-1].T
        for layer in range(len(self.weights) - 2, -1, -1):
            upstream = upstream * (acts[layer + 1] > 0)
            grads_w[layer] = acts[layer].T @ upstream
            grads_b[layer] = upstream.sum(axis=0)
            if layer > 0:
                upstream = upstream @ self.weights[layer].T
        return self._flatten(grads_w, grads_b)

    # --- parameter vector helpers ------------------------------------------

    def _flatten(self, ws, bs) -> list[np.ndarray]:
        flat = []
        for W, b in zip(ws, bs):
            flat.append(W)
            flat.append(b)
        return flat

    def flat_params(self) -> list[np.ndarray]:
        return self._flatten(self.weights, self.biases)

    def params_vector(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.flat_params()])

    def set_params_vector(self, vec: np.ndarray) -> None:
        offset = 0
        for p in self.flat_params():
            p[...] = vec[offset : offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != vec.size:
            raise DimensionMismatch("parameter vector size mismatch")

    def copy(self) -> "Mlp":
        clone = Mlp(self.input_dim, self.layer_dims[1], seed=0)
        clone.weights = [W.copy() for W in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def to_json(self) -> dict:
        return {
            "layer_dims": list(self.layer_dims),
            "params": self.params_vector().tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Mlp":
        dims = obj["layer_dims"]
        net = cls(dims[0], dims[1], seed=0)
        net.set_params_vector(np.asarray(obj["params"], dtype=float))
        return net


class Adam:
    """Adaptive-moment optimizer over a parameter list."""

    def __init__(self, params: list[np.ndarray], step_size: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.step_size = step_size
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        lr = self.step_size * np.sqrt(1 - self.beta2**self.t) / (1 - self.beta1**self.t)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= lr * m / (np.sqrt(v) + self.eps)


def grouped_softmax(scores: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Softmax applied independently within each group of a flat score array."""
    gmax = np.full(n_groups, -np.inf)
    np.maximum.at(gmax, group_ids, scores)
    expd = np.exp(scores - gmax[group_ids])
    gsum = np.zeros(n_groups)
    np.add.at(gsum, group_ids, expd)
    return expd / gsum[group_ids]


def grouped_max(scores: np.ndarray, group_ids: np.ndarray, n_groups: int) -> np.ndarray:
    gmax = np.full(n_groups, -np.inf)
    np.maximum.at(gmax, group_ids, scores)
    return gmax

