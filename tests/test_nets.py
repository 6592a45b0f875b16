import json

import numpy as np
import pytest

from oracles import grouped_softmax_add_at, mlp_backward_out_of_place, mlp_forward_out_of_place
from twinmdp import nets
from twinmdp.abstraction import _distinct_rows
from twinmdp.errors import DimensionMismatch
from twinmdp.nets import Adam, Mlp
from twinmdp.reward_learning import load_reward_net, save_reward_net


# --- per-array reference: one weight matrix and one bias array per layer ------------

class ReferenceAdam:
    def __init__(self, params, step_size, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.step_size = params, step_size
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        lr = self.step_size * np.sqrt(1 - self.beta2**self.t) / (1 - self.beta1**self.t)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= lr * m / (np.sqrt(v) + self.eps)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def per_array(net):
    return [a.copy() for pair in zip(net.weights, net.biases) for a in pair]


def assert_views_of_own_params(net):
    for a in net.weights + net.biases:
        assert a.base is net.params
    assert sum(a.size for a in net.weights + net.biases) == net.params.size


# --- the one-vector layout -----------------------------------------------------------

def test_backward_and_adam_equal_the_per_array_update():
    rng = np.random.default_rng(0)
    net = Mlp(5, 7, seed=3)
    ref = per_array(net)
    opt = Adam(net.params, step_size=1e-2)
    ref_opt = ReferenceAdam(ref, step_size=1e-2)
    for _ in range(6):
        x = rng.normal(size=(int(rng.integers(1, 12)), 5))
        dout = rng.normal(size=len(x))
        out, acts = net.forward_cached(x)
        ref_out, ref_acts = mlp_forward_out_of_place(ref[0::2], ref[1::2], x)
        assert np.array_equal(out, ref_out)
        grad = net.backward(acts, dout)
        ref_grads = mlp_backward_out_of_place(ref[0::2], ref_acts, dout)
        assert grad.shape == net.params.shape
        assert np.array_equal(grad, flat(ref_grads))
        opt.step(grad)
        ref_opt.step(ref_grads)
        assert np.array_equal(net.params, flat(ref))
    assert opt.m.shape == opt.v.shape == net.params.shape


def test_weights_and_biases_are_views_of_params():
    net = Mlp(4, 6, seed=1)
    assert_views_of_own_params(net)
    net.params[:] = np.arange(net.params.size)
    assert net.weights[0][0, 1] == 1.0
    assert net.biases[0][0] == 4 * 6
    with pytest.raises(DimensionMismatch):  # one network per parameter vector
        Mlp.from_params(4, 6, np.tile(net.params, (2, 1)))


def test_to_json_params_are_the_layer_by_layer_concatenation():
    net = Mlp(3, 5, seed=2)
    w, b = net.weights, net.biases
    want = np.concatenate([w[0].ravel(), b[0], w[1].ravel(), b[1], w[2].ravel(), b[2]])
    assert net.to_json()["params"] == want.tolist()
    assert net.to_json()["layer_dims"] == [3, 5, 5, 1]


@pytest.mark.parametrize("make_clone", [
    lambda net: net.copy(),
    lambda net: Mlp.from_json(json.loads(json.dumps(net.to_json()))),
])
def test_clones_own_their_params(make_clone):
    rng = np.random.default_rng(4)
    net = Mlp(3, 4, seed=5)
    clone = make_clone(net)
    assert_views_of_own_params(clone)
    assert clone.params is not net.params
    assert np.array_equal(clone.params, net.params)
    frozen = clone.params.copy()
    x = rng.normal(size=(6, 3))
    _, acts = net.forward_cached(x)
    Adam(net.params, step_size=0.1).step(net.backward(acts, np.ones(6)))
    assert not np.array_equal(net.params, frozen)
    assert np.array_equal(clone.params, frozen)  # what a target network relies on


def test_copy_and_from_json_draw_no_random_numbers(monkeypatch):
    net = Mlp(3, 4, seed=5)
    obj = net.to_json()

    def no_rng(*args, **kwargs):
        raise AssertionError("drew a random initialisation")

    monkeypatch.setattr(nets.np.random, "default_rng", no_rng)
    assert np.array_equal(net.copy().params, net.params)
    assert np.array_equal(Mlp.from_json(obj).params, net.params)


# --- a stack of rows ------------------------------------------------------------------

def stack_of_rows(rng, kind, n_stack, n, state_dim=6, n_actions=6):
    if kind == "features":
        return rng.normal(size=(n_stack, n, state_dim + 3))
    rows = np.zeros((n_stack, n, state_dim + n_actions))  # counts | one-hot action
    rows[..., :state_dim] = rng.integers(0, 3, size=(n_stack, n, state_dim))
    actions = rng.integers(0, n_actions, size=(n_stack, n))
    np.put_along_axis(rows, state_dim + actions[..., None], 1.0, axis=-1)
    return rows


@pytest.mark.parametrize("kind", ["features", "onehot"])
@pytest.mark.parametrize("hidden", [8, 16, 256])
def test_stacked_forward_equals_per_slice_forward(kind, hidden):
    rng = np.random.default_rng(hidden)
    for n in [*range(1, 21), 64, 129]:
        x = stack_of_rows(rng, kind, 7, n)
        net = Mlp(x.shape[-1], hidden, seed=n)
        out = net.forward(x)
        assert out.shape == (7, n)
        for k in range(7):
            assert np.array_equal(out[k], net.forward(x[k].copy()))
    with pytest.raises(DimensionMismatch):
        net.forward(x[None])


# --- in-place pass ---------------------------------------------------------------------

@pytest.mark.parametrize("hidden", [1, 2, 16, 256])
def test_in_place_pass_equals_the_out_of_place_formulas(hidden):
    """The in-place bias, ReLU and mask and the broadcast product through the
    output layer give the out-of-place formulas' bits: on 2-D rows and on a
    (B, N, d) stack of rows."""
    rng = np.random.default_rng(hidden)
    for input_dim in (1, 6, 17):
        net = Mlp(input_dim, hidden, seed=input_dim)
        for n in (1, 2, 7, 64, 290):
            for x in (rng.normal(size=(n, input_dim)), rng.normal(size=(3, n, input_dim))):
                out, acts = net.forward_cached(x)
                want, want_acts = mlp_forward_out_of_place(net.weights, net.biases, x)
                assert np.array_equal(out, want) and np.array_equal(net.forward(x), want)
                for a, w in zip(acts, want_acts):
                    assert np.array_equal(a, w)
                if x.ndim == 2:  # what backward takes
                    dout = rng.normal(size=out.shape)
                    dout[::5] = 0.0
                    sent = dout.copy()
                    grad = net.backward(acts, dout)
                    want = mlp_backward_out_of_place(net.weights, want_acts, dout)
                    assert np.array_equal(grad, flat(want))
                    assert np.array_equal(dout, sent)  # the caller's dout is not touched


def test_grouped_softmax_equals_the_add_at_sums():
    rng = np.random.default_rng(0)
    for n_groups in (1, 5, 290):
        groups = np.sort(np.concatenate([np.arange(n_groups),
                                         rng.integers(0, n_groups, size=3 * n_groups)]))
        scores = rng.normal(scale=30.0, size=len(groups))
        assert np.array_equal(nets.grouped_softmax(scores, groups, n_groups),
                              grouped_softmax_add_at(scores, groups, n_groups))


def test_softmax_rows_equal_each_rows_own_softmax():
    """Each row is the 1-D softmax of that row bit for bit, and a row whose
    max is -inf, inf or NaN is exactly uniform."""
    rng = np.random.default_rng(1)
    for k in range(1, 14):
        logits = rng.normal(scale=5.0, size=(8, k))
        logits[1] = -np.inf
        logits[2, 0], logits[3, -1], logits[4, :1] = np.inf, np.nan, -np.inf
        probs = nets.softmax_rows(logits)
        for row, got in zip(logits, probs):
            if np.isfinite(row.max()):
                expd = np.exp(row - row.max())
                assert np.array_equal(got, expd / expd.sum())
            else:
                assert np.array_equal(got, np.full(k, 1.0 / k))

# --- distinct rows -----------------------------------------------------------------------

def assert_close(got, want):
    """Equal up to summation order: within 1e-12 of the largest magnitude."""
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestDistinctRows:
    def check(self, rows):
        # the packed corpus's one byte-keyed dedup, of its state and action rows
        distinct, row_id = _distinct_rows(rows)
        assert distinct[row_id].tobytes() == np.ascontiguousarray(rows).tobytes()
        return distinct, row_id

    def test_signed_zeros_stay_apart(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        distinct, row_id = self.check(rows)
        assert len(distinct) == 2
        assert row_id[0] == row_id[2] != row_id[1] == row_id[3]

    def test_all_equal_rows_give_one_row(self):
        distinct, row_id = self.check(np.tile([1.5, -2.0, 0.25], (50, 1)))
        assert distinct.shape == (1, 3) and not row_id.any()

    def test_no_repeated_row_keeps_every_row(self):
        rows = np.random.default_rng(0).normal(size=(40, 4))
        distinct, row_id = self.check(rows)
        assert len(distinct) == 40 and sorted(row_id) == list(range(40))

    def test_rows_that_share_a_column_prefix_are_distinct(self):
        rows = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 2.0, 3.0]])[:, ::-1]
        distinct, row_id = self.check(rows)  # a non-contiguous view
        assert len(distinct) == 2 and row_id[0] == row_id[2] != row_id[1]

    def test_plan_rows_equal_np_unique_per_batch(self):
        """Planning K batches at once gives each batch its own np.unique: its
        distinct ids ascending, back to back, and each id's position among
        them, also for one batch, empty batches and batches that share every id."""
        rng = np.random.default_rng(2)
        for n_rows, sizes in ((1, [5]), (12, [3]), (12, [300]), (361, [243]), (1, [5, 0, 2]),
                              (12, [3, 40, 1, 0]), (361, [243] * 6)):
            batches = [rng.integers(0, n_rows, size=k) for k in sizes]
            owner = np.repeat(np.arange(len(sizes)), sizes)
            present, bounds, inverse = nets.plan_rows(np.concatenate(batches), owner,
                                                      len(sizes), n_rows)
            assert bounds[0] == 0 and bounds[-1] == len(present)
            for k, ids in enumerate(batches):
                want, want_inverse = np.unique(ids, return_inverse=True)
                assert np.array_equal(present[bounds[k]:bounds[k + 1]], want)
                assert np.array_equal(inverse[owner == k], want_inverse)

    @pytest.mark.parametrize("hidden", [1, 16, 256])
    def test_distinct_row_pass_equals_the_full_row_pass(self, hidden):
        """Forwarding the distinct rows once and backpropagating each row's
        summed entry gradients gives the full-row pass up to summation order,
        on a heavily repeated table."""
        rng = np.random.default_rng(hidden)
        table = rng.normal(size=(12, 6))
        entries = rng.integers(0, 12, size=300)
        model = Mlp(6, hidden, seed=3)
        present, _, inverse = nets.plan_rows(entries, 0, 1, len(table))
        out, acts = model.forward_cached(table[present])
        want_out, want_acts = model.forward_cached(table[entries])
        assert_close(out[inverse], want_out)
        dout = rng.normal(size=want_out.shape)
        assert_close(model.backward(acts, nets.row_sums(dout, inverse, len(present))),
                     model.backward(want_acts, dout))


# --- wrong-length parameter vectors ---------------------------------------------------

@pytest.mark.parametrize("resize", [lambda p: p[:-3], lambda p: p + [0.0]],
                         ids=["truncated", "over_long"])
def test_reward_net_with_wrong_length_params_rejected(tmp_path, resize):
    path = tmp_path / "reward_net.json"
    save_reward_net(Mlp(5, 4, seed=0), path)
    obj = json.loads(path.read_text())
    obj["params"] = resize(obj["params"])
    path.write_text(json.dumps(obj))
    with pytest.raises(DimensionMismatch):
        load_reward_net(path)


def test_grouped_softmax_sums_to_one_per_group():
    scores = np.array([1.0, 2.0, -1.0, 5.0, 5.0])
    groups = np.array([0, 0, 1, 2, 2])
    probs = nets.grouped_softmax(scores, groups, 3)
    assert np.allclose(np.bincount(groups, weights=probs), 1.0)
    assert probs[2] == 1.0 and probs[3] == probs[4] == 0.5
