import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.vq import kmeans2

from oracles import fit_hmm_per_sequence, forward_backward_per_sequence, viterbi_bruteforce
from twinmdp import hmm
from twinmdp.errors import DegenerateData, DimensionMismatch
from twinmdp.hmm import (Hmm, _kmeans_pp, fit_hmm, log_emissions, log_likelihoods,
                         viterbi_decode, viterbi_step)


def random_hmm(k, d, rng):
    initial = rng.dirichlet(np.ones(k))
    transition = np.stack([rng.dirichlet(np.ones(k)) for _ in range(k)])
    means = rng.normal(0, 2, size=(k, d))
    variances = rng.uniform(0.2, 1.5, size=(k, d))
    return Hmm(initial=initial, transition=transition, means=means,
               variances=variances)


def sample_sequences(hmm, n_seqs, length, rng):
    seqs = []
    for _ in range(n_seqs):
        obs = np.empty((length, hmm.n_features))
        z = rng.choice(hmm.n_states, p=hmm.initial)
        for t in range(length):
            obs[t] = rng.normal(hmm.means[z], np.sqrt(hmm.variances[z]))
            z = rng.choice(hmm.n_states, p=hmm.transition[z])
        seqs.append(obs)
    return seqs


class TestFit:
    def test_single_state_matches_pooled_moments(self):
        rng = np.random.default_rng(0)
        seqs = [rng.normal(3.0, 2.0, size=(15, 2)) for _ in range(4)]
        model, _ = fit_hmm(seqs, 1, max_iter=10, seed=0)
        pooled = np.concatenate(seqs)
        assert model.transition == pytest.approx(np.array([[1.0]]))
        assert model.means[0] == pytest.approx(pooled.mean(axis=0), abs=1e-9)
        assert model.variances[0] == pytest.approx(pooled.var(axis=0), abs=1e-9)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            true = random_hmm(k, d, rng)
            seqs = sample_sequences(true, 5, 12, rng)
            _, trace = fit_hmm(seqs, k, max_iter=25, tol=0.0, seed=trial)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-9), f"trial {trial}: {diffs.min()}"

    def test_two_state_recovery_with_separated_means(self):
        rng = np.random.default_rng(2)
        true = Hmm(
            initial=np.array([0.6, 0.4]),
            transition=np.array([[0.8, 0.2], [0.3, 0.7]]),
            means=np.array([[0.0, 0.0], [6.0, 6.0]]),
            variances=np.ones((2, 2)),
        )
        seqs = sample_sequences(true, 200, 20, rng)
        model, _ = fit_hmm(seqs, 2, max_iter=60, seed=0)
        # states may come back permuted
        perms = [(0, 1), (1, 0)]
        err = min(
            np.max(np.abs(model.means[list(p)] - true.means)) for p in perms
        )
        assert err < 0.1

    def test_degenerate_data_rejected(self):
        seqs = [np.ones((5, 2)) for _ in range(3)]
        with pytest.raises(DegenerateData):
            fit_hmm(seqs, 2)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_hmm([np.ones((3, 2)), np.ones((3, 3))], 1)

    @pytest.mark.parametrize("field, shape", [
        ("initial", (3, 1)), ("transition", (3, 2)), ("means", (3,)), ("means", (2, 4)),
        ("means", (3, 0)), ("variances", (1, 4)), ("variances", (3, 3)),
    ])
    def test_model_shapes_checked(self, field, shape):
        k, d = 3, 4
        parts = {"initial": np.full(k, 1.0 / k), "transition": np.full((k, k), 1.0 / k),
                 "means": np.zeros((k, d)), "variances": np.ones((k, d))}
        Hmm(**parts)
        parts[field] = np.full(shape, 1.0 / shape[-1] if shape[-1] else 0.0)
        with pytest.raises(DimensionMismatch, match="HMM shapes"):
            Hmm(**parts)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        seqs = sample_sequences(random_hmm(2, 2, rng), 10, 8, rng)
        a, _ = fit_hmm(seqs, 2, max_iter=15, seed=9)
        b, _ = fit_hmm(seqs, 2, max_iter=15, seed=9)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.transition, b.transition)

    def test_variance_floor_enforced(self):
        rng = np.random.default_rng(6)
        base = rng.normal(0, 1, size=(30, 1))
        seqs = [np.concatenate([base, np.full((30, 1), 2.0)], axis=1)]
        model, _ = fit_hmm(seqs, 1, max_iter=5, seed=0)
        assert np.all(model.variances >= 1e-6)


def kmeans2_centres(data, k, rng):
    """scipy's k-means++ centres; its warnings (an empty cluster, all-zero
    seeding weights) are silenced, the replica raises none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return kmeans2(data, k, minit="++", seed=rng)[0]


def kmeans_case(seed):
    """n 5-400 points in 1-20 columns and 2-5 centres: real values,
    integer-rounded values (ties), values rounded to a few levels, or copies
    of at most k distinct points (often fewer than k, so clusters empty)."""
    rng = np.random.default_rng(seed)
    n, dim, k = int(rng.integers(5, 401)), int(rng.integers(1, 21)), int(rng.integers(2, 6))
    data = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0, size=dim)
    kind = seed % 4
    if kind == 1:
        data = np.round(data)
    elif kind == 2:
        data = np.round(data * 0.3)
    elif kind == 3:
        points = rng.normal(size=(int(rng.integers(1, k + 1)), dim))
        data = points[rng.integers(0, len(points), n)]
    return data, k


FIXED_SEQS = [np.array([[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]], dtype=float),
              np.array([[6, 6], [0, 0], [10, 0], [11, 1], [10, 1], [1, 1]], dtype=float)]


class TestKmeansPlusPlus:
    def test_equals_kmeans2_bit_for_bit(self):
        few_distinct = wide = 0
        for seed in range(320):
            data, k = kmeans_case(seed)
            want = kmeans2_centres(data, k, np.random.default_rng(seed))
            got = _kmeans_pp(data, k, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes(), seed
            few_distinct += len(np.unique(data, axis=0)) < k
            wide += data.shape[1] >= 5  # scipy's vq switches to a BLAS product
        assert few_distinct >= 30 and 100 <= wide <= 300

    def test_pinned_centres_on_integer_points(self):
        centres = _kmeans_pp(np.concatenate(FIXED_SEQS), 3, np.random.default_rng(3))
        assert centres.tolist() == [[31 / 3, 2 / 3], [0.4, 0.4], [5.5, 5.5]]

    def test_pinned_fit(self):
        model, trace = fit_hmm(FIXED_SEQS, 3, seed=3)
        np.testing.assert_allclose(model.means, [[31 / 3, 2 / 3], [0.4, 0.4], [5.5, 5.5]],
                                   rtol=1e-12)
        assert len(trace) == 5
        assert trace[-1] == pytest.approx(-26.225795838151473, rel=1e-12)

    def test_fit_equals_the_kmeans2_seeded_fit(self, monkeypatch):
        rng = np.random.default_rng(12)
        seqs = [np.round(s) for s in sample_sequences(random_hmm(3, 6, rng), 12, 10, rng)]
        model, trace = fit_hmm(seqs, 3, seed=5)
        monkeypatch.setattr(hmm, "_kmeans_pp", kmeans2_centres)
        want, want_trace = fit_hmm(seqs, 3, seed=5)
        for field in ("initial", "transition", "means", "variances"):
            assert getattr(model, field).tobytes() == getattr(want, field).tobytes(), field
        assert trace == want_trace

    def test_non_finite_observations_rejected(self):
        with pytest.raises(DegenerateData):
            fit_hmm([np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 0.0]])], 2)


class TestViterbi:
    def test_single_state_path_is_zeros(self):
        model = Hmm(
            initial=np.array([1.0]),
            transition=np.array([[1.0]]),
            means=np.zeros((1, 2)),
            variances=np.ones((1, 2)),
        )
        seq = np.random.default_rng(0).normal(size=(6, 2))
        assert viterbi_decode(model, seq) == [0] * 6

    @pytest.mark.parametrize("k,t", [(2, 6), (3, 8)])
    def test_matches_bruteforce_enumeration(self, k, t):
        rng = np.random.default_rng(100 * k + t)
        for _ in range(30):
            model = random_hmm(k, 2, rng)
            seq = rng.normal(0, 2, size=(t, 2))
            got = viterbi_decode(model, seq)
            want = viterbi_bruteforce(model.initial, model.transition,
                                      model.means, model.variances, seq)
            assert got == want

    def test_bruteforce_equivalence_many_shapes(self):
        rng = np.random.default_rng(77)
        cases = 0
        while cases < 160:
            k = int(rng.integers(1, 4))
            t = int(rng.integers(1, 9))
            model = random_hmm(k, int(rng.integers(1, 3)), rng)
            seq = rng.normal(0, 2, size=(t, model.n_features))
            got = viterbi_decode(model, seq)
            want = viterbi_bruteforce(model.initial, model.transition,
                                      model.means, model.variances, seq)
            assert got == want
            cases += 1

    def test_dimension_mismatch(self):
        model = random_hmm(2, 3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            viterbi_decode(model, np.zeros((4, 2)))


def _distribution(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum() if w.sum() > 0 else np.full(len(w), 1.0 / len(w))


@st.composite
def hmms_and_sequences(draw):
    """Small HMMs with exact ties: integer weights (zeros give -inf logs),
    possibly one shared transition row, and means and variances drawn from
    few values so that states can emit identically."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 7))
    t = draw(st.integers(1, 15))
    weight = st.sampled_from([0, 0, 1, 1, 2, 3])
    initial = _distribution(draw(st.lists(weight, min_size=k, max_size=k)))
    rows = draw(st.integers(1, k))  # rows beyond these repeat the first
    drawn = [_distribution(draw(st.lists(weight, min_size=k, max_size=k)))
             for _ in range(rows)]
    transition = np.stack(drawn + [drawn[0]] * (k - rows))
    value = st.sampled_from([-1.0, 0.0, 0.5, 2.0])
    means = np.array(draw(st.lists(value, min_size=k * d, max_size=k * d))).reshape(k, d)
    variances = np.array(draw(st.lists(st.sampled_from([0.5, 1.0]), min_size=k * d,
                                       max_size=k * d))).reshape(k, d)
    obs = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=t * d,
                                 max_size=t * d))).reshape(t, d)
    hmm = Hmm(initial=initial, transition=transition, means=means, variances=variances)
    return hmm, obs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hmms_and_sequences())
def test_carried_viterbi_state_matches_decoding_every_prefix(case):
    hmm, obs = case
    def log_emis(o):
        return log_emissions(hmm.means, hmm.variances, o)

    delta = hmm.log_initial + log_emis(obs[0])
    for t in range(len(obs)):
        if t:
            delta, _ = viterbi_step(delta, hmm.log_transition, log_emis(obs[t]))
        assert int(np.argmax(delta)) == viterbi_decode(hmm, obs[: t + 1])[-1]
    # one observation's row is its row of the whole-sequence call, bit for bit
    rows = log_emis(obs)
    assert all(log_emis(o).tobytes() == row.tobytes() for o, row in zip(obs, rows))


def test_log_likelihoods_match_trace():
    rng = np.random.default_rng(8)
    true = random_hmm(2, 2, rng)
    seqs = sample_sequences(true, 6, 10, rng)
    model, trace = fit_hmm(seqs, 2, max_iter=1, tol=0.0, seed=0)
    # trace[0] is the likelihood under the k-means initialization, evaluated
    # before the first M-step; recompute it against the initial parameters
    model2, trace2 = fit_hmm(seqs, 2, max_iter=2, tol=0.0, seed=0)
    total = sum(log_likelihoods(model, seqs).tolist())
    assert total == pytest.approx(trace2[1], abs=1e-9)


@st.composite
def fit_cases(draw):
    """1-12 sequences of mixed lengths 1-9 in drawn order, 1-8 columns (from
    5 columns ``_kmeans_pp`` measures with a BLAS product) and 1-5 states:
    real values, values rounded to integers or to a few levels, or copies of
    a few sequences."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = [rng.normal(size=(t, d)) * rng.uniform(0.1, 5.0, size=d) for t in lengths]
    kind = draw(st.sampled_from(["real", "integers", "levels", "copies"]))
    if kind == "integers":
        seqs = [np.round(s) for s in seqs]
    elif kind == "levels":
        seqs = [np.round(s * 0.3) for s in seqs]
    elif kind == "copies":
        few = seqs[:draw(st.integers(1, len(seqs)))]
        seqs = [few[i] for i in draw(st.lists(st.integers(0, len(few) - 1),
                                               min_size=1, max_size=12))]
    return (seqs, k, draw(st.integers(1, 30)), draw(st.sampled_from([0.0, 1e-6])),
            draw(st.integers(0, 99)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fit_cases())
def test_grouped_fit_equals_the_per_sequence_fit_bit_for_bit(case):
    seqs, k, max_iter, tol, seed = case
    pooled = np.concatenate(seqs)
    if k > 1 and np.allclose(pooled, pooled[0]):
        with pytest.raises(DegenerateData):
            fit_hmm(seqs, k, max_iter=max_iter, tol=tol, seed=seed)
        return
    model, trace = fit_hmm(seqs, k, max_iter=max_iter, tol=tol, seed=seed)
    want, want_trace = fit_hmm_per_sequence(seqs, k, max_iter=max_iter, tol=tol, seed=seed)
    for field, value in zip(("initial", "transition", "means", "variances"), want):
        assert getattr(model, field).tobytes() == value.tobytes(), field
    assert trace == want_trace
    params = (model.initial, model.transition, model.means, model.variances)
    scores = [forward_backward_per_sequence(*params, s)[2] for s in seqs]
    assert log_likelihoods(model, seqs).tolist() == scores


def test_empty_sequence_has_no_likelihood():
    model = random_hmm(2, 3, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        log_likelihoods(model, [np.zeros((0, 3))])
    with pytest.raises(DimensionMismatch):
        log_likelihoods(model, [np.zeros((2, 3)), np.zeros((0, 3))])
    with pytest.raises(DimensionMismatch):
        log_likelihoods(model, [np.zeros((4, 2))])
