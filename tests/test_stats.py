import numpy as np
import pytest
from scipy.stats import rankdata, studentized_range, ttest_rel

from oracles import pass_at_3_bootstrap_loop, t_sf_mp
from twinmdp.errors import BadRanks, LengthMismatch, TooFewTrials, UnsupportedK
from twinmdp.stats import (
    NEMENYI_Q,
    TrialRecord,
    nemenyi_cd,
    paired_t_bonferroni,
    pass_at_3_bootstrap,
    ranks_from_scores,
    render_cd_diagram,
)
from twinmdp.stats import _midranks, _ttest_rel


def trials(successes, f1s=None):
    f1s = f1s if f1s is not None else [float(s) for s in successes]
    return [TrialRecord(success=s, f1=f) for s, f in zip(successes, f1s)]


class TestPassAt3:
    def test_all_successful_gives_one(self):
        table = {"a": trials([1] * 5), "b": trials([1] * 5)}
        res = pass_at_3_bootstrap(table, n_boot=50, seed=0)
        assert res.recall_mean == 1.0
        assert res.recall_std == 0.0

    def test_constant_f1_has_zero_spread(self):
        table = {"a": trials([0, 1, 0, 1], f1s=[0.5] * 4)}
        res = pass_at_3_bootstrap(table, n_boot=100, seed=0)
        assert res.f1_mean == 0.5
        assert res.f1_std == 0.0

    def test_bernoulli_closed_form(self):
        # single scenario, i.i.d. success probability 0.4:
        # E[best-of-3] = 1 - (1 - 0.4)^3 = 0.784
        rng = np.random.default_rng(0)
        outcomes = (rng.random(10000) < 0.4).astype(int).tolist()
        res = pass_at_3_bootstrap({"only": trials(outcomes)}, n_boot=2000, seed=1)
        assert abs(res.recall_mean - 0.784) < 0.02

    def test_requires_three_trials(self):
        with pytest.raises(TooFewTrials):
            pass_at_3_bootstrap({"a": trials([1, 0])}, n_boot=10, seed=0)
        with pytest.raises(TooFewTrials):
            pass_at_3_bootstrap({}, n_boot=10, seed=0)

    def test_deterministic_given_seed(self):
        table = {"a": trials([0, 1, 0, 0, 1]), "b": trials([1, 0, 0, 1, 1])}
        r1 = pass_at_3_bootstrap(table, n_boot=100, seed=5)
        r2 = pass_at_3_bootstrap(table, n_boot=100, seed=5)
        assert r1 == r2

    def test_monotone_in_single_trial_improvement(self):
        base = [0, 0, 1, 0, 0]
        better = [0, 1, 1, 0, 0]
        r_base = pass_at_3_bootstrap({"a": trials(base)}, n_boot=300, seed=9)
        r_better = pass_at_3_bootstrap({"a": trials(better)}, n_boot=300, seed=9)
        assert r_better.recall_mean >= r_base.recall_mean


    @pytest.mark.parametrize("n_scenarios,n_boot", [(1, 1), (1, 200), (30, 1), (30, 200)])
    @pytest.mark.parametrize("seed", [0, 7, 2**62 + 11])
    def test_equals_the_loop_oracle(self, n_scenarios, n_boot, seed):
        # unequal trial counts (3 to 20) and F1 values with full mantissas, so
        # any change in draw order or summation order shows in the low bits
        rng = np.random.default_rng(seed % 1000 + n_scenarios)
        table = {}
        for s in range(n_scenarios):
            n = int(rng.integers(3, 21))
            table[f"scn-{s:02d}"] = trials(rng.integers(0, 2, n).tolist(),
                                           rng.random(n).tolist())
        res = pass_at_3_bootstrap(table, n_boot=n_boot, seed=seed)
        expected = pass_at_3_bootstrap_loop(table, n_boot=n_boot, seed=seed)
        assert (res.recall_mean, res.recall_std, res.f1_mean, res.f1_std) == expected

    def test_scenarios_are_drawn_in_sorted_order(self):
        # insertion order must not matter: the draws follow sorted scenario ids
        table = {"b": trials([0, 1, 1, 0], [0.1, 0.7, 0.3, 0.9]),
                 "a": trials([1, 0, 0], [0.2, 0.4, 0.8])}
        reordered = dict(reversed(list(table.items())))
        res = pass_at_3_bootstrap(table, n_boot=200, seed=4)
        assert res == pass_at_3_bootstrap(reordered, n_boot=200, seed=4)
        assert (res.recall_mean, res.recall_std, res.f1_mean, res.f1_std) == \
            pass_at_3_bootstrap_loop(table, n_boot=200, seed=4)


class TestPairedT:
    def test_identical_method_not_significant(self):
        base = np.array([0.4, 0.5, 0.6, 0.7])
        out = paired_t_bonferroni(base, {"same": base.copy()})
        assert out["same"].p_raw == 1.0
        assert not out["same"].significant

    def test_constant_shift_is_reported_below_1e12(self):
        base = np.zeros(5)
        out = paired_t_bonferroni(base, {"up": np.ones(5)})
        assert out["up"].p_raw < 1e-12
        assert out["up"].significant
        assert out["up"].t_stat == np.inf
        # near-constant shifts with float rounding still come out significant
        noisy = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        out2 = paired_t_bonferroni(noisy, {"up": noisy + 1.0})
        assert out2["up"].p_raw < 1e-12
        assert out2["up"].significant

    def test_matches_t_cdf_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            base = rng.normal(size=10)
            method = base + rng.normal(0.3, 1.0, size=10)
            out = paired_t_bonferroni(base, {"m": method})
            diffs = method - base
            t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
            want = t_sf_mp(float(t), len(diffs) - 1)
            assert out["m"].p_raw == pytest.approx(want, abs=1e-6)

    def test_bonferroni_scales_with_method_count(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=8)
        methods = {f"m{i}": base + rng.normal(0.5, 0.4, size=8) for i in range(4)}
        out = paired_t_bonferroni(base, methods)
        for res in out.values():
            assert res.p_adjusted == pytest.approx(min(1.0, 4 * res.p_raw))
            assert res.p_adjusted >= res.p_raw

    @pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
    def test_replica_matches_scipy_ttest_rel(self):
        # Tolerance fixed before the sweep: rtol 1e-12. The replica copies
        # scipy's operation order and is exact against scipy 1.17.1; a later
        # scipy may reorder its own arithmetic by an ulp or two.
        rng = np.random.default_rng(18)
        compared = 0
        for case in range(2400):
            n = int(rng.integers(2, 60))
            kind = case % 4
            if kind == 0:  # uniform values
                a, b = rng.random(n), rng.random(n)
            elif kind == 1:  # fifteenths, like recall over 15 trials
                a, b = rng.integers(0, 16, n) / 15, rng.integers(0, 16, n) / 15
            elif kind == 2:  # near-ties: a constant shift plus tiny noise
                b = rng.random(n)
                a = b + 0.3 + rng.normal(0.0, 1e-9, n)
            else:  # large magnitudes
                a, b = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n)
            diffs = a - b
            if np.ptp(diffs) == 0.0:  # paired_t_bonferroni never sends these
                continue
            want = ttest_rel(a, b)
            t_stat, p_raw = _ttest_rel(diffs)
            np.testing.assert_allclose(t_stat, want.statistic, rtol=1e-12, atol=0)
            np.testing.assert_allclose(p_raw, want.pvalue, rtol=1e-12, atol=0)
            compared += 1
        assert compared >= 2000

    def test_nan_differences_give_nan(self):
        base = np.array([0.1, 0.2, 0.3, 0.4])
        method = np.array([0.2, np.nan, 0.5, 0.4])
        assert np.isnan(ttest_rel(method, base).pvalue)  # scipy's own answer
        res = paired_t_bonferroni(base, {"m": method})["m"]
        assert np.isnan(res.t_stat) and np.isnan(res.p_raw)
        assert not res.significant

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            paired_t_bonferroni(np.array([1.0, 2.0]), {"m": np.array([1.0])})
        with pytest.raises(LengthMismatch):
            paired_t_bonferroni(np.array([1.0]), {})


class TestNemenyi:
    def test_clean_sweep_two_methods(self):
        # one method wins all 20 scenarios: ranks 1 vs 2
        ranks = np.vstack([np.ones(20), np.full(20, 2.0)])
        res = nemenyi_cd(ranks, ["winner", "loser"], alpha=0.05)
        assert res.avg_ranks.tolist() == [1.0, 2.0]
        assert res.cd == pytest.approx(0.43826127374523977, abs=1e-9)
        assert res.groups == (("winner",), ("loser",))

    def test_all_tied_single_group(self):
        k, n = 4, 6
        ranks = np.full((k, n), (k + 1) / 2)
        res = nemenyi_cd(ranks, list("abcd"), alpha=0.05)
        assert np.allclose(res.avg_ranks, 2.5)
        assert res.groups == (("a", "b", "c", "d"),)
        assert res.cd == pytest.approx(1.9148433961240798, abs=1e-9)

    def test_cd_scales_inverse_sqrt_n(self):
        ranks_n = np.vstack([np.ones(10), np.full(10, 2.0)])
        ranks_2n = np.vstack([np.ones(20), np.full(20, 2.0)])
        cd_n = nemenyi_cd(ranks_n, ["a", "b"]).cd
        cd_2n = nemenyi_cd(ranks_2n, ["a", "b"]).cd
        assert cd_n / cd_2n == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_unsupported_k(self):
        ranks = np.tile(np.arange(1, 12)[:, None], (1, 3)).astype(float)
        with pytest.raises(UnsupportedK):
            nemenyi_cd(ranks, [f"m{i}" for i in range(11)])

    def test_bad_rank_rows_rejected(self):
        ranks = np.array([[1.0, 1.0], [1.5, 2.0]])
        with pytest.raises(BadRanks):
            nemenyi_cd(ranks, ["a", "b"])

    def test_q_table_matches_studentized_range(self):
        for alpha, table in NEMENYI_Q.items():
            for k, q in table.items():
                want = studentized_range.ppf(1 - alpha, k, np.inf) / np.sqrt(2)
                assert q == pytest.approx(want, abs=2e-6)

    def test_mid_rank_ties_from_scores(self):
        scores = np.array([
            [0.9, 0.5],
            [0.9, 0.7],
            [0.1, 0.7],
        ])
        ranks = ranks_from_scores(scores, higher_better=True)
        assert ranks[:, 0].tolist() == [1.5, 1.5, 3.0]
        assert ranks[:, 1].tolist() == [3.0, 1.5, 1.5]
        assert np.allclose(ranks.sum(axis=0), 6.0)

    @pytest.mark.parametrize("vals", [
        [0.5] * 7,  # all tied
        [0.3, -1.0, 2.5, 0.0, 7.0],  # no ties
        [-0.0, 0.0, 1.0],  # signed zeros are equal
    ])
    def test_midranks_equal_rankdata_on_edge_columns(self, vals):
        vals = np.asarray(vals)
        assert _midranks(vals).tolist() == rankdata(vals, method="average").tolist()

    def test_midranks_equal_rankdata_on_tied_columns(self):
        rng = np.random.default_rng(18)
        for _ in range(2000):
            k = int(rng.integers(2, 11))
            vals = rng.integers(0, k, k) / 15  # few distinct values: many ties
            assert _midranks(vals).tolist() == rankdata(vals, method="average").tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_name_their_column(self, bad):
        scores = np.array([[0.9, 0.5, 0.2], [0.4, bad, 0.3]])
        with pytest.raises(BadRanks, match="scenario column 1"):
            ranks_from_scores(scores)

    def test_render_lists_all_methods(self):
        ranks = np.vstack([np.ones(5), np.full(5, 2.0), np.full(5, 3.0)])
        res = nemenyi_cd(ranks, ["first", "second", "third"])
        text = render_cd_diagram(res)
        for name in ("first", "second", "third"):
            assert name in text
        assert "critical difference" in text
