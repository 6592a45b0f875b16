import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, studentized_range, ttest_rel

from oracles import pass_at_3_enumerated, t_sf_mp
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
from twinmdp.stats import _midranks, _t_two_sided, _ttest_rel


def trials(successes, f1s=None):
    f1s = f1s if f1s is not None else [float(s) for s in successes]
    return [TrialRecord(success=s, f1=f) for s, f in zip(successes, f1s)]


def random_table(rng, n_scenarios, low=3, high=12):
    """Scenarios of ``low`` to ``high`` trials with 0/1 successes and F1 values
    with full mantissas."""
    table = {}
    for s in range(n_scenarios):
        n = int(rng.integers(low, high + 1))
        table[f"scn-{s:02d}"] = trials(rng.integers(0, 2, n).tolist(), rng.random(n).tolist())
    return table


class TestPassAt3:
    def test_all_successful_gives_one(self):
        table = {"a": trials([1] * 5), "b": trials([1] * 7)}
        res = pass_at_3_bootstrap(table)
        assert res.recall_mean == 1.0 and res.recall_std == 0.0
        assert res.scenario_recalls == (1.0, 1.0)

    def test_constant_f1_has_zero_spread(self):
        table = {"a": trials([0, 1, 0, 1], f1s=[0.3] * 4), "b": trials([0] * 3, f1s=[0.3] * 3)}
        res = pass_at_3_bootstrap(table)
        assert res.f1_mean == 0.3
        assert res.f1_std == 0.0

    @pytest.mark.parametrize("n,c", [(3, 0), (3, 1), (5, 2), (7, 6), (15, 9), (10000, 4013)])
    def test_success_closed_form(self, n, c):
        # E[best of 3 draws with replacement] = 1 - (1 - c/n)^3, in any order
        outcomes = np.random.default_rng(n).permutation([1] * c + [0] * (n - c)).tolist()
        res = pass_at_3_bootstrap({"only": trials(outcomes)})
        assert res.recall_mean == pytest.approx(1 - (1 - c / n) ** 3, rel=1e-14, abs=1e-15)
        assert res.recall_std == pytest.approx(np.sqrt(res.recall_mean * (1 - res.recall_mean)),
                                               rel=1e-12, abs=1e-15)

    def test_requires_three_trials(self):
        with pytest.raises(TooFewTrials):
            pass_at_3_bootstrap({"a": trials([1, 1, 0]), "b": trials([1, 0])})
        with pytest.raises(TooFewTrials):
            pass_at_3_bootstrap({})

    def test_monotone_in_single_trial_improvement(self):
        base = [0, 0, 1, 0, 0]
        better = [0, 1, 1, 0, 0]
        r_base = pass_at_3_bootstrap({"a": trials(base)})
        r_better = pass_at_3_bootstrap({"a": trials(better)})
        assert r_better.recall_mean > r_base.recall_mean

    @pytest.mark.parametrize("n_scenarios", [1, 2, 30])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_equals_the_enumeration_oracle(self, n_scenarios, seed):
        # unequal trial counts (3 to 12), F1 values with full mantissas
        table = random_table(np.random.default_rng(seed * 100 + n_scenarios), n_scenarios)
        res = pass_at_3_bootstrap(table)
        *want, want_scenarios = pass_at_3_enumerated(table)
        np.testing.assert_allclose(
            [res.recall_mean, res.recall_std, res.f1_mean, res.f1_std], want, rtol=1e-12)
        np.testing.assert_allclose(res.scenario_recalls, want_scenarios, rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n_scenarios=st.integers(1, 8),
           scale=st.sampled_from([1.0, 1e-300, 1 - 2**-52]))
    def test_every_mean_lies_in_the_unit_interval(self, seed, n_scenarios, scale):
        rng = np.random.default_rng(seed)
        table = {s: [TrialRecord(t.success, t.f1 * scale) for t in ts]
                 for s, ts in random_table(rng, n_scenarios, high=40).items()}
        res = pass_at_3_bootstrap(table)
        for mean in (res.recall_mean, res.f1_mean, *res.scenario_recalls):
            assert 0.0 <= mean <= 1.0
        assert np.isfinite([res.recall_std, res.f1_std]).all()
        assert res.recall_std >= 0.0 and res.f1_std >= 0.0

    def test_insertion_order_does_not_matter(self):
        table = {"b": trials([0, 1, 1, 0], [0.1, 0.7, 0.3, 0.9]),
                 "a": trials([1, 0, 0], [0.2, 0.4, 0.8])}
        reordered = {s: list(reversed(ts)) for s, ts in reversed(list(table.items()))}
        res = pass_at_3_bootstrap(table)
        assert res == pass_at_3_bootstrap(reordered)
        assert res.scenario_recalls[0] == pass_at_3_bootstrap({"a": table["a"]}).recall_mean

    def test_equal_success_counts_tie_in_the_ranks(self):
        # two successes in five trials, in different orders, tie exactly and
        # share the mid-rank
        methods = {"x": {"s": trials([1, 0, 1, 0, 0])}, "y": {"s": trials([0, 0, 1, 1, 0])},
                   "z": {"s": trials([1, 0, 0, 0, 0])}}
        scores = np.asarray([pass_at_3_bootstrap(t).scenario_recalls for t in methods.values()])
        assert scores[0, 0] == scores[1, 0] > scores[2, 0]
        assert ranks_from_scores(scores)[:, 0].tolist() == [1.5, 1.5, 3.0]


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

    def test_nan_p_raw_is_not_adjusted_to_one(self):
        res = paired_t_bonferroni([.1, .2, .3, .4], {"m": [.2, np.nan, .5, .4]})["m"]
        assert np.isnan(res.p_raw) and np.isnan(res.p_adjusted)
        assert res.significant is False

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            paired_t_bonferroni(np.array([1.0, 2.0]), {"m": np.array([1.0])})
        with pytest.raises(LengthMismatch):
            paired_t_bonferroni(np.array([1.0]), {})


class TestTTail:
    """The closed-form two-sided t tail against the incomplete beta at 50
    digits."""

    def test_within_1e13_of_mpmath(self):
        ts = np.concatenate([np.logspace(-3, 3, 31), [1.5, 2.5, 3.5, 5.0, 8.7, 15.0]])
        worst = 0.0
        for df in range(1, 201):
            for t in ts:
                want = t_sf_mp(float(t), df)
                if want > 1e-300:
                    got = _t_two_sided(float(t), df)
                    worst = max(worst, abs(got - want) / want)
        assert worst <= 1e-13

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 199])
    def test_zero_gives_one_and_the_sign_does_not_matter(self, df):
        assert _t_two_sided(0.0, df) == 1.0
        assert _t_two_sided(-2.5, df) == _t_two_sided(2.5, df)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 7.0, 1e3, 1e200])
    def test_one_degree_of_freedom_is_the_cauchy_law(self, t):
        assert _t_two_sided(t, 1) == pytest.approx(2 / np.pi * np.arctan(1 / t), rel=1e-14)

    def test_nan_and_infinity(self):
        assert np.isnan(_t_two_sided(float("nan"), 5))
        assert _t_two_sided(float("inf"), 5) == 0.0
        assert _t_two_sided(1e200, 4) == 0.0  # t * t overflows


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
