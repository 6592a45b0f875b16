"""The seed sweep's summary on a synthetic three-seed record (no runs)."""

import importlib.util
from pathlib import Path

import pytest
from scipy import stats

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "scripts" / "seed_sweep.py")
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)

ARM, RIVAL, PRUNE = "rl_irl+prioritize", "bc+prioritize", "rl_irl+prune"


def run(seed, gain, *, significant=True, p_adjusted=0.01, t_stat=4.0, rank=2.0,
        rival_rank=3.0, explored=5.0, sha="a", elapsed=10.0,
        ranking=("rl_irl", "rl_sparse", "bc"), artifacts=None):
    """A successful run whose baseline recalls 0.5 and explores 6 entities;
    ``gain`` is the prioritize arm's, the other arms gain nothing. The arm's
    ``p_raw`` is a third of ``p_adjusted``. ``ranking`` is the offline
    order, best first; ``rl_sparse`` has no arm."""
    def method(recall, **extra):
        return {"pass3_recall_mean": recall, "significant": False, "t_stat": 0.0,
                "p_raw": 1.0, "p_adjusted": 1.0, "avg_rank": 3.5,
                "mean_entities_explored": 6.0, **extra}
    return {"seed": seed, "ok": True, "returncode": 0, "elapsed_s": elapsed,
            "report_sha256": sha, "ranking": list(ranking),
            "artifacts_sha256": artifacts or {"report.json": sha}, "methods": {
                "baseline": method(0.5),
                ARM: method(0.5 + gain, significant=significant, t_stat=t_stat,
                            p_raw=p_adjusted / 3, p_adjusted=p_adjusted, avg_rank=rank),
                RIVAL: method(0.5, avg_rank=rival_rank),
                PRUNE: method(0.5, mean_entities_explored=explored),
            }}


def failed(seed):
    return {"seed": seed, "ok": False, "returncode": 1, "elapsed_s": 1.0, "error": "boom"}


PARENT = [run(1, 0.2), run(2, 0.1, rank=3.5), run(3, 0.3, significant=False, explored=7.0)]


def test_summary_of_one_tree():
    summary = seed_sweep.summarize(PARENT)
    gain = summary["arms"][ARM]["gain"]
    half = stats.t.ppf(0.975, 2) * 0.1 / 3 ** 0.5  # gains 0.2, 0.1, 0.3: sd 0.1
    assert gain["mean"] == pytest.approx(0.2)
    assert gain["ci95"] == pytest.approx([0.2 - half, 0.2 + half])
    assert summary["arms"][ARM]["mean_recall"] == pytest.approx(0.7)
    assert summary["baseline_mean_recall"] == 0.5
    assert summary["arms"][ARM]["seeds_gain_above_0"] == [1, 2, 3]
    assert summary["arms"][ARM]["seeds_significant_better"] == [1, 2]
    assert summary["arms"][RIVAL]["gain"]["ci95"] == [0.0, 0.0]
    assert summary["arms"][RIVAL]["seeds_gain_above_0"] == []
    assert summary["c08_seeds"] == [1]  # seed 2 ranks behind BC, seed 3 is not significant
    assert summary["c09_seeds"] == [1, 2]  # seed 3's pruned arm explores more
    assert summary["seeds_failed"] == []


def test_a_significant_loss_and_a_slow_run():
    summary = seed_sweep.summarize([run(1, -0.2), run(2, 0.2, elapsed=700.0)])
    assert summary["arms"][ARM]["seeds_significant_worse"] == [1]
    assert summary["arms"][ARM]["seeds_significant_better"] == [2]
    assert summary["c08_seeds"] == []


def test_a_failed_run_is_recorded_and_left_out():
    summary = seed_sweep.summarize([PARENT[0], failed(2), PARENT[2]])
    assert summary["seeds_ok"] == [1, 3]
    assert summary["seeds_failed"] == [2]
    assert summary["arms"][ARM]["gain"]["mean"] == pytest.approx(0.25)
    assert summary["arms"][ARM]["gain"]["n"] == 2


def test_paired_change_over_the_seeds_both_trees_ran():
    change = [run(1, 0.2), run(2, 0.15, sha="b"), failed(3)]
    out = seed_sweep.paired(PARENT, change)
    assert out["seeds"] == [1, 2]
    assert out["seeds_report_identical"] == [1]
    delta = out["arms"][ARM]
    assert delta["change_in_gain"]["mean"] == pytest.approx(0.025)
    assert delta["max_abs_change"] == pytest.approx(0.05)
    assert delta["seeds_recall_identical"] == [1]
    assert out["arms"][RIVAL]["seeds_recall_identical"] == [1, 2]
    assert out["artifacts_changed"] == {"report.json": [2]}


def test_changed_artifacts_name_each_file_and_its_seeds():
    parent = [run(s, 0.2, artifacts={"ranking.json": "r", "report.json": "a"})
              for s in (1, 2, 3)]
    change = [run(1, 0.2, artifacts={"ranking.json": "r2", "report.json": "a"}),
              run(2, 0.2, artifacts={"ranking.json": "r", "report.json": "a"}),
              run(3, 0.2, artifacts={"ranking.json": "r2", "report.json": "a",
                                     "extra.json": "x"})]
    out = seed_sweep.paired(parent, change)
    assert out["artifacts_changed"] == {"extra.json": [3], "ranking.json": [1, 3]}
    assert out["seeds_report_identical"] == [1, 2, 3]


def test_report_fields_name_the_seeds_that_differ_and_the_largest_change():
    parent = [run(1, 0.2, p_adjusted=0.03), run(2, 0.2, p_adjusted=0.04),
              run(3, 0.2, t_stat=float("inf"))]
    change = [run(1, 0.2, p_adjusted=0.03 * (1 + 2e-15)),
              run(2, 0.2, p_adjusted=0.06, significant=False, t_stat=3.0),
              run(3, 0.2, t_stat=float("inf"))]
    out = seed_sweep.paired(parent, change)
    fields = out["report_fields"]
    assert list(fields) == list(seed_sweep.KEPT)
    assert fields["p_adjusted"]["seeds_differ"] == [1, 2]
    assert fields["p_adjusted"]["max_rel_change"] == pytest.approx(0.5)
    assert fields["p_raw"]["seeds_differ"] == [1, 2]
    assert fields["t_stat"] == {"seeds_differ": [2], "max_rel_change": 0.25}
    assert fields["significant"] == {"seeds_differ": [2], "max_rel_change": None}
    assert fields["pass3_recall_mean"] == {"seeds_differ": [], "max_rel_change": 0.0}
    assert out["seeds_significance_changed"] == [2]


def test_relative_change_of_edge_values():
    rel = seed_sweep.relative_change
    assert rel(float("nan"), float("nan")) == 0.0
    assert rel(float("inf"), float("inf")) == 0.0
    assert rel(0.0, 1e-300) == float("inf")
    assert rel(2.0, float("inf")) == float("inf")
    assert rel(4.0, 3.0) == 0.25
    assert rel(True, False) is None and rel(1.0, None) is None


def test_ranking_fidelity_per_seed_and_its_means():
    # offline order rl_irl, bc; closed-loop recall rl_irl 0.5 + gain, bc 0.5
    runs = [run(1, 0.2), run(2, -0.1), run(3, 0.0, ranking=("bc", "rl_irl"))]
    fidelity = seed_sweep.summarize(runs)["ranking_fidelity"]
    one, two, three = fidelity["per_seed"]
    assert one == {"seed": 1, "policies": ["rl_irl", "bc"], "spearman": pytest.approx(1.0),
                   "kendall": pytest.approx(1.0), "regret_at_1": 0.0}
    assert (two["spearman"], two["kendall"]) == pytest.approx((-1.0, -1.0))
    assert two["regret_at_1"] == pytest.approx(0.1)  # bc recalls 0.5, rl_irl 0.4
    # equal recalls: no correlation, and the top pick loses nothing
    assert three == {"seed": 3, "policies": ["bc", "rl_irl"], "spearman": None,
                     "kendall": None, "regret_at_1": 0.0}
    assert fidelity["spearman_mean"] == pytest.approx(0.0)
    assert fidelity["kendall_mean"] == pytest.approx(0.0)
    assert fidelity["regret_at_1_mean"] == pytest.approx(0.1 / 3)
    assert fidelity["seeds_top_pick_best"] == [1, 3]


def test_ranking_fidelity_of_three_policies():
    methods = {f"{pid}+prioritize": {"pass3_recall_mean": r}
               for pid, r in (("a", 0.7), ("b", 0.6), ("c", 0.5))}
    out = seed_sweep.ranking_fidelity(["b", "a", "c"], methods)
    assert out["spearman"] == pytest.approx(0.5)  # rank differences 1, 1, 0
    assert out["kendall"] == pytest.approx(1 / 3)  # 2 concordant pairs, 1 discordant
    assert out["regret_at_1"] == pytest.approx(0.1)
    assert seed_sweep.ranking_fidelity(["a", "z"], methods)["spearman"] is None


def test_one_value_has_no_interval():
    assert seed_sweep.interval([0.3]) == {"mean": 0.3, "ci95": None, "n": 1}
    assert seed_sweep.interval([]) == {"mean": None, "ci95": None, "n": 0}


@pytest.mark.parametrize("text, seeds", [("1-10", list(range(1, 11))), ("3,7", [3, 7])])
def test_seed_lists(text, seeds):
    assert seed_sweep.parse_seeds(text) == seeds
