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


def run(seed, gain, *, significant=True, p_adjusted=0.01, rank=2.0, rival_rank=3.0,
        explored=5.0, sha="a", elapsed=10.0, ranking=("rl_irl", "rl_sparse", "bc")):
    """A successful run whose baseline recalls 0.5 and explores 6 entities;
    ``gain`` is the prioritize arm's, the other arms gain nothing. ``ranking``
    is the offline order, best first; ``rl_sparse`` has no arm."""
    def method(recall, **extra):
        return {"pass3_recall_mean": recall, "significant": False, "p_adjusted": 1.0,
                "avg_rank": 3.5, "mean_entities_explored": 6.0, **extra}
    return {"seed": seed, "ok": True, "returncode": 0, "elapsed_s": elapsed,
            "report_sha256": sha, "ranking": list(ranking), "methods": {
                "baseline": method(0.5),
                ARM: method(0.5 + gain, significant=significant, p_adjusted=p_adjusted,
                            avg_rank=rank),
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
