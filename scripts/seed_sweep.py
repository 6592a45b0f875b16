"""Run ``twinmdp reproduce`` over master seeds and summarise each arm's gain.

One source tree gives, per workload and arm, the mean pass@3 recall over the
seeds, the mean gain over the baseline with its 95% t-interval, the seeds
where the gain is above 0 and where the paired Bonferroni test calls it
significant, and the seeds where criteria C08 and C09 hold (as defined in
``tests/criteria.py``, which the acceptance test also uses). It also gives,
per seed and as means, how well the offline order in ``ranking.json``
predicts each policy's closed-loop recall under ``prioritize``: Spearman rho,
Kendall tau and regret@1. Two trees (a parent, then a change) add each arm's
paired per-seed change in gain, with its interval, the seeds whose
``report.json`` bytes match, each artifact whose bytes differ between the
trees, with the seeds where they do, and for each kept report field the
seeds where some arm's value differs and the largest relative change.

    python scripts/seed_sweep.py --workloads demo --out sweep.json TREE
    python scripts/seed_sweep.py --workloads demo closed_loop tabular \\
        --seeds 1-10 --out SWEEP.json PARENT_TREE CHANGE_TREE

Each run is ``python -m twinmdp.cli reproduce`` in a fresh process, with the
tree's ``src`` on ``PYTHONPATH``, and at most as many run at a time as the
host has CPUs. The configs are ``perfbench.workloads.make_config`` of
each tree's ``configs/demo.yaml``. A run that fails is recorded with its exit
code and is left out of the means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from scipy import stats

ROOT = Path(__file__).resolve().parents[1]
KEPT = ("pass3_recall_mean", "significant", "t_stat", "p_raw", "p_adjusted",
        "avg_rank", "mean_entities_explored")


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


criteria = load_module("criteria", ROOT / "tests" / "criteria.py")
BASELINE = criteria.BASELINE


def source_sha256(tree: Path) -> str:
    """One hash of the tree's ``src`` Python files, paths and bytes."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_one(tree: Path, config: dict, out: Path) -> dict:
    """One ``reproduce`` in a new process; the report's kept fields or the failure."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "twinmdp.cli", "reproduce", "--config",
         str(out / "config.json"), "--out", str(out / "artifacts")],
        env=env, capture_output=True, text=True)
    record = {"seed": config["master_seed"], "returncode": proc.returncode,
              "elapsed_s": round(time.monotonic() - start, 2)}
    report = out / "artifacts" / "report.json"
    if proc.returncode != 0 or not report.exists():
        return {**record, "ok": False, "error": proc.stderr.strip()[-500:]}
    data = report.read_bytes()
    methods = json.loads(data)["methods"]
    ranking = json.loads((out / "artifacts" / "ranking.json").read_text())["ranking"]
    files = sorted(p for p in (out / "artifacts").iterdir() if p.is_file())
    return {**record, "ok": True, "report_sha256": hashlib.sha256(data).hexdigest(),
            "artifacts_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                 for p in files},
            "methods": {m: {k: v[k] for k in KEPT if k in v} for m, v in methods.items()},
            "ranking": [e["id"] for e in sorted(ranking, key=lambda e: e["rank"])]}


def interval(values) -> dict:
    """Mean and two-sided 95% t-interval (None below two values)."""
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return {"mean": None, "ci95": None, "n": 0}
    mean = float(values.mean())
    if len(values) < 2:
        return {"mean": mean, "ci95": None, "n": 1}
    half = stats.t.ppf(0.975, len(values) - 1) * values.std(ddof=1) / np.sqrt(len(values))
    return {"mean": mean, "ci95": [mean - float(half), mean + float(half)], "n": len(values)}


def gain(run: dict, arm: str) -> float:
    methods = run["methods"]
    return methods[arm]["pass3_recall_mean"] - methods[BASELINE]["pass3_recall_mean"]


def ranking_fidelity(ranking: list[str], methods: dict) -> dict:
    """How well the offline order (best first) predicts each policy's
    closed-loop recall under ``prioritize``, in the metrics of Fu et al. 2021:
    Spearman rho and Kendall tau (None when the recalls are all equal) and
    regret@1, the recall lost by deploying the offline top pick instead of the
    closed-loop best. Policies without a ``prioritize`` arm are left out."""
    pids = [pid for pid in ranking if f"{pid}+prioritize" in methods]
    if len(pids) < 2:
        return {"policies": pids, "spearman": None, "kendall": None, "regret_at_1": None}
    recall = np.array([methods[f"{pid}+prioritize"]["pass3_recall_mean"] for pid in pids])
    offline = -np.arange(len(pids), dtype=float)  # the top pick scores highest
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", stats.ConstantInputWarning)
        rho = stats.spearmanr(offline, recall).statistic
        tau = stats.kendalltau(offline, recall).statistic
    return {"policies": pids,
            "spearman": None if np.isnan(rho) else float(rho),
            "kendall": None if np.isnan(tau) else float(tau),
            "regret_at_1": float(recall.max() - recall[0])}


def summarize(runs: list[dict]) -> dict:
    """Per arm: mean recall, mean gain with its interval, and the seeds that
    gain, are significant either way, and meet C08 and C09."""
    ok = [r for r in runs if r["ok"]]
    arms = sorted({m for r in ok for m in r["methods"]} - {BASELINE})
    summary = {
        "seeds_ok": [r["seed"] for r in ok],
        "seeds_failed": [r["seed"] for r in runs if not r["ok"]],
        "baseline_mean_recall": interval(
            [r["methods"][BASELINE]["pass3_recall_mean"] for r in ok])["mean"],
        "arms": {},
        "c08_seeds": [r["seed"] for r in ok
                      if all(criteria.c08_checks(r["methods"], r["elapsed_s"]).values())],
        "c09_seeds": [r["seed"] for r in ok if criteria.c09_holds(r["methods"])],
    }
    per_seed = [{"seed": r["seed"], **ranking_fidelity(r["ranking"], r["methods"])}
                for r in ok]
    summary["ranking_fidelity"] = {
        "per_seed": per_seed,
        **{f"{key}_mean": interval([f[key] for f in per_seed if f[key] is not None])["mean"]
           for key in ("spearman", "kendall", "regret_at_1")},
        "seeds_top_pick_best": [f["seed"] for f in per_seed if f["regret_at_1"] == 0.0],
    }
    for arm in arms:
        signif = [r for r in ok if r["methods"][arm]["significant"]]
        summary["arms"][arm] = {
            "mean_recall": interval(
                [r["methods"][arm]["pass3_recall_mean"] for r in ok])["mean"],
            "gain": interval([gain(r, arm) for r in ok]),
            "seeds_gain_above_0": [r["seed"] for r in ok if gain(r, arm) > 0],
            "seeds_significant_better": [r["seed"] for r in signif if gain(r, arm) > 0],
            "seeds_significant_worse": [r["seed"] for r in signif if gain(r, arm) < 0],
        }
    return summary


def changed_artifacts(both: list[tuple[dict, dict]]) -> dict:
    """Each artifact whose bytes differ between the trees (or that one tree
    lacks), with the seeds where they do."""
    changed: dict = {}
    for p, c in both:
        before, after = p["artifacts_sha256"], c["artifacts_sha256"]
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                changed.setdefault(name, []).append(c["seed"])
    return dict(sorted(changed.items()))


def relative_change(before, after) -> float | None:
    """|after - before| / |before| of two numbers: 0 when they are equal (a
    NaN equals a NaN here), inf when they differ and ``before`` is 0 or
    either is infinite, and None when either is not a number (a flag, or a
    field the arm lacks)."""
    numbers = [isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (before, after)]
    if not all(numbers):
        return None
    if before == after or (math.isnan(before) and math.isnan(after)):
        return 0.0
    if before == 0 or not (math.isfinite(before) and math.isfinite(after)):
        return math.inf
    return abs(after - before) / abs(before)


def field_changes(both: list[tuple[dict, dict]]) -> dict:
    """Per kept report field, the seeds where some arm's value differs
    between the trees, and the largest relative change over the arms and
    seeds (None for a field without numbers)."""
    out = {}
    for field in KEPT:
        seeds, changes = [], []
        for p, c in both:
            differs = False
            for arm in sorted(p["methods"].keys() | c["methods"].keys()):
                before = p["methods"].get(arm, {}).get(field)
                after = c["methods"].get(arm, {}).get(field)
                rel = relative_change(before, after)
                if rel is None:
                    differs |= before != after
                else:
                    differs |= rel != 0.0
                    changes.append(rel)
            if differs:
                seeds.append(c["seed"])
        out[field] = {"seeds_differ": seeds, "max_rel_change": max(changes, default=None)}
    return out


def paired(parent: list[dict], change: list[dict]) -> dict:
    """Each arm's per-seed change in gain (change minus parent) over the seeds
    both trees ran, the seeds whose report bytes or arm recall match, the
    artifacts that changed, and how each kept report field changed."""
    before = {r["seed"]: r for r in parent if r["ok"]}
    both = [(before[r["seed"]], r) for r in change if r["ok"] and r["seed"] in before]
    arms = sorted({m for p, c in both for m in p["methods"]} - {BASELINE})
    fields = field_changes(both)
    out = {
        "seeds": [c["seed"] for _, c in both],
        "seeds_report_identical": [c["seed"] for p, c in both
                                   if p["report_sha256"] == c["report_sha256"]],
        "artifacts_changed": changed_artifacts(both),
        "report_fields": fields,
        "seeds_significance_changed": fields["significant"]["seeds_differ"],
        "arms": {},
    }
    for arm in arms:
        deltas = [gain(c, arm) - gain(p, arm) for p, c in both]
        out["arms"][arm] = {
            "change_in_gain": interval(deltas),
            "max_abs_change": max(map(abs, deltas), default=None),
            "seeds_recall_identical": [
                c["seed"] for p, c in both
                if p["methods"][arm]["pass3_recall_mean"]
                == c["methods"][arm]["pass3_recall_mean"]],
        }
    return out


def parse_seeds(text: str) -> list[int]:
    """``1-10`` or ``1,3,7``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def sweep(trees: dict[str, Path], workloads, seeds, workdir: Path) -> dict:
    make_config = load_module("workloads", ROOT / "perfbench" / "workloads.py").make_config
    jobs_list = [(label, tree, wl, seed) for wl in workloads
                 for label, tree in trees.items() for seed in seeds]

    def run(job):
        label, tree, wl, seed = job
        return run_one(tree, make_config(tree, wl, seed), workdir / label / f"{wl}-{seed}")

    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        results = list(pool.map(run, jobs_list))
    record = {"seeds": list(seeds), "workloads": {}}
    for wl in workloads:
        entry = {"trees": {}}
        for label, tree in trees.items():
            runs = [r for (lb, _, w, _), r in zip(jobs_list, results) if (lb, w) == (label, wl)]
            entry["trees"][label] = {"source_sha256": source_sha256(tree), "runs": runs,
                                     "summary": summarize(runs)}
        if len(trees) == 2:
            entry["paired"] = paired(entry["trees"]["parent"]["runs"],
                                     entry["trees"]["change"]["runs"])
        record["workloads"][wl] = entry
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path,
                        help="one source tree, or a parent tree then a change tree")
    parser.add_argument("--workloads", nargs="+", default=["demo"])
    parser.add_argument("--seeds", type=parse_seeds, default=list(range(1, 11)))
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep each run's artifacts here (default: a temporary directory)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree, or a parent tree and a change tree")
    labels = ("tree",) if len(args.trees) == 1 else ("parent", "change")
    trees = {label: tree.resolve() for label, tree in zip(labels, args.trees)}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = args.workdir.resolve() if args.workdir else Path(tmp)
        record = sweep(trees, args.workloads, args.seeds, workdir)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(len(t["summary"]["seeds_failed"])
                 for entry in record["workloads"].values() for t in entry["trees"].values())
    print(f"wrote {args.out}: {len(args.workloads)} workload(s), "
          f"{len(args.seeds)} seed(s), {failed} failed run(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
