"""twinmdp benchmark: stage and layer timings of the pipeline on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload demo --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

A run generates the workload's configs from the seed, times ``import
twinmdp`` + ``validate_config`` in fresh processes (``setup_s``), then
starts one worker process that runs the eight ``twinmdp.pipeline.stage_*``
functions in order on each config in turn until ``--seconds`` have passed
and every config has run once, checking every pipeline's outputs. Stage
times are scaled to a reference host speed sampled while every stage runs
(``worker.SpeedSampler``). ``--trace 1`` adds one pipeline with every layer
wrapped and reports the per-layer metrics instead of the end-to-end ones.
``perfbench/README.md`` defines every metric.

Every run appends its full record (metrics, stage times, output hashes,
machine) to ``.perfbench/runs.jsonl``; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402
from worker import STAGES, UNIT_REF_S  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

STATE_DIR = Path(".perfbench")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170.0
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
OFFLINE = ("abstract", "train_reward", "relabel", "train_policy", "rank")
CLOSED_LOOP = ("simulate", "evaluate")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    return env


def source_fingerprint(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "twinmdp").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(config: Path, env: dict, root: Path) -> list[dict]:
    """One warm-up, then SETUP_PROBES timed fresh processes.

    Each probe reports its set-up seconds and the mean speed-unit time
    measured right after, so that set-up can be scaled like the stages.
    """
    samples = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--setup-probe",
             "--config", str(config)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i > 0:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def previous_hashes(record_path: Path, key: dict) -> list | None:
    """Output hashes, per input, of the first earlier run of the same code,
    workload and seed."""
    if not record_path.exists():
        return None
    for line in record_path.read_text().splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if all(rec.get(k) == v for k, v in key.items()) and rec.get("hashes"):
            return rec["hashes"]
    return None


def end_to_end(reps: list[dict], peak_rss_mb: float, setup: list[dict]) -> dict:
    """Per-stage medians over each input's untraced pipelines that passed
    every check, averaged over the inputs.

    Times are scaled to the reference host speed (see ``worker.SpeedSampler``);
    ``pipeline_wall_s`` and ``setup_wall_s`` are the unscaled figures.
    """
    ok = [r for r in reps if not r["problems"] and not r.get("traced")]
    if not ok:
        return {}

    by_input: dict[int, list[dict]] = {}
    for r in ok:
        by_input.setdefault(r["input"], []).append(r)

    def stages(key, names=STAGES):
        return statistics.mean(
            sum(statistics.median(r[key][s] for r in reps) for s in names)
            for reps in by_input.values())

    recalls = ok[0]["recalls"]
    best = max(v for m, v in recalls.items() if m != "baseline")
    return {
        "setup_s": statistics.median(p["setup_s"] * UNIT_REF_S / p["unit_s"]
                                     for p in setup),
        "pipeline_s": stages("stage_ref_s"),
        "offline_s": stages("stage_ref_s", OFFLINE),
        "closed_loop_s": stages("stage_ref_s", CLOSED_LOOP),
        "episodes_per_s": (statistics.mean(reps[0]["episodes"]
                                           for reps in by_input.values())
                           / stages("stage_ref_s", ("collect", "simulate"))),
        "peak_rss_mb": peak_rss_mb,
        "recall3_best": best,
        "recall3_gain": best - recalls["baseline"],
        "pipeline_wall_s": stages("stage_s"),
        "setup_wall_s": statistics.median(p["setup_s"] for p in setup),
        "host_speed": statistics.median(
            UNIT_REF_S / u for r in ok for u in r["unit_s"].values()),
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units.get(name, '')}")


def run(args, root: Path) -> int:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_share="ratio", recall3_best="ratio", recall3_gain="ratio",
                 pipeline_wall_s="s", setup_wall_s="s", host_speed="ratio")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = STATE_DIR / "work" / f"{args.workload}-s{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    configs = []
    for i, raw in enumerate(make_inputs(root, args.workload, args.seed)):
        configs.append(work / f"config{i}.json")
        configs[-1].write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n")
    config_shas = [hashlib.sha256(c.read_bytes()).hexdigest() for c in configs]
    env = child_env(root)

    started = time.perf_counter()
    setup = measure_setup(configs[0], env, root)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--config", *map(str, configs),
             "--out", str(work), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(result_path)],
            cwd=root, env=env,
            timeout=max(10.0, RUN_TIMEOUT_S - (time.perf_counter() - started)),
        )
        finished = proc.returncode == 0 and result_path.exists()
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        finished = False
    if not finished:
        print("perfbench: the worker failed or timed out", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    result = json.loads(result_path.read_text())
    reps = result["reps"]

    # determinism: every pipeline must reproduce the outputs of the set's
    # first pipeline on the same input
    key = {"workload": args.workload, "seed": args.seed, "config_sha256": config_shas,
           "source_sha256": source_fingerprint(root)}
    record_path = STATE_DIR / "runs.jsonl"
    references = previous_hashes(record_path, key) or [None] * len(configs)
    for rep in reps:
        if rep["problems"]:
            continue
        reference = references[rep["input"]]
        if reference is None:
            references[rep["input"]] = rep["hashes"]
        elif rep["hashes"] != reference:
            changed = sorted(k for k in reference if rep["hashes"].get(k) != reference[k])
            rep["problems"].append(f"output hashes differ from the set's first run: "
                                   f"{changed}")
    failed = sum(1 for r in reps if r["problems"])
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"run {i}: {problem}", file=sys.stderr)

    metrics = end_to_end(reps, result["peak_rss_mb"], setup)
    metrics["failed_share"] = failed / len(reps)
    if args.trace:
        layers = result.get("layers", {})
        untraced = [sum(r["stage_ref_s"].values()) for r in reps
                    if not r.get("traced") and not r["problems"] and r["input"] == 0]
        traced = [sum(r["stage_ref_s"].values()) for r in reps if r.get("traced")]
        if untraced and traced:
            layers["trace.overhead_s"] = traced[0] - statistics.median(untraced)
        for name in ("recall3_best", "recall3_gain"):
            if name in metrics:
                layers[f"stats.{name}"] = metrics[name]
        shown = layers
    else:
        shown = metrics
    missing = [m["name"] for m in wanted if m["name"] not in shown]

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(configs)}  "
          f"pipelines {len(reps)}  "
          f"failed {failed}  trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    stages = reps[0]["stage_s"]
    print("stages (first run) " + "  ".join(f"{s} {stages[s]:.3f}s" for s in STAGES
                                            if s in stages))
    print_table("end-to-end", metrics, units)
    if args.trace:
        print_table("per-layer (traced run)", shown, units)

    record = {**key, "seconds": args.seconds, "trace": args.trace,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S"), "machine": result["machine"],
              "metrics": metrics, "layers": result.get("layers"),
              "stage_s": [r["stage_s"] for r in reps],
              "stage_ref_s": [r["stage_ref_s"] for r in reps],
              "unit_s": [r["unit_s"] for r in reps], "setup_probes": setup,
              "problems": [r["problems"] for r in reps],
              "inputs": [r["input"] for r in reps],
              "hashes": references if any(references) else None}
    with record_path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    correct = failed == 0 and not missing
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": shown[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in shown},
    }))
    return 0 if not missing else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result sets (runs.jsonl files or "
                             "directories holding one)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        return fail("run from the root of a checkout: BENCHMARK.json not found")
    if args.compare:
        return compare(root / "BENCHMARK.json", *map(Path, args.compare))
    if args.workload is None:
        return fail("--workload is required")
    if not (root / "src" / "twinmdp" / "__init__.py").is_file():
        return fail("src/twinmdp not found: the benchmark runs the checkout's own source")
    if not (root / "configs" / "demo.yaml").is_file():
        return fail("configs/demo.yaml not found: workloads are overrides of it")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
