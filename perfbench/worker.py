"""One workload in one fresh process: repeated pipeline runs, checked and timed.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path; it
only receives the generated config files. Two modes:

    worker.py --setup-probe --config C
        time ``import twinmdp`` + ``validate_config``; print the seconds and
        the mean speed-unit time measured right after
    worker.py --config C [C ...] --out DIR --seconds N --trace 0|1 --result FILE
        run the eight stages on each config in turn until N seconds have
        passed and every config has run once, then, with --trace 1, once
        more on the first config with every layer wrapped
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

STAGES = ("collect", "abstract", "train_reward", "relabel", "train_policy", "rank",
          "simulate", "evaluate")

# Duration of speed_unit() at the reference host speed, about its mean on the
# 2-core host the benchmark was defined on. Stage times are scaled to it.
UNIT_REF_S = 0.003
SAMPLE_EVERY_S = 0.05   # one speed_unit() per 50 ms: about 6% of the time
MIN_SAMPLES = 8         # a shorter stage borrows the samples nearest to it
SETUP_UNITS = 20


def speed_unit() -> None:
    """A fixed bit of work like the pipeline's: dict updates and small products.

    It does not touch twinmdp, so its duration follows only the host's speed,
    which drifts on shared machines by a fifth or more within seconds.
    """
    import numpy as np

    counts: dict[int, int] = {}
    for i in range(12000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    a = np.full((24, 24), 0.5)
    for _ in range(150):
        a = np.maximum(a @ a * 0.03, 0.0)


def mean_unit_s(n: int) -> float:
    """Mean duration of ``n`` back-to-back speed units, after a warm-up."""
    for _ in range(3):
        speed_unit()
    t0 = time.perf_counter()
    for _ in range(n):
        speed_unit()
    return (time.perf_counter() - t0) / n


class SpeedSampler:
    """Times ``speed_unit()`` every ``SAMPLE_EVERY_S`` from a SIGALRM handler.

    The handler runs in the main thread, between bytecodes of the stage being
    timed, so its samples follow the host's speed on the same CPU while the
    stage runs. ``scale`` removes the handler's own time from a stage and
    scales the rest to ``UNIT_REF_S``.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        speed_unit()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def __enter__(self) -> "SpeedSampler":
        mean_unit_s(1)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds of [t0, t1] without sampling, mean unit time over it).

        A stage with fewer than ``MIN_SAMPLES`` samples inside it uses the
        ``MIN_SAMPLES`` samples nearest its middle for the unit time.
        """
        inside = [i for i, s in enumerate(self.starts) if t0 <= s < t1]
        busy = sum(self.durations[i] for i in inside)
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            inside = sorted(range(len(self.starts)),
                            key=lambda i: abs(self.starts[i] - mid))[:MIN_SAMPLES]
        unit = sum(self.durations[i] for i in inside) / len(inside)
        return t1 - t0 - busy, unit


def setup_probe(config: Path) -> dict:
    """Seconds from before ``import twinmdp`` to a validated config, and the
    mean speed-unit time measured right after it."""
    import twinmdp  # noqa: F401
    from twinmdp.pipeline import validate_config

    validate_config(json.loads(config.read_text()))
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "unit_s": mean_unit_s(SETUP_UNITS)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(cfg, out: Path) -> tuple[list[str], dict[str, str], dict]:
    """Problems found, sha256 of every stage output, and the parsed report."""
    problems: list[str] = []
    hashes: dict[str, str] = {}
    for stage in STAGES:
        manifest_path = out / f"{stage}.manifest.json"
        if not manifest_path.exists():
            problems.append(f"{stage}: manifest missing")
            continue
        manifest = json.loads(manifest_path.read_text())
        for name, recorded in sorted(manifest["outputs"].items()):
            path = out / name
            actual = sha256(path) if path.exists() else "missing"
            if actual != recorded:
                problems.append(f"{stage}: {name} sha256 {actual[:12]} != manifest "
                                f"{recorded[:12]}")
            hashes[name] = actual
    report = {}
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
        methods = report.get("methods", {})
        for arm in ["baseline"] + [a.arm_id for a in cfg.arms]:
            if arm not in methods:
                problems.append(f"report.json: arm {arm} missing")
                continue
            recall = methods[arm].get("pass3_recall_mean")
            if not isinstance(recall, (int, float)) or not 0.0 <= recall <= 1.0:
                problems.append(f"report.json: {arm} pass3_recall_mean {recall!r} "
                                "outside [0, 1]")
    else:
        problems.append("report.json missing")
    return problems, hashes, report


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def run_once(pipeline, cfg, out: Path, tracer=None) -> dict:
    """All eight stages in order into a fresh ``out``; timed, then checked.

    ``stage_s`` holds each stage's (start, end) on the ``perf_counter``
    clock; ``scale_times`` turns them into seconds once the run is over.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    stage_s: dict[str, list[float]] = {}
    problems: list[str] = []
    for stage in STAGES:
        fn = getattr(pipeline, f"stage_{stage}")
        t0 = time.perf_counter()
        try:
            if tracer is None:
                fn(cfg, out)
            else:
                with tracer.span(f"pipeline.{stage}"):
                    fn(cfg, out)
        except Exception as exc:  # a failed stage is recorded; the set goes on
            problems.append(f"{stage} raised {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            break
        stage_s[stage] = [t0, time.perf_counter()]

    rep = {"stage_s": stage_s, "problems": problems, "hashes": {}, "recalls": {}}
    if problems:
        return rep
    found, hashes, report = check_outputs(cfg, out)
    problems.extend(found)
    rep["hashes"] = hashes
    rep["recalls"] = {m: e["pass3_recall_mean"]
                      for m, e in report.get("methods", {}).items()}

    episodes = {
        "collect": cfg.collect_scenarios * cfg.collect_episodes,
        "simulate": cfg.compare_scenarios * cfg.compare_trials * (1 + len(cfg.arms)),
    }
    logged = {"collect": count_lines(out / "train_corpus.jsonl"),
              "simulate": count_lines(out / "compare_corpus.jsonl")}
    for stage, expected in episodes.items():
        if logged[stage] != expected:
            problems.append(f"{stage}: {logged[stage]} episodes logged, "
                            f"{expected} configured")
    rep["episodes"] = logged["collect"] + logged["simulate"]
    return rep


def scale_times(rep: dict, sampler: SpeedSampler) -> None:
    """Replace each stage's (start, end) by its wall seconds without sampling,
    and add ``stage_ref_s``: those seconds at the reference host speed."""
    spans = rep["stage_s"]
    rep["stage_s"], rep["stage_ref_s"], rep["unit_s"] = {}, {}, {}
    for stage, (t0, t1) in spans.items():
        wall, unit = sampler.scale(t0, t1)
        rep["stage_s"][stage] = wall
        rep["unit_s"][stage] = unit
        rep["stage_ref_s"][stage] = wall * UNIT_REF_S / unit


def reward_pair_accuracy(pipeline, cfg, out: Path) -> float:
    """Pair accuracy of the saved reward net on the stage's own training pairs."""
    from twinmdp.abstraction import load_abstract_corpus
    from twinmdp.reward_learning import build_pairs, load_reward_net, pair_accuracy

    trajs = load_abstract_corpus(out / pipeline.F_ABSTRACT)
    train_ids, _ = pipeline.split_scenarios(cfg, [t.scenario_id for t in trajs])
    train = [t for t in trajs if t.scenario_id in train_ids]
    pairs = build_pairs([(t, t.scores) for t in train], signal=cfg.irl_signal,
                        margin=cfg.irl_margin, max_pairs=cfg.irl_max_pairs,
                        seed=pipeline.derive_seed(cfg.master_seed, "train_reward"))
    net = load_reward_net(out / pipeline.F_REWARD)
    return float(pair_accuracy(net, pairs, train, cfg.irl_train.discount))


def machine() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def run_workload(args) -> dict:
    import twinmdp.pipeline as pipeline

    cfgs = [pipeline.validate_config(json.loads(Path(c).read_text()))
            for c in args.config]
    cfg = cfgs[0]
    out = Path(args.out)
    reps = []
    result = {"machine": machine()}
    with SpeedSampler() as sampler:
        started = time.perf_counter()
        while True:
            index = len(reps) % len(cfgs)
            reps.append(run_once(pipeline, cfgs[index], out / "run"))
            reps[-1]["input"] = index
            if (len(reps) >= len(cfgs)
                    and time.perf_counter() - started >= args.seconds):
                break
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced = run_once(pipeline, cfg, out / "run", tracer=tracer)
            finally:
                tracer.uninstall()
            traced["traced"] = True
            traced["input"] = 0
            reps.append(traced)
    for rep in reps:
        scale_times(rep, sampler)
    result["reps"] = reps
    if args.trace:
        layers = tracing.layer_metrics(tracer, STAGES)
        tracer.write(out)
        if not traced["problems"]:
            layers["reward_learning.pair_acc"] = reward_pair_accuracy(
                pipeline, cfg, out / "run")
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", nargs="+", required=True)
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.setup_probe:
        print(json.dumps(setup_probe(Path(args.config[0]))))
        return 0
    result = run_workload(args)
    Path(args.result).write_text(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
