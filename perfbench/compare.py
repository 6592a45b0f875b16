"""Compare two result sets of the benchmark, workload by workload.

A result set is a ``runs.jsonl`` file (or a directory holding one) of
untraced run records. For every workload and end-to-end metric it prints
the medians and quartiles of both sets and a verdict:

improved    the new set wins at least nine tenths of the run pairs (ties count
            for neither) and its median is better by more than the old set's
            own quartile spread
unresolved  the run-to-run spread of either set exceeds the metric's bound,
            and not every new run is better than every old run
worse       the new median is worse than the old one by more than the bound
unchanged   otherwise
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_set(path: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in run order."""
    if path.is_dir():
        path = path / "runs.jsonl"
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, value in rec["metrics"].items():
            values[rec["workload"]][name].append(float(value))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    scale = abs(om) or 1.0
    gain = sign * (nm - om)
    pairs = list(zip(old, new))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > (o3 - o1):
        return "improved"
    spread = max(o3 - o1, n3 - n1) / scale
    all_better = min(sign * v for v in new) > max(sign * v for v in old)
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * scale:
        return "worse"
    return "unchanged"


def compare(spec_path: Path, old_path: Path, new_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    old, new = load_set(old_path), load_set(new_path)
    print(f"{'workload':<12} {'metric':<15} {'old median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8}  verdict")
    for workload in sorted(set(old) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = old[workload].get(name, []), new[workload].get(name, [])
            if not a or not b:
                print(f"{workload:<12} {name:<15} missing in one set")
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            print(f"{workload:<12} {name:<15} {_summary(qa):>32} {_summary(qb):>32} "
                  f"{change:>+8.1%}  {verdict(a, b, metric['better'], metric['bound'])}"
                  f"  (n={len(a)}/{len(b)}, {metric['unit']})")
    return 0
