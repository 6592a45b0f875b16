"""Benchmark workloads as overrides of the shipped ``configs/demo.yaml``.

Each workload is the demo config with a few sections replaced. A run of a
short workload covers several inputs, so that one seed's easy or hard
scenarios do not set the run's figures: input ``i`` of seed ``s`` is the
config with ``master_seed = s + INPUT_STRIDE * i``. Input 0 is the seed's
own config, so the same seed gives the same generated inputs. The program
under test only ever sees the resulting configs.
"""

from __future__ import annotations

import copy
from pathlib import Path

import yaml

BASE_CONFIG = Path("configs") / "demo.yaml"

# Why each workload exists is recorded in BENCHMARK.json and README.md.
OVERRIDES = {
    # the shipped config, unchanged: network T-REX reward learning dominates
    "demo": {},
    # simulator-heavy: hubs, HMM, larger graphs and longer episodes; tiny training
    "closed_loop": {
        "scheme": {"kind": "topology", "with_hubs": True, "with_hmm": True},
        "collect": {"n_scenarios": 12, "episodes_per_scenario": 20},
        "irl": {"epochs": 4, "max_pairs": 1000},
        "rl": {"iterations": 300},
        "compare": {
            "n_scenarios": 16,
            "trials": 6,
            "scenario": {"n_nodes": 24, "edge_density": 0.06, "chain_length": 6},
            "episode": {"max_turns": 12},
        },
    },
    # index actions: tabular CQL/BC/FQE and one-hot reward rows
    "tabular": {
        "scheme": {"kind": "nametype"},
        "irl": {"epochs": 3},
        "rl": {"iterations": 1000},
        "compare": {"trials": 10},
    },
}

WORKLOADS = tuple(OVERRIDES)

# Inputs per run: one demo pipeline fills a run; the short workloads run
# about five to seven seconds per input.
INPUTS = {"demo": 1, "closed_loop": 4, "tabular": 3}
INPUT_STRIDE = 1000


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def make_config(root: Path, workload: str, seed: int) -> dict:
    """The raw pipeline config of ``workload`` with ``master_seed = seed``."""
    base = yaml.safe_load((root / BASE_CONFIG).read_text())
    raw = _merge(base, OVERRIDES[workload])
    raw["master_seed"] = int(seed)
    return raw


def make_inputs(root: Path, workload: str, seed: int) -> list[dict]:
    """The raw configs one run of ``workload`` covers, input 0 first."""
    return [make_config(root, workload, seed + INPUT_STRIDE * i)
            for i in range(INPUTS[workload])]
