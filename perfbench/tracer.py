"""In-memory span tracer that wraps the public functions of ``twinmdp``.

A span is (name, start, end, parent). Stage spans are the roots; every
wrapped call made while a span is open becomes its child. Spans live in
flat arrays while the pipeline runs and are written out once at the end.

Names are bound at import time (``from .reward_learning import
train_reward``), so a function is replaced at every module attribute that
holds it, not only where it is defined. Methods are replaced on the class.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("pipeline", "reward_learning", "nets", "offline_rl", "ope", "abstraction",
          "topology", "hmm", "context", "simulator", "stats", "trajectories")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.tagged: dict[str, list[int]] = defaultdict(list)
        self.graphs: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (the stages)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        return traced

    # --- installing and removing wrappers -------------------------------------------

    def patch_function(self, name: str, module, attr: str, hook=None) -> None:
        """Replace ``module.attr`` at every twinmdp module attribute bound to it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "twinmdp" or mod_name.startswith("twinmdp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, name: str, cls, attr: str, hook=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # --- results --------------------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return nid, parent, start, end, dur, dur - child

    def write(self, out: Path) -> None:
        """Write the spans (npz) and a per-name calls/total/self summary (json)."""
        nid, parent, start, end, dur, self_time = self.arrays()
        np.savez_compressed(out / "spans.npz", names=np.asarray(self.names),
                            name_id=nid, parent=parent, start=start, end=end)
        summary = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            summary[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        (out / "trace_summary.json").write_text(json.dumps(summary, indent=2,
                                                           sort_keys=True) + "\n")


# --- what gets wrapped ----------------------------------------------------------------

def _rows(t, idx, args, result):
    t.counts["nets.forward.rows" if t.names[t.name_id[idx]] == "nets.forward"
             else "nets.forward_cached.rows"] += len(args[1])


def _train_reward(t, idx, args, result):
    t.counts["reward_learning.train_trajs"] += len(args[1])


def _pairs(t, idx, args, result):
    t.counts["reward_learning.pairs"] += len(result)


def _featurizer(t, idx, args, result):
    graph = args[1]
    t.graphs.add((graph.nodes, graph.edges))


def _viterbi(t, idx, args, result):
    t.counts["hmm.viterbi_steps"] += len(args[1])


def _intervene(t, idx, args, result):
    if args[3].enabled("prune"):
        t.counts["context.prune_offered"] += len(args[2])
        t.counts["context.prune_kept"] += len(result.retained)


def _episode(t, idx, args, result):
    t.tagged["baseline" if args[1] is None else "intervened"].append(idx)
    t.counts["simulator.turns"] += result.turns_used


def _records_loaded(t, idx, args, result):
    t.counts["trajectories.records"] += len(result)


def _records_saved(t, idx, args, result):
    t.counts["trajectories.records"] += len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are made of."""
    from twinmdp import (abstraction, context, hmm, nets, offline_rl, ope, pipeline,
                         reward_learning, simulator, stats, topology, trajectories)

    functions = [
        ("pipeline.file_sha256", pipeline, "file_sha256", None),
        ("reward_learning.train_reward", reward_learning, "train_reward", _train_reward),
        ("reward_learning.build_pairs", reward_learning, "build_pairs", _pairs),
        ("reward_learning.encode_step_rows", reward_learning, "encode_step_rows", None),
        ("reward_learning.trex_grad", reward_learning, "trex_grad", None),
        ("reward_learning.pair_accuracy", reward_learning, "pair_accuracy", None),
        ("reward_learning.relabel", reward_learning, "relabel", None),
        ("offline_rl.build_transitions", offline_rl, "build_transitions", None),
        ("offline_rl.cql_train", offline_rl, "cql_train", None),
        ("offline_rl.bc_train", offline_rl, "bc_train", None),
        ("offline_rl.encode_action", offline_rl, "encode_action", None),
        ("offline_rl.policy_probs", offline_rl, "policy_probs", None),
        ("ope.fqe", ope, "fqe", None),
        ("ope.rank_policies", ope, "rank_policies", None),
        ("abstraction.abstract", abstraction, "abstract", None),
        ("abstraction.load_abstract_corpus", abstraction, "load_abstract_corpus", None),
        ("abstraction.save_abstract_corpus", abstraction, "save_abstract_corpus", None),
        ("topology.all_distances_from", topology, "all_distances_from", None),
        ("topology.hubs_scores", topology, "hubs_scores", None),
        ("hmm.fit_hmm", hmm, "fit_hmm", None),
        ("hmm.viterbi_decode", hmm, "viterbi_decode", _viterbi),
        ("context.intervene", context, "intervene", _intervene),
        ("simulator.run_episode", simulator, "run_episode", _episode),
        ("simulator.generate_scenario", simulator, "generate_scenario", None),
        ("stats.pass_at_3_bootstrap", stats, "pass_at_3_bootstrap", None),
        ("stats.nemenyi_cd", stats, "nemenyi_cd", None),
        ("stats.paired_t_bonferroni", stats, "paired_t_bonferroni", None),
        ("trajectories.load_corpus", trajectories, "load_corpus", _records_loaded),
        ("trajectories.save_corpus", trajectories, "save_corpus", _records_saved),
    ]
    methods = [
        ("nets.forward", nets.Mlp, "forward", _rows),
        ("nets.forward_cached", nets.Mlp, "forward_cached", _rows),
        ("nets.backward", nets.Mlp, "backward", None),
        ("nets.adam_step", nets.Adam, "step", None),
        ("abstraction.featurizer.build", abstraction.TopologyFeaturizer, "__init__",
         _featurizer),
        ("abstraction.state_features", abstraction.TopologyFeaturizer, "state_features",
         None),
        ("abstraction.action_features", abstraction.TopologyFeaturizer,
         "action_features", None),
        ("topology.neighbors", topology.TopologyGraph, "neighbors", None),
    ]
    for name, module, attr, hook in functions:
        tracer.patch_function(name, module, attr, hook)
    for name, cls, attr, hook in methods:
        tracer.patch_method(name, cls, attr, hook)


# --- per-layer metrics ------------------------------------------------------------------

def _percentile(durations: np.ndarray, q: float) -> float:
    return float(np.percentile(durations, q)) if len(durations) else 0.0


def layer_metrics(tracer: Tracer, stages) -> dict[str, float]:
    """Per-layer metrics (calls, busy seconds, ratios, self time) from one traced run.

    Busy seconds (``.s``) are inclusive wall time of the wrapped calls;
    ``<layer>.self_s`` is the layer's time not covered by wrapped calls into
    other functions, so the ``self_s`` values sum to the traced pipeline time.
    """
    nid, _, start, end, dur, self_time = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return nid == ids[name] if name in ids else np.zeros(len(nid), dtype=bool)

    def calls(name):
        return float(mask(name).sum())

    def busy(name):
        return float(dur[mask(name)].sum())

    def in_stage(name, stage):
        stage_span = np.flatnonzero(mask(f"pipeline.{stage}"))
        if not len(stage_span):
            return np.zeros(len(nid), dtype=bool)
        i = stage_span[0]
        return mask(name) & (start >= start[i]) & (end <= end[i])

    c = tracer.counts
    m: dict[str, float] = {}
    for stage in stages:
        m[f"pipeline.{stage}.s"] = busy(f"pipeline.{stage}")
    m["pipeline.file_sha256.calls"] = calls("pipeline.file_sha256")
    m["pipeline.file_sha256.s"] = busy("pipeline.file_sha256")

    encode_in_training = float(in_stage("reward_learning.encode_step_rows",
                                        "train_reward").sum())
    m["reward_learning.encode_step_rows.calls"] = calls("reward_learning.encode_step_rows")
    m["reward_learning.encode_step_rows.s"] = busy("reward_learning.encode_step_rows")
    m["reward_learning.rows_rebuilt_per_traj"] = (
        encode_in_training / c["reward_learning.train_trajs"]
        if c["reward_learning.train_trajs"] else 0.0
    )
    for fn in ("trex_grad", "pair_accuracy"):
        m[f"reward_learning.{fn}.calls"] = calls(f"reward_learning.{fn}")
        m[f"reward_learning.{fn}.s"] = busy(f"reward_learning.{fn}")
    m["reward_learning.relabel.s"] = busy("reward_learning.relabel")
    m["reward_learning.pairs"] = c["reward_learning.pairs"]

    for fn in ("forward", "forward_cached"):
        m[f"nets.{fn}.calls"] = calls(f"nets.{fn}")
        m[f"nets.{fn}.rows"] = c[f"nets.{fn}.rows"]
        m[f"nets.{fn}.s"] = busy(f"nets.{fn}")
    for fn in ("backward", "adam_step"):
        m[f"nets.{fn}.calls"] = calls(f"nets.{fn}")
        m[f"nets.{fn}.s"] = busy(f"nets.{fn}")

    m["offline_rl.build_transitions.calls"] = calls("offline_rl.build_transitions")
    m["offline_rl.build_transitions.s"] = busy("offline_rl.build_transitions")
    m["offline_rl.cql_train.s"] = busy("offline_rl.cql_train")
    m["offline_rl.bc_train.s"] = busy("offline_rl.bc_train")
    m["offline_rl.encode_action.calls"] = calls("offline_rl.encode_action")
    m["offline_rl.policy_probs.calls"] = calls("offline_rl.policy_probs")
    m["offline_rl.policy_probs.s"] = busy("offline_rl.policy_probs")

    m["ope.fqe.calls"] = calls("ope.fqe")
    m["ope.fqe.s"] = busy("ope.fqe")
    m["ope.rank_policies.s"] = busy("ope.rank_policies")

    builds = calls("abstraction.featurizer.build")
    m["abstraction.featurizer.builds"] = builds
    m["abstraction.featurizer.build_s"] = busy("abstraction.featurizer.build")
    m["abstraction.featurizer_builds_per_graph"] = (
        builds / len(tracer.graphs) if tracer.graphs else 0.0
    )
    for fn in ("state_features", "action_features"):
        m[f"abstraction.{fn}.calls"] = calls(f"abstraction.{fn}")
        m[f"abstraction.{fn}.s"] = busy(f"abstraction.{fn}")
    m["abstraction.abstract.s"] = busy("abstraction.abstract")
    m["abstraction.corpus_io.s"] = (busy("abstraction.load_abstract_corpus")
                                    + busy("abstraction.save_abstract_corpus"))

    for fn in ("all_distances_from", "neighbors"):
        m[f"topology.{fn}.calls"] = calls(f"topology.{fn}")
        m[f"topology.{fn}.s"] = busy(f"topology.{fn}")
    m["topology.hubs_scores.s"] = busy("topology.hubs_scores")

    m["hmm.fit_hmm.s"] = busy("hmm.fit_hmm")
    m["hmm.viterbi_decode.calls"] = calls("hmm.viterbi_decode")
    m["hmm.viterbi_decode.s"] = busy("hmm.viterbi_decode")
    m["hmm.viterbi_steps"] = c["hmm.viterbi_steps"]

    iv = dur[mask("context.intervene")]
    m["context.intervene.calls"] = float(len(iv))
    m["context.intervene.s"] = float(iv.sum())
    m["context.intervene.us_p50"] = _percentile(iv, 50) * 1e6
    m["context.intervene.us_p99"] = _percentile(iv, 99) * 1e6
    m["context.prune_kept_ratio"] = (
        c["context.prune_kept"] / c["context.prune_offered"]
        if c["context.prune_offered"] else 0.0
    )

    m["simulator.run_episode.calls"] = calls("simulator.run_episode")
    sim = in_stage("simulator.run_episode", "simulate")
    for tag in ("baseline", "intervened"):
        tagged = np.zeros(len(nid), dtype=bool)
        tagged[np.asarray(tracer.tagged[tag], dtype=int)] = True
        episode = dur[tagged & sim]
        m[f"simulator.episode_ms_p50.{tag}"] = _percentile(episode, 50) * 1e3
        m[f"simulator.episode_ms_p99.{tag}"] = _percentile(episode, 99) * 1e3
    m["simulator.turns"] = c["simulator.turns"]
    m["simulator.generate_scenario.s"] = busy("simulator.generate_scenario")

    m["stats.pass_at_3_bootstrap.calls"] = calls("stats.pass_at_3_bootstrap")
    m["stats.pass_at_3_bootstrap.s"] = busy("stats.pass_at_3_bootstrap")
    m["stats.nemenyi_cd.s"] = busy("stats.nemenyi_cd")
    m["stats.paired_t_bonferroni.s"] = busy("stats.paired_t_bonferroni")

    m["trajectories.load_corpus.s"] = busy("trajectories.load_corpus")
    m["trajectories.save_corpus.s"] = busy("trajectories.save_corpus")
    m["trajectories.records"] = c["trajectories.records"]

    layer_of = np.asarray([LAYERS.index(n.split(".")[0]) for n in tracer.names])
    per_layer_self = np.bincount(layer_of[nid], weights=self_time, minlength=len(LAYERS))
    for layer, value in zip(LAYERS, per_layer_self):
        m[f"{layer}.self_s"] = float(value)
    m["trace.spans"] = float(len(nid))
    return m
