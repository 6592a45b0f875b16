"""Propagation graphs and the relativized feature view of a diagnosis walk.

Builds a small service topology, queries distances and hub scores, then
abstracts a scripted three-turn exploration into the feature vectors a
policy would consume: the DT-MDP's tables. Last, a hand-set name-scheme policy intervenes on the
walk's two-candidate turn, through the adapters a prompt-driven agent uses.
"""

import numpy as np

from twinmdp import (
    CeConfig,
    Entity,
    JudgeScores,
    QPolicy,
    RawStep,
    RawTrajectory,
    SchemeSpec,
    TabularQ,
    abstract,
    hubs_scores,
    intervene,
    make_graph,
    render_suggestion_text,
    select_top_action,
    shortest_distance,
    should_skip_action,
)

# A tiny incident: a database fault cascades through a cache into the
# frontend, where the alert fires. Two side services are healthy bystanders.
db = Entity("db", "Pod")
cache = Entity("cache", "Service")
front = Entity("frontend", "Pod")
jobs = Entity("jobs", "Deployment")
logs = Entity("logs", "Service")

graph = make_graph(
    [db, cache, front, jobs, logs],
    [(db, cache), (cache, front), (db, jobs), (jobs, logs)],
)

print("== distances (direction of propagation) ==")
print("db    -> frontend:", shortest_distance(graph, db, front))
print("front -> db      :", shortest_distance(graph, front, db), "(cannot go upstream)")
print("db    -> logs    :", shortest_distance(graph, db, logs))

print("\n== hub scores ==")
for entity, score in sorted(hubs_scores(graph).items()):
    print(f"  {entity.name:10s} {score:.4f}")

# The agent starts at the alerting entity and walks backward.
steps = (
    RawStep(turn_index=0, chosen_entity=front, candidate_entities=(front,),
            assessments={front: "cascading"}),
    RawStep(turn_index=1, chosen_entity=cache, candidate_entities=(cache, logs),
            assessments={front: "cascading", cache: "cascading"}),
    RawStep(turn_index=2, chosen_entity=db, candidate_entities=(db,),
            assessments={front: "cascading", cache: "cascading", db: "primary"}),
)
walk = RawTrajectory(
    trajectory_id="demo-walk", scenario_id="demo", symptom_entity=front,
    steps=steps, scores=JudgeScores(fpc_accuracy=100.0, rce_identification=100.0),
)

# The walk's DT-MDP tables: each distinct state and action row once, and
# per turn the ids of its state and of the action it took.
topo = abstract([walk], SchemeSpec(kind="topology"), {walk.scenario_id: graph})
print("\n== topology-scheme abstraction ==")
print("state features: [min dist symptom->flagged-primary, ...->flagged-cascading]")
print("action features: [d(target,prev), d(target,symptom),")
print("                  min d(target,primary), min d(target,cascading)]")
for t, (s, a) in enumerate(zip(topo.state_id, topo.taken_id)):
    print(f"turn {t}: state={topo.states[s].tolist()} action={topo.actions[a].tolist()}")
print(f"{len(topo.states)} distinct states, {len(topo.actions)} distinct candidate rows")
print("\nunreachable pairs use the sentinel (graph diameter + 1 ="
      f" {topo.states[topo.state_id[0]][0]:.0f})")

# The name scheme instead keys everything by entity identity.
names = abstract([walk], SchemeSpec(kind="name", vocabulary=("cache", "db", "frontend",
                                                             "jobs", "logs")), {})
print("\n== name-scheme abstraction (2 primary / 1 cascading / 0 unknown) ==")
for t, (s, a) in enumerate(zip(names.state_id, names.taken_id)):
    print(f"turn {t}: state={names.states[s].tolist()} action index={names.actions[a]}")

# A hand-set policy over that vocabulary: at turn 1's state it prefers the
# cache to the logs. Suggest and prune keep only the top candidate of two.
state = names.states[names.state_id[1]]
candidates = names.actions[names.cand_id[names.cand_offsets[1]:names.cand_offsets[2]]].tolist()
q = np.zeros((1, 5))
q[0, candidates] = [2.0, -1.0]  # cache, logs
policy = QPolicy(q=TabularQ(state_index={tuple(state.tolist()): 0}, q=q, gamma=0.9))
iv = intervene(policy, state, list(zip(steps[1].candidate_entities, candidates)), CeConfig())
print("\n== a policy's intervention on turn 1 (candidates cache, logs) ==")
print("probabilities:", {e.name: round(p, 4) for e, p in iv.probs.items()})
print("prompt hint  :", render_suggestion_text(iv.suggestions))
print("top action   :", select_top_action(iv).name)
for entity in steps[1].candidate_entities:
    print(f"skip {entity.name:5s}   :", should_skip_action(iv, entity))
