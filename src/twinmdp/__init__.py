"""Offline policy improvement for exploration agents.

The library turns logged multi-turn diagnosis episodes into a finite
abstract MDP, learns per-turn rewards from trajectory rankings, induces
and ranks policies offline, and applies the selected policy back to a
running agent through context interventions (suggest, prune, prioritize).
A fault-propagation simulator with an exact judge closes the loop.
"""

from . import errors
from .abstraction import (
    AbstractStep,
    AbstractTrajectory,
    MdpTables,
    SchemeSpec,
    TopologyFeaturizer,
    abstract,
    build_vocabulary,
    load_abstract_corpus,
    pack_corpus,
    save_abstract_corpus,
)
from .context import (
    CeConfig,
    Intervention,
    intervene,
    render_suggestion_text,
    select_top_action,
    should_skip_action,
)
from .hmm import Hmm, fit_hmm, sequence_log_likelihood, viterbi_decode
from .offline_rl import (
    NetworkQ,
    QPolicy,
    TabularQ,
    TrainConfig,
    bc_train,
    cql_train,
    load_policy,
    policy_probs,
    save_policy,
)
from .ope import FqeEstimate, fqe, rank_policies
from .reward_learning import (
    PreferencePair,
    RewardTrainConfig,
    build_pairs,
    pair_accuracy,
    relabel,
    train_reward,
    trex_grad,
    trex_loss,
)
from .simulator import (
    CePlan,
    EpisodeConfig,
    EpisodeResult,
    ScenarioConfig,
    SimScenario,
    generate_scenario,
    judge,
    run_batch,
    run_episode,
)
from .stats import (
    NemenyiResult,
    PassAt3Result,
    TrialRecord,
    nemenyi_cd,
    paired_t_bonferroni,
    pass_at_3_bootstrap,
    ranks_from_scores,
    render_cd_diagram,
)
from .topology import (
    TopologyGraph,
    hubs_scores,
    make_graph,
    shortest_distance,
)
from .trajectories import (
    Entity,
    JudgeScores,
    RawStep,
    RawTrajectory,
    load_corpus,
    save_corpus,
)

__version__ = "0.1.0"
