"""poql: tabular Q-learning for partially observable environments, guided by
deterministic labeled MDPs learned passively from the agent's own traces."""

from .agent import (
    AgentConfig,
    BaselineAgent,
    EvalStats,
    PoqlAgent,
    QTable,
    RandomAgent,
    RepeatActionAgent,
    baseline_obs_q,
    evaluate,
    get_action,
    replay,
    run_episode,
    train,
    update_q_values,
)
from .beliefs import (
    Belief,
    BeliefMdp,
    ImpossibleObservation,
    belief_mdp_as_mdp,
    belief_update,
    build_belief_mdp,
    observation_probability,
    optimal_expected_steps,
    value_iteration,
)
from .envs import (
    ENVIRONMENT_NAMES,
    Environment,
    EpisodeProtocolError,
    GridSpec,
    World,
    make_environment,
)
from .learn import (
    InconsistentSample,
    Iofpta,
    IofptaNode,
    LearnerConfig,
    build_iofpta,
    compatible,
    run_ioalergia,
)
from .models import (
    DeterministicLabeledMdp,
    ExtendedState,
    Mdp,
    Pomdp,
    RewardObservationTrace,
    dlmdp_to_dot,
    read_trace_file,
    reset_to_initial,
    step_to,
    write_trace_file,
)

__version__ = "0.1.0"
