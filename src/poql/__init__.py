"""poql: tabular Q-learning for partially observable environments, guided by
deterministic labeled MDPs learned passively from the agent's own traces."""

from .agent import (
    AgentConfig,
    EvalStats,
    RandomAgent,
    TabularAgent,
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
    belief_mdp_as_mdp,
    build_belief_mdp,
    optimal_expected_steps,
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
