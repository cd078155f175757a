"""Desk-scale GRPO fine-tuning of masked parallel-unmasking categorical policies."""

from .canvas import (
    CanvasState,
    Prompt,
    TaskKind,
    UnmaskSchedule,
    apply_step,
    schedule_cosine,
    schedule_uniform,
)
from .decoder import Trajectory, rollout, sample_step
from .discrete_diffusion import (
    MatrixKind,
    build_absorbing_q,
    build_uniform_q,
    elbo_terms,
    forward_marginal,
    reverse_posterior,
)
from .filtering import Decision, StdHistory, admit, threshold
from .grpo import (
    AdamState,
    GrpoConfig,
    Group,
    Reduction,
    TrainSetup,
    adam_step,
    group_advantages,
    grpo_loss_and_grad,
    kl_step,
    train,
)
from .policy import (
    PolicyArch,
    PolicyBatch,
    PolicyParams,
    ProbMatrix,
    encode_batch,
    forward_encoded,
    init_params,
    load_checkpoint,
    policy_backward,
    policy_forward,
    save_checkpoint,
)
from .rewards import reward_count, reward_fn_for, reward_pattern
from .transition import (
    StepOutcome,
    TransitionKind,
    cam_select,
    enumerate_next_states,
    oracle_check,
    step_logprob,
)

__version__ = "0.1.0"
