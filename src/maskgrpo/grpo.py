"""Group-relative policy optimisation over unmasking rollouts.

Each iteration rolls out a group of canvases for one prompt, scores them with
a terminal reward, normalises rewards within the group (mean 0, population
std 1), and ascends a clipped importance-ratio surrogate.  There is no value
network: the group normalisation is the whole baseline.  The importance
ratio of a step is taken on the step's transition probability under the
definition its trajectory recorded (``Trajectory.kind``, so one pass may mix
definitions), recomputed against the rollout-time value.

Rewards are terminal and broadcast: every step of a trajectory shares the
trajectory's single normalised advantage.

Two cost reducers are available: scoring the surrogate only on a subset of
the steps, and rolling out with fewer unmasking steps during training while
evaluation keeps the full schedule.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import filtering, transition
from .canvas import SCHEDULES, Prompt, TaskKind, UnmaskSchedule
from .decoder import Trajectory, rollout
from .policy import (
    PolicyArch,
    PolicyParams,
    _layers,
    encode_batch,
    forward_encoded,
    init_params,
    policy_backward,
)
from .rewards import RewardFn
from .transition import TransitionKind

__all__ = [
    "Reduction",
    "GrpoConfig",
    "Group",
    "AdamState",
    "TrainSetup",
    "TrainResult",
    "METRICS_COLUMNS",
    "group_advantages",
    "LossPass",
    "grpo_loss_and_grad",
    "adam_step",
    "train",
]

log = logging.getLogger(__name__)

METRICS_COLUMNS = (
    "iter",
    "mean_reward",
    "std_reward",
    "filtered_groups",
    "resamples",
    "loss",
    "mean_ratio",
    "clip_frac",
    "mean_kl",
    "grad_norm",
    "wall_ms",
)


class ReductionKind(enum.Enum):
    NONE = "none"
    COMPUTE_SUBSET = "subset"
    UNMASK_REDUCE = "unmask"


# The fields each kind reads; a field its kind does not read must stay 0.
_REDUCTION_READS = {
    ReductionKind.NONE: (),
    ReductionKind.COMPUTE_SUBSET: ("start", "stop"),
    ReductionKind.UNMASK_REDUCE: ("train_steps",),
}


@dataclass(frozen=True)
class Reduction:
    """Which steps are scored (subset) or rolled out (reduced schedule)."""

    kind: ReductionKind = ReductionKind.NONE
    start: int = 0
    stop: int = 0
    train_steps: int = 0

    def __post_init__(self):
        if self.kind not in _REDUCTION_READS:
            raise ValueError(f"kind must be a ReductionKind, got {self.kind!r}")
        for name in ("start", "stop", "train_steps"):
            value = getattr(self, name)
            if value and name not in _REDUCTION_READS[self.kind]:
                raise ValueError(f"reduction {self.kind.value} does not read {name}, got {name}={value!r}")
        if self.kind is ReductionKind.COMPUTE_SUBSET and not 0 <= self.start < self.stop:
            raise ValueError(f"subset range must satisfy 0 <= start < stop, got start={self.start}, stop={self.stop}")
        if self.kind is ReductionKind.UNMASK_REDUCE and self.train_steps < 1:
            raise ValueError(f"train_steps must be at least 1 with reduction unmask, got {self.train_steps}")


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 6
    clip_eps: float = 0.2
    kl_beta: float = 0.0
    inner_epochs: int = 1
    learning_rate: float = 1e-3
    adam_beta1: float = 0.95
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    kind: TransitionKind = TransitionKind.EXACT
    reduction: Reduction = field(default_factory=Reduction)
    temperature: float = 1.0
    iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        # Every comparison is false for NaN, so each check refuses it too.
        for ok, name, rule in (
            (isinstance(self.kind, TransitionKind), "kind", "be a TransitionKind"),
            (self.group_size >= 2, "group_size", "be at least 2"),
            (0.0 < self.clip_eps < 1.0, "clip_eps", "lie in (0, 1)"),
            (0.0 <= self.kl_beta < math.inf, "kl_beta", "be finite and nonnegative"),
            (self.inner_epochs >= 1, "inner_epochs", "be at least 1"),
            (0.0 < self.learning_rate < math.inf, "learning_rate", "be finite and positive"),
            (0.0 <= self.adam_beta1 < 1.0, "adam_beta1", "lie in [0, 1)"),
            (0.0 <= self.adam_beta2 < 1.0, "adam_beta2", "lie in [0, 1)"),
            (0.0 < self.adam_eps < math.inf, "adam_eps", "be finite and positive"),
            (0.0 < self.temperature < math.inf, "temperature", "be finite and positive"),
            (self.iterations >= 0, "iterations", "be nonnegative"),
            (0 <= self.seed < 2**128, "seed", "lie in [0, 2**128), the keys a Philox stream takes"),
        ):
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)!r}")


@dataclass
class Group:
    """One prompt's rollouts with their rewards and normalised advantages."""

    prompt: Prompt
    trajectories: list[Trajectory]
    rewards: np.ndarray
    advantages: np.ndarray


def group_advantages(rewards) -> tuple[np.ndarray, bool]:
    """Standardise rewards within the group: (r - mean) / population std.

    A spread below 1e-12 yields all-zero advantages and raises the degenerate
    flag: such a group carries no ranking signal.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size < 2:
        raise ValueError("need at least two rewards to normalise")
    std = rewards.std()
    if std < 1e-12:
        return np.zeros_like(rewards), True
    return (rewards - rewards.mean()) / std, False


def active_steps(reduction: Reduction, total_steps: int) -> np.ndarray:
    """Step indices of one trajectory that enter the surrogate objective."""
    if reduction.kind is ReductionKind.COMPUTE_SUBSET:
        if reduction.stop > total_steps:
            raise ValueError(f"subset range stop={reduction.stop} exceeds the {total_steps} steps of the trajectory")
        return np.arange(reduction.start, reduction.stop)
    return np.arange(total_steps)


class LossPass:
    """The surrogate pass over one batch of groups, built once.

    Each active step's log-probability is recomputed with the recorded samples
    and keep/remask split held fixed; its ratio to the rollout-time value
    enters the clipped surrogate.  The build does all that the parameters do
    not change: terms, canvas encoding, outcome checks, grouping of the steps
    by shape (kind, masked rows, kept rows) and the reference forward.
    :meth:`evaluate` reads ``params.params`` afresh on every call.  An
    ``EXACT`` step with an empty remasked support there (possible after an
    inner epoch's update) has log-probability ``-inf``: ratio and gradient 0.
    """

    def __init__(
        self, groups: list[Group], arch: PolicyArch, ref_params: PolicyParams | None, config: GrpoConfig
    ):
        if config.kl_beta > 0.0 and ref_params is None:
            raise ValueError("reference parameters required when the KL weight is positive")
        self.config = config
        # Every active (trajectory, step) of every group, scored in one batch.
        terms = []
        for group in groups:
            n_traj = len(group.trajectories)
            for j, traj in enumerate(group.trajectories):
                active = active_steps(config.reduction, traj.total_steps)
                norm = 1.0 / (len(groups) * n_traj * active.size)
                adv = float(group.advantages[j])
                terms += [(j, traj, int(t), adv, norm) for t in active]
        self.size = len(terms)
        if not terms:
            return
        self.owners, trajs, self.steps, advs, norms = zip(*terms)
        self.adv, self.norm = np.array(advs), np.array(norms)
        self.old_logp = np.array([traj.old_logprobs[t] for traj, t in zip(trajs, self.steps)])
        self.inputs = inputs = encode_batch(
            arch,
            [traj.states[t] for traj, t in zip(trajs, self.steps)],
            [traj.prompt for traj in trajs],
            [traj.temperature for traj in trajs],
        )
        ref_batch = forward_encoded(ref_params, inputs) if config.kl_beta > 0.0 else None
        outcomes = [traj.outcomes[t] for traj, t in zip(trajs, self.steps)]
        sampled = np.concatenate([o.sampled for o in outcomes])
        chosen = np.concatenate([o.chosen for o in outcomes])
        # The outcomes are checked here, once; the scorer trusts them.
        start = np.asarray(inputs.start)
        sizes = np.diff(start)
        if [o.positions.size for o in outcomes] != sizes.tolist():
            raise ValueError("outcome does not belong to this probability matrix")
        transition._check_consistent(
            inputs.positions,
            arch.num_categories,
            np.concatenate([o.positions for o in outcomes]),
            sampled,
        )
        kept_counts = np.add.reduceat(chosen, start[:-1], dtype=np.int64)
        # Terms of one shape are scored by one call.  The grouped layout puts
        # each shape's rows in one contiguous block: its row r is row perm[r]
        # of the batch.
        self.shapes: dict[tuple, list[int]] = {}
        for i, shape in enumerate(zip([traj.kind for traj in trajs], sizes.tolist(), kept_counts.tolist())):
            self.shapes.setdefault(shape, []).append(i)
        self.order = np.concatenate(list(self.shapes.values()))
        self.lengths = sizes[self.order]
        offsets = np.cumsum(self.lengths) - self.lengths
        self.perm = perm = np.repeat(start[self.order] - offsets, self.lengths) + np.arange(self.lengths.sum())
        self.sampled_p, self.chosen_p = sampled[perm], chosen[perm]
        if ref_batch is not None:
            self.kept_p = self.chosen_p.nonzero()[0]
            self.ref_log_rows_p = ref_batch.log_rows[perm[self.kept_p]]
            self.kl_coef_p = np.repeat(self.norm[self.order] * config.kl_beta, kept_counts[self.order])[:, None]

    def evaluate(self, params: PolicyParams, compute_grad: bool = True) -> tuple[float, dict]:
        """Objective and statistics at ``params``, as :func:`grpo_loss_and_grad`."""
        if not self.size:
            return 0.0, {"mean_ratio": 0.0, "clip_frac": 0.0, "mean_kl": 0.0}
        objective, ratio, kl = self._pass(params.params, params if compute_grad else None)
        lo, hi = 1.0 - self.config.clip_eps, 1.0 + self.config.clip_eps
        stats = {
            "mean_ratio": float(_sum_in_order(ratio)) / self.size,
            "clip_frac": int(np.count_nonzero((ratio < lo) | (ratio > hi))) / self.size,
            "mean_kl": float(_sum_in_order(kl)) / self.size,
        }
        return float(objective), stats

    def objectives(self, stack: np.ndarray) -> np.ndarray:
        """The objective at each parameter vector of a ``(C, P)`` stack, each
        equal to :meth:`evaluate`'s at that vector bit for bit."""
        return self._pass(stack, None)[0] if self.size else np.zeros(len(stack))

    def _pass(self, vec: np.ndarray, params: PolicyParams | None):
        """Objective, ratios and KL terms at one parameter vector ``(P,)``, or
        along the leading copy axis of a ``(C, P)`` stack.  With ``params``
        (the one vector's owner), also accumulates the gradient of the negated
        objective into ``params.grads``."""
        config, perm = self.config, self.perm
        batch = _layers(vec, self.inputs)
        rows, log_rows = batch.rows.take(perm, axis=-2), batch.log_rows.take(perm, axis=-2)
        copies = rows.shape[:-2]
        upstream = None if params is None else np.zeros(rows.shape)
        new_logp = np.empty((*copies, self.size))
        kl = np.zeros((*copies, self.size))
        kl_weighted = config.kl_beta > 0.0
        if kl_weighted:
            # One array of the kept rows' KL terms gives both the value and the gradient.
            kl_rows = rows.take(self.kept_p, axis=-2) * (log_rows.take(self.kept_p, axis=-2) - self.ref_log_rows_p)
        row = kept_row = 0
        for (kind, m, s), members in self.shapes.items():
            block = slice(row, row + m * len(members))
            new_logp[..., members] = transition._score(
                kind,
                rows[..., block, :],
                log_rows[..., block, :],
                self.sampled_p[block],
                self.chosen_p[block],
                len(members),
                out=None if upstream is None else upstream[block],
            )
            if kl_weighted:
                member_kl = kl_rows[..., kept_row : kept_row + s * len(members), :]
                kl[..., members] = member_kl.reshape(*copies, len(members), -1).sum(axis=-1)
            row, kept_row = block.stop, kept_row + s * len(members)
        ratio = np.exp(new_logp - self.old_logp)
        if not np.isfinite(ratio).all():
            i = np.isfinite(ratio).argmin() % self.size
            raise FloatingPointError(
                f"non-finite importance ratio at trajectory {self.owners[i]}, step {self.steps[i]}"
            )
        adv, norm = self.adv, self.norm
        unclipped = ratio * adv
        clipped = np.clip(ratio, 1.0 - config.clip_eps, 1.0 + config.clip_eps) * adv
        term = np.minimum(unclipped, clipped)
        if kl_weighted:
            term -= config.kl_beta * kl
        objective = _sum_in_order(norm * term)
        if params is not None:
            # Gradient of the negated objective, on each term's rows of the batch.
            coef = np.where(unclipped <= clipped, adv * ratio, 0.0)
            upstream *= np.repeat((-norm * coef)[self.order], self.lengths)[:, None]
            if kl_weighted:
                upstream[self.kept_p] += self.kl_coef_p * kl_rows
            back = np.empty_like(batch.log_rows)
            back[perm] = upstream
            policy_backward(params, batch, back)
        return objective, ratio, kl


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis one term at a time, as a loop from 0.0 would.

    A pairwise (vectorised) sum rounds differently.  Adding 0.0 turns the
    running sum's -0.0, which a loop from 0.0 never gives, into 0.0.
    """
    return np.add.accumulate(terms, axis=-1)[..., -1] + 0.0


def grpo_loss_and_grad(
    groups: list[Group],
    params: PolicyParams,
    ref_params: PolicyParams | None,
    config: GrpoConfig,
    compute_grad: bool = True,
) -> tuple[float, dict]:
    """Surrogate objective and its gradient, accumulated into ``params.grads``.

    The gradient is of the negated objective, so a minimising optimiser
    ascends; ``compute_grad=False`` evaluates the objective only.  One
    :class:`LossPass` build and evaluation: to evaluate one batch at many
    parameters (finite-difference probes, inner epochs), build the pass once.
    """
    return LossPass(groups, params.arch, ref_params, config).evaluate(params, compute_grad)


_ADAM_BLOCK = 1 << 15  # entries per block of ``adam_step``: 256 KB a vector, held in cache


@dataclass
class AdamState:
    """Adam moments plus one block-sized scratch buffer for the update."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty(min(self.m.size, _ADAM_BLOCK))

    @classmethod
    def for_params(cls, params: PolicyParams) -> "AdamState":
        return cls(m=np.zeros_like(params.params), v=np.zeros_like(params.params))


def adam_step(params: PolicyParams, state: AdamState, config: GrpoConfig) -> None:
    """One Adam update on the accumulated gradient, which it leaves at zero.

    ``m``, ``v`` and the parameters are updated in place, one block of
    ``_ADAM_BLOCK`` entries after another, in the operation order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and ``params -= lr *
    (m/c1) / (sqrt(v/c2) + eps)`` with ``c1``, ``c2`` the bias corrections; the
    scratch buffer and then the gradient hold a block's intermediates, and the
    block's gradient is then cleared, which :func:`train` relies on.
    """
    b1, b2 = config.adam_beta1, config.adam_beta2
    state.step_count += 1
    c1, c2 = 1.0 - b1**state.step_count, 1.0 - b2**state.step_count
    for lo in range(0, params.params.size, _ADAM_BLOCK):
        p, g, m, v = (a[lo : lo + _ADAM_BLOCK] for a in (params.params, params.grads, state.m, state.v))
        s = state.scratch[: g.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=s), g, out=s)
        denom = np.sqrt(np.divide(v, c2, out=s), out=s)
        denom += config.adam_eps
        step = np.divide(m, c1, out=g)
        step *= config.learning_rate
        step /= denom
        p -= step
        g.fill(0.0)


# Stream tags keep training rollouts, evaluation and the decodes of
# ``maskgrpo sample`` on disjoint generator keys for one seed.
_TAG_ROLLOUT = 2 << 56
_TAG_EVAL = 3 << 56
_TAG_DECODE = 4 << 56


def _rollout_stream(iteration: int, attempt: int, member: int) -> int:
    return _TAG_ROLLOUT | (iteration << 24) | (attempt << 16) | member


@dataclass
class TrainSetup:
    """Everything the trainer needs beyond the optimisation config.

    Construction builds the schedules and refuses what the trainer cannot run.
    """

    config: GrpoConfig
    arch: PolicyArch
    reward_fn: RewardFn
    prompt: Prompt
    schedule_kind: str = "cosine"
    total_steps: int = 8
    filter_settings: filtering.StdHistory = field(default_factory=filtering.StdHistory)
    eval_rollouts: int = 0
    full_schedule: UnmaskSchedule = field(init=False)
    train_schedule: UnmaskSchedule = field(init=False)

    def __post_init__(self):
        config = self.config
        self.full_schedule = self.schedule_for(self.total_steps)
        self.train_schedule = self.full_schedule
        if config.reduction.kind is ReductionKind.UNMASK_REDUCE:
            self.train_schedule = self.schedule_for(config.reduction.train_steps)
        active_steps(config.reduction, self.train_schedule.total_steps)  # validate range
        if self.eval_rollouts < 0:
            raise ValueError(f"eval_rollouts must be nonnegative, got {self.eval_rollouts}")
        prompt, arch = self.prompt, self.arch
        if prompt.embedding.size != arch.embed:
            raise ValueError(f"prompt embedding width {prompt.embedding.size} does not match arch.embed={arch.embed}")
        if prompt.task_kind is TaskKind.PATTERN_MATCH and len(prompt.payload) != arch.length:
            raise ValueError(f"prompt target length {len(prompt.payload)} does not match arch.length={arch.length}")
        # A field wider than its bits of ``_rollout_stream`` would alias another
        # (iteration, attempt, member) and replay its rollouts.
        for name, value, limit in (
            ("filter max_resamples", self.filter_settings.max_resamples, 255),
            ("group_size", config.group_size, 65535),
            ("iterations", config.iterations, 2**32),
        ):
            if value > limit:
                raise ValueError(f"{name}={value} exceeds {limit}, the most the rollout stream key holds")

    def schedule_for(self, steps: int) -> UnmaskSchedule:
        return SCHEDULES[self.schedule_kind](steps, self.arch.length)


@dataclass
class TrainResult:
    params: PolicyParams
    metrics: list[dict]
    eval_rewards: np.ndarray


def _rollouts(
    params: PolicyParams, setup: TrainSetup, schedule: UnmaskSchedule, seeds: list[int]
) -> tuple[list[Trajectory], np.ndarray]:
    """Roll out the setup's prompt on ``schedule``, one canvas per seed, and
    reward each final canvas."""
    config, prompt = setup.config, setup.prompt
    trajs = rollout(params, prompt, schedule, config.kind, temperature=config.temperature, seed=seeds)
    return trajs, np.array([setup.reward_fn(tr.final_state, prompt) for tr in trajs], dtype=np.float64)


def train(
    setup: TrainSetup,
    on_metrics: Callable[[dict, PolicyParams], None] | None = None,
) -> TrainResult:
    """Run the full training loop and return final parameters plus metrics.

    One group per iteration: roll out ``group_size`` trajectories of the
    setup's prompt (on the reduced schedule when configured), score, filter
    on reward spread, normalise, then take ``inner_epochs`` surrogate/optimiser
    steps, each accumulating into the gradient that initialisation or the
    last :func:`adam_step` left at zero.  Exhausting the resample budget logs
    a warning and falls back to the last group.
    """
    config, prompt = setup.config, setup.prompt
    params = init_params(setup.arch, config.seed)
    ref_params = params.copy() if config.kl_beta > 0.0 else None
    opt = AdamState.for_params(params)
    # Only the settings are taken, so training leaves ``setup`` as it was.
    history = dataclasses.replace(setup.filter_settings)
    metrics: list[dict] = []

    for it in range(config.iterations):
        t0 = time.perf_counter()
        attempt = 0
        filtered = 0
        while True:
            seeds = [config.seed ^ _rollout_stream(it, attempt, j) for j in range(config.group_size)]
            trajs, rewards = _rollouts(params, setup, setup.train_schedule, seeds)
            std = float(rewards.std())
            decision = filtering.admit(history, std, attempt)
            filtered += decision is not filtering.Decision.ACCEPT
            if decision is not filtering.Decision.RESAMPLE:
                break
            attempt += 1
        if decision is filtering.Decision.EXHAUSTED:
            log.warning("iteration %d: resample budget exhausted, accepting group with std %.3g", it, std)

        advantages, _ = group_advantages(rewards)
        group = Group(prompt=prompt, trajectories=trajs, rewards=rewards, advantages=advantages)
        loss = LossPass([group], params.arch, ref_params, config)
        for _ in range(config.inner_epochs):
            try:
                objective, stats = loss.evaluate(params)
            except FloatingPointError as err:
                raise FloatingPointError(f"iteration {it}: {err}") from err
            grad_norm = float(np.linalg.norm(params.grads))
            adam_step(params, opt, config)
        del loss  # holds the batch's encoded canvases; freed before the next rollout

        row = {
            "iter": it,
            "mean_reward": float(rewards.mean()),
            "std_reward": std,
            "filtered_groups": filtered,
            "resamples": attempt,
            "loss": objective,
            "mean_ratio": stats["mean_ratio"],
            "clip_frac": stats["clip_frac"],
            "mean_kl": stats["mean_kl"],
            "grad_norm": grad_norm,
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        metrics.append(row)
        if on_metrics is not None:
            on_metrics(row, params)

    eval_rewards = np.zeros(0)
    if setup.eval_rollouts:
        seeds = [config.seed ^ (_TAG_EVAL | i) for i in range(setup.eval_rollouts)]
        eval_rewards = _rollouts(params, setup, setup.full_schedule, seeds)[1]
    return TrainResult(params=params, metrics=metrics, eval_rewards=eval_rewards)
