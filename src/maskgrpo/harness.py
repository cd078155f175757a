"""Experiment harness: config files, CLI entry point, verification suites.

Config files are flat ``key=value`` text, one key per line, ``#`` comments.
Unknown keys are errors; missing keys take the documented defaults.  The CLI
exposes training, sampling from a checkpoint, the transition-probability
oracle comparison, finite-difference gradient checks, and the
discrete-diffusion property suite.  Exit codes: 0 ok, 1 a verification
assertion failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import operator
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

import numpy as np

from . import discrete_diffusion as dd
from . import filtering, grpo, transition
from .canvas import SCHEDULES, CanvasState, Prompt, TaskKind, apply_step, schedule_cosine
from .decoder import draw_outcome, dump_trajectory, rollout, sample_step
from .policy import (
    CheckpointError,
    PolicyArch,
    PolicyParams,
    _layers,
    encode_batch,
    forward_encoded,
    init_params,
    load_checkpoint,
    policy_backward,
    save_checkpoint,
)
from .rewards import reward_fn_for
from .transition import StepOutcome, TransitionKind, cam_select

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "run_verify",
    "run_gradcheck",
    "run_d3pm_suite",
    "cmd_train",
    "cmd_sample",
    "cmd_verify",
    "cmd_gradcheck",
    "cmd_d3pm",
    "main",
]


class ConfigError(ValueError):
    pass


_CHOICES = {
    "schedule": tuple(SCHEDULES),
    "transition": tuple(k.value for k in TransitionKind),
    "reduction": tuple(k.value for k in grpo.ReductionKind),
    "reward": tuple(k.value for k in TaskKind),
}


def _check_choice(key: str, value) -> None:
    if value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")


# The keys each option of a choice reads.  A key that only another option
# reads must keep its default.
_READS = {
    "reduction": {"none": (), "subset": ("subset_start", "subset_stop"), "unmask": ("train_steps",)},
    "reward": {"pattern": ("reward_target",), "count": ("reward_value", "reward_count")},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a training run.

    Construction refuses what the run cannot use, whether the settings come
    from a config file or from Python: the checks below, then those of every
    object :meth:`train_setup` builds.
    """

    canvas_n: int = 16
    canvas_k: int = 4
    hidden: int = 64
    embed: int = 16
    schedule: str = "cosine"
    steps: int = 8
    train_steps: int = 0  # 0 = train on the full schedule
    temperature: float = 1.0
    transition: str = "exact"
    group_size: int = 6
    clip_eps: float = 0.2
    kl_beta: float = 0.0
    inner_epochs: int = 1
    learning_rate: float = 1e-3
    adam_beta1: float = 0.95
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    reduction: str = "none"
    subset_start: int = 0
    subset_stop: int = 0
    iterations: int = 200
    seed: int = 0
    reward: str = "pattern"
    reward_target: str = ""  # comma-separated tokens; empty = i mod K
    reward_value: int = 0
    reward_count: int = -1  # -1 = N // 2
    filter_window: int = 200
    filter_q: float = 10.0
    filter_warmup: int = 20
    filter_max_resamples: int = 5
    out_dir: str = "runs"
    checkpoint_every: int = 0
    eval_rollouts: int = 16

    def __post_init__(self):
        for key in _CHOICES:
            _check_choice(key, getattr(self, key))
        for key, reads in _READS.items():
            for option, keys in reads.items():
                if option != getattr(self, key) and any(getattr(self, k) != _DEFAULTS[k] for k in keys):
                    verb = "is" if len(keys) == 1 else "are"
                    raise ConfigError(f"{' and '.join(keys)} {verb} only meaningful with {key}={option}")
        target = self.target_tokens() if self.reward_target else ()
        for ok, rule, value in (
            (self.canvas_n >= 1, "canvas_n must be at least 1", self.canvas_n),
            (self.canvas_k >= 2, "canvas_k must be at least 2", self.canvas_k),
            (1 <= self.steps <= self.canvas_n, "steps must satisfy 1 <= steps <= canvas_n", self.steps),
            (self.train_steps <= self.steps, "train_steps must be at most steps", self.train_steps),
            (len(target) in (0, self.canvas_n), "reward_target length must equal canvas_n", len(target)),
            (all(0 <= v < self.canvas_k for v in target), "reward_target tokens must lie in [0, canvas_k)", target),
            (0 <= self.reward_value < self.canvas_k, "reward_value must lie in [0, canvas_k)", self.reward_value),
            (-1 <= self.reward_count <= self.canvas_n,
             "reward_count must lie in [0, canvas_n], or be -1 for canvas_n // 2", self.reward_count),
            (self.checkpoint_every >= 0, "checkpoint_every must be nonnegative", self.checkpoint_every),
        ):
            if not ok:
                raise ConfigError(f"{rule}, got {value!r}")
        self.train_setup()  # the checks of the objects it builds, the trainer's included

    def arch(self) -> PolicyArch:
        return PolicyArch(
            length=self.canvas_n,
            num_categories=self.canvas_k,
            hidden=self.hidden,
            embed=self.embed,
        )

    def reduction_obj(self) -> grpo.Reduction:
        kind = grpo.ReductionKind(self.reduction)
        return grpo.Reduction(kind, self.subset_start, self.subset_stop, self.train_steps)

    def grpo_config(self) -> grpo.GrpoConfig:
        return grpo.GrpoConfig(
            group_size=self.group_size,
            clip_eps=self.clip_eps,
            kl_beta=self.kl_beta,
            inner_epochs=self.inner_epochs,
            learning_rate=self.learning_rate,
            adam_beta1=self.adam_beta1,
            adam_beta2=self.adam_beta2,
            adam_eps=self.adam_eps,
            kind=TransitionKind(self.transition),
            reduction=self.reduction_obj(),
            temperature=self.temperature,
            iterations=self.iterations,
            seed=self.seed,
        )

    def target_tokens(self) -> tuple[int, ...]:
        if not self.reward_target:
            return tuple(i % self.canvas_k for i in range(self.canvas_n))
        return _integers("reward_target", self.reward_target)

    def prompt(self) -> Prompt:
        if self.reward == "pattern":
            return Prompt.pattern_match(self.target_tokens(), self.canvas_k, self.embed)
        count = self.reward_count if self.reward_count >= 0 else self.canvas_n // 2
        return Prompt.token_count(
            self.reward_value, count, self.canvas_n, self.canvas_k, self.embed
        )

    def filter_history(self) -> filtering.StdHistory:
        return filtering.StdHistory(
            window=self.filter_window,
            percentile=self.filter_q,
            warmup_min=self.filter_warmup,
            max_resamples=self.filter_max_resamples,
        )

    def train_setup(self) -> grpo.TrainSetup:
        return grpo.TrainSetup(
            config=self.grpo_config(),
            arch=self.arch(),
            reward_fn=reward_fn_for(TaskKind(self.reward)),
            prompt=self.prompt(),
            schedule_kind=self.schedule,
            total_steps=self.steps,
            filter_settings=self.filter_history(),
            eval_rollouts=self.eval_rollouts,
        )


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _integers(name: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, refused by ``name`` if one is not."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated integers, got {text!r}") from None


def parse_config(path: str) -> ExperimentConfig:
    """Read a key=value config file with line-accurate diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = type(_DEFAULTS[key])(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def cmd_train(config_path: str, out_override: str | None = None) -> int:
    cfg = parse_config(config_path)
    out_dir = out_override or cfg.out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir!r}: {exc.strerror}") from exc
    setup = cfg.train_setup()
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(grpo.METRICS_COLUMNS)

        def on_metrics(row: dict, params: PolicyParams) -> None:
            writer.writerow(_fmt(row[c]) for c in grpo.METRICS_COLUMNS)
            fh.flush()
            if cfg.checkpoint_every and (row["iter"] + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(params, os.path.join(out_dir, f"ckpt_{row['iter'] + 1:06d}.ckpt"))

        result = grpo.train(setup, on_metrics=on_metrics)
    final_path = os.path.join(out_dir, "final.ckpt")
    save_checkpoint(result.params, final_path)
    if result.metrics:
        last = result.metrics[-1]
        print(f"trained {len(result.metrics)} iterations, final mean reward {last['mean_reward']:.4f}")
    if result.eval_rewards.size:
        print(
            f"evaluation on the full {cfg.steps}-step schedule: "
            f"mean reward {result.eval_rewards.mean():.4f} over {result.eval_rewards.size} rollouts"
        )
    print(f"metrics: {csv_path}")
    print(f"checkpoint: {final_path}")
    return 0


def _parse_prompt_spec(spec: str, arch: PolicyArch) -> Prompt:
    kind, _, rest = spec.partition(":")
    if kind not in ("pattern", "count"):
        raise ConfigError(f"unknown prompt kind {kind!r} (expected pattern: or count:)")
    values = _integers(f"the values of prompt {spec!r}", rest)
    if kind == "pattern":
        if len(values) != arch.length:
            raise ConfigError(f"pattern prompt needs {arch.length} tokens, got {len(values)}")
        return Prompt.pattern_match(values, arch.num_categories, arch.embed)
    if len(values) != 2:
        raise ConfigError("count prompt spec must be count:VALUE,TARGET")
    return Prompt.token_count(*values, arch.length, arch.num_categories, arch.embed)


def cmd_sample(
    ckpt_path: str,
    prompt_spec: str,
    count: int,
    steps: int = 0,
    schedule: str = "cosine",
    kind: str = "unmasked",
    temperature: float = 1.0,
    seed: int = 0,
    out=None,
) -> int:
    out = out or sys.stdout
    _check_choice("schedule", schedule)
    _check_choice("transition", kind)
    if not 0.0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and positive, got {temperature!r}")
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    _check_seed(seed)
    try:  # an unreadable checkpoint, or a prompt or step count that does not fit its canvas
        params = load_checkpoint(ckpt_path)
        arch = params.arch
        prompt = _parse_prompt_spec(prompt_spec, arch)
        sched = SCHEDULES[schedule](steps or min(8, arch.length), arch.length)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    freq: Counter = Counter()
    for i in range(count):
        traj = rollout(
            params,
            prompt,
            sched,
            TransitionKind(kind),
            temperature=temperature,
            seed=seed ^ (grpo._TAG_DECODE | i),
        )
        if i < 5:
            out.write(f"--- rollout {i} ---\n")
            dump_trajectory(traj, out)
        freq["".join(map(str, traj.final_state.tokens))] += 1
    out.write(f"--- canvas frequencies over {count} rollouts ---\n")
    for canvas, n in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0])):
        out.write(f"{canvas} {n} {n / count:.4f}\n")
    return 0


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _worst(a: float, b: float) -> float:
    """``max(a, b)``, except that a NaN on either side is kept: ``max``
    returns ``a`` whenever ``b`` is not larger, a NaN ``b`` included."""
    return b if b > a or b != b else a


def _within_bounds(report) -> bool:
    """True when every bounded quantity of ``report.checks()`` holds."""
    return all(rel is None or _RELATIONS[rel](value, bound) for _, value, rel, bound in report.checks())


class VerifyReport(NamedTuple):
    trials: int
    worst_oracle_diff: float
    worst_enum_sum_diff: float
    worst_model_sum_diff: float
    ordering_violations: int

    passed = property(_within_bounds)

    def checks(self) -> list[tuple]:
        """(label, value, relation, bound) of each reported quantity."""
        return [
            ("worst |closed-form - enumeration|", self.worst_oracle_diff, "<", 1e-10),
            ("worst |sum(enumeration) - 1|", self.worst_enum_sum_diff, "<", 1e-10),
            ("worst |sum(closed-form) - 1|", self.worst_model_sum_diff, "<", 1e-10),
            ("ordering violations", self.ordering_violations, "==", 0),
        ]


def _random_prob_rows(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    raw = rng.gamma(shape=1.0, scale=1.0, size=(m, k)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


def _model_sum(probs: transition.ProbMatrix, keys: np.ndarray) -> float:
    """Sum of the ``EXACT`` probabilities of the next states ``keys``, scored in
    one stacked ``_score`` call and added left to right in their order."""
    count = len(keys)
    sampled, chosen = transition._representatives(probs, keys)
    tiled = [np.tile(a, (count, 1)) for a in (probs.rows, probs.log_rows)]
    values = transition._score(
        TransitionKind.EXACT, *tiled, sampled.ravel(), chosen.ravel(), np.tile(probs.positions, count), count
    )
    total = 0.0
    for p in np.exp(values).tolist():
        total += p
    return total


def run_verify(trials: int, seed: int) -> VerifyReport:
    """Randomised oracle comparison for the transition-probability definitions.

    Per trial: random prediction rows, a sampled outcome, then (a) the exact
    definition against brute-force enumeration, (b) enumeration and model
    normalisation, (c) the AR <= exact <= kept-only ordering chain.
    Confidence ties are asserted like every other instance.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_oracle = worst_enum_sum = worst_model_sum = 0.0
    violations = 0
    for _ in range(trials):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        n_keep = int(rng.integers(1, min(2, m) + 1))
        probs = transition.ProbMatrix.from_rows(_random_prob_rows(rng, m, k))
        outcome = draw_outcome(probs, rng, n_keep)
        lp_exact = transition.step_logprob(TransitionKind.EXACT, probs, outcome)
        keys, sums = transition._next_state_arrays(probs, n_keep)
        enumerated = transition._probability_of(keys, sums, outcome)
        worst_oracle = _worst(worst_oracle, abs(enumerated - float(np.exp(lp_exact))))
        worst_enum_sum = _worst(worst_enum_sum, abs(sum(sums.tolist()) - 1.0))
        worst_model_sum = _worst(worst_model_sum, abs(_model_sum(probs, keys) - 1.0))
        lp_ar = transition.step_logprob(TransitionKind.AR_STYLE, probs, outcome)
        lp_kept = transition.step_logprob(TransitionKind.UNMASKED_ONLY, probs, outcome)
        # 1e-12 slack absorbs the different float paths of equal-value cases.
        if not (lp_ar <= lp_exact + 1e-12 and lp_exact <= lp_kept + 1e-12):
            violations += 1
        if np.all(outcome.chosen) and not (lp_ar == lp_exact == lp_kept):
            violations += 1
    return VerifyReport(
        trials=trials,
        worst_oracle_diff=worst_oracle,
        worst_enum_sum_diff=worst_enum_sum,
        worst_model_sum_diff=worst_model_sum,
        ordering_violations=violations,
    )


class GradcheckReport(NamedTuple):
    trials: int
    worst_rel_err: float
    worst_abs_err: float
    clip_fraction: float

    passed = property(_within_bounds)

    def checks(self) -> list[tuple]:
        return [
            ("worst per-coordinate error", self.worst_rel_err, "<", 1e-4),
            ("worst absolute difference (error 0 up to 1e-8)", self.worst_abs_err, None, None),
            ("fraction of surrogate terms clipped", self.clip_fraction, None, None),
        ]


def _grad_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> tuple[float, float]:
    """Worst per-coordinate error and worst absolute difference.

    The error is relative where meaningful and zero for differences of at
    most 1e-8; the absolute difference shows the margin that floor hides.
    A NaN or infinite coordinate gives a NaN or infinite error.  A zero
    ``denom`` means both are 0, so dividing that ``diff`` by 1 gives 0.
    """
    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    with np.errstate(invalid="ignore"):
        rel = diff / np.where(denom > 0, denom, 1.0)
    return float(np.where(diff <= 1e-8, 0.0, rel).max(initial=0.0)), float(diff.max(initial=0.0))


LOGPROB_FD_STEP = 1e-6
OBJECTIVE_FD_STEP = 1e-5


# Bytes of one stacked evaluation's parameter copies.  Its arrays hold up to
# about four times the stack, so peak RSS sets this: 1-4 calls per instance.
_FD_BYTES = 1 << 19


def _fd_gradient(values, base: np.ndarray, step: float) -> np.ndarray:
    """Central differences at ``base`` of ``values``, which maps a ``(C, P)``
    stack of parameter vectors to their ``(C,)`` values.

    Coordinate ``i``'s copies hold ``base[i] + step`` and ``base[i] - step``;
    each block of them, within ``_FD_BYTES`` or one coordinate, is one call.
    """
    grad = np.empty_like(base)
    per_block = max(1, _FD_BYTES // (2 * base.nbytes))
    for first in range(0, base.size, per_block):
        coords = np.arange(first, min(first + per_block, base.size))
        n = coords.size
        stack = np.repeat(base[None], 2 * n, axis=0)
        stack[np.arange(n), coords] = base[coords] + step
        stack[np.arange(n, 2 * n), coords] = base[coords] - step
        at = values(stack)
        del stack  # else it stays alive while the next block's stack is built
        grad[coords] = (at[:n] - at[n:]) / (2.0 * step)
    return grad


def _step_logprobs(kind: TransitionKind, inputs, outcome: StepOutcome, stack: np.ndarray) -> np.ndarray:
    """``step_logprob`` of one step at each parameter vector of a ``(C, P)`` stack:
    one forward and one scorer call over the copy axis."""
    batch = _layers(stack, inputs)
    return transition._score(
        kind, batch.rows, batch.log_rows, outcome.sampled, outcome.chosen, outcome.positions
    )[:, 0]


def _near_selection_boundary(probs, outcome) -> bool:
    """True within 1e-5 of a selection boundary: the two smallest kept
    confidences nearly tie, or a remasked token nearly equals the smallest."""
    kept = np.flatnonzero(outcome.chosen)
    confs = np.sort(probs.rows[kept, outcome.sampled[kept]])
    if confs.size > 1 and confs[1] - confs[0] < 1e-5:
        return True
    return bool(np.any(np.abs(probs.rows[~outcome.chosen] - confs[0]) < 1e-5))


def _random_logprob_instance(rng: np.random.Generator):
    """Generic (params, encoded canvas, outcome) away from selection boundaries."""
    k = int(rng.integers(2, 5))
    n = int(rng.integers(2, 6))
    arch = PolicyArch(length=n, num_categories=k, hidden=6, embed=4)
    while True:
        params = init_params(arch, seed=int(rng.integers(2**32)))
        params.params += rng.normal(scale=0.1, size=params.params.shape)
        prompt = Prompt.pattern_match(rng.integers(0, k, size=n), k, 4)
        state = CanvasState.all_masked(n, k)
        reveal = int(rng.integers(0, n))  # leave at least one position masked
        if reveal:
            pos = rng.choice(n, size=reveal, replace=False)
            state = apply_step(state, pos, rng.integers(0, k, size=reveal))
        inputs = encode_batch(arch, [state], [prompt], [0.5 + rng.random()])
        probs = forward_encoded(params, inputs).probs(0)
        sampled, confs = sample_step(probs, rng)
        m = probs.num_rows
        n_keep = int(rng.integers(1, m + 1))
        chosen = cam_select(confs, n_keep)
        outcome = StepOutcome(
            sampled=sampled, confidences=confs, chosen=chosen, positions=probs.positions
        )
        if _near_selection_boundary(probs, outcome):
            continue
        remasked_rows = probs.rows[~chosen]
        below_mass = np.where(remasked_rows < confs[chosen].min(), remasked_rows, 0.0).sum(axis=1)
        if remasked_rows.size and np.any(below_mass < 1e-5):
            continue  # nearly-empty below-threshold mass
        return params, inputs, outcome


def run_gradcheck(trials: int, seed: int) -> GradcheckReport:
    """Central finite differences against the analytic gradients.

    Checks every parameter coordinate of each step log-probability definition
    on random instances, then the full clipped surrogate objective with the
    KL weight at 0 and 0.5.  Boundary configurations (kept-confidence ties,
    token mass at the threshold, ratios at the clip edges) are resampled
    away: the gradients are defined almost everywhere and the checks probe
    generic points.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = worst_abs = 0.0
    clipped_terms = 0
    total_terms = 0
    for kind in TransitionKind:
        for _ in range(trials):
            params, inputs, outcome = _random_logprob_instance(rng)
            batch = forward_encoded(params, inputs)
            _, upstream = transition.step_logprob_upstream(kind, batch.probs(0), outcome)
            params.zero_grads()
            policy_backward(params, batch, upstream)
            analytic = params.grads.copy()
            fd = _fd_gradient(partial(_step_logprobs, kind, inputs, outcome), params.params, LOGPROB_FD_STEP)
            rel, diff = _grad_mismatch(analytic, fd)
            worst, worst_abs = _worst(worst, rel), _worst(worst_abs, diff)

    for beta in (0.0, 0.5):
        for _ in range(trials):
            params, loss = _random_objective_instance(rng, beta)
            params.zero_grads()
            _, stats = loss.evaluate(params)
            analytic = -params.grads.copy()  # accumulated gradient is of -objective
            clipped_terms += round(stats["clip_frac"] * loss.size)
            total_terms += loss.size
            rel, diff = _grad_mismatch(analytic, _fd_gradient(loss.objectives, params.params, OBJECTIVE_FD_STEP))
            worst, worst_abs = _worst(worst, rel), _worst(worst_abs, diff)
    return GradcheckReport(
        trials=trials,
        worst_rel_err=worst,
        worst_abs_err=worst_abs,
        clip_fraction=clipped_terms / total_terms if total_terms else 0.0,
    )


def _random_objective_instance(rng: np.random.Generator, beta: float):
    """Parameters and the loss pass of a frozen rollout batch, at a generic
    point of the surrogate objective."""
    k, n, t, g = 3, 4, 2, 3
    arch = PolicyArch(length=n, num_categories=k, hidden=4, embed=2)
    kind = list(TransitionKind)[int(rng.integers(0, 3))]
    config = grpo.GrpoConfig(
        group_size=g,
        kl_beta=beta,
        kind=kind,
        temperature=0.5 + rng.random(),
        seed=int(rng.integers(2**32)),
    )
    sched = schedule_cosine(t, n)
    while True:
        params = init_params(arch, seed=int(rng.integers(2**32)))
        params.params += rng.normal(scale=0.1, size=params.params.shape)
        ref_params = None
        if beta > 0.0:
            ref_params = params.copy()
            ref_params.params += rng.normal(scale=0.1, size=ref_params.params.shape)
        prompt = Prompt.pattern_match(rng.integers(0, k, size=n), k, arch.embed)
        trajs = rollout(
            params,
            prompt,
            sched,
            config.kind,
            temperature=config.temperature,
            seed=[int(rng.integers(2**63)) for _ in range(g)],
        )
        # Jittered rollout-time log-probs spread the ratios so the clip branch
        # is exercised; they are constants of the objective either way.
        for traj in trajs:
            traj.old_logprobs = traj.old_logprobs + rng.normal(scale=0.25, size=t)
        rewards = rng.random(g)
        advantages, _ = grpo.group_advantages(rewards)
        group = grpo.Group(
            prompt=prompt,
            trajectories=trajs,
            rewards=rewards,
            advantages=advantages,
        )
        loss = grpo.LossPass([group], arch, ref_params, config)
        if _objective_is_generic(group, params, loss):
            return params, loss


def _objective_is_generic(group, params, loss) -> bool:
    """No term is impossible (ratio 0), near a clip edge or near a selection boundary."""
    margin = 1e-3
    lo, hi = 1.0 - loss.config.clip_eps, 1.0 + loss.config.clip_eps
    ratio = loss._pass(params.params, None)[1]
    if np.any((ratio == 0.0) | (np.abs(ratio - lo) < margin) | (np.abs(ratio - hi) < margin)):
        return False
    batch = forward_encoded(params, loss.inputs)
    return not any(
        _near_selection_boundary(batch.probs(i), group.trajectories[j].outcomes[t])
        for i, (j, t) in enumerate(zip(loss.owners, loss.steps))
    )


class D3pmReport(NamedTuple):
    worst_row_sum: float
    worst_marginal_diff: float
    worst_posterior_diff: float
    min_elbo_term: float
    worst_true_posterior_elbo: float

    passed = property(_within_bounds)

    def checks(self) -> list[tuple]:
        return [
            ("worst row-sum deviation", self.worst_row_sum, "<=", 1e-12),
            ("worst closed-form marginal gap", self.worst_marginal_diff, "<=", 1e-12),
            ("worst posterior vs paths gap", self.worst_posterior_diff, "<=", 1e-12),
            ("smallest elbo term", self.min_elbo_term, ">=", -1e-15),
            ("elbo at the true posterior", self.worst_true_posterior_elbo, "<=", 1e-12),
        ]


def run_d3pm_suite(seed: int = 0) -> D3pmReport:
    """Property suite for the discrete-diffusion companion module."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_row = 0.0
    worst_marg = 0.0
    worst_post = 0.0
    min_term = np.inf
    worst_true_elbo = 0.0
    for kind in dd.MatrixKind:
        for _ in range(20):
            num_states = int(rng.integers(2, 5))
            steps = int(rng.integers(1, 65))
            rates = rng.uniform(0.0, 1.0, size=steps)
            cum = np.eye(num_states)
            for rate in rates:
                q = dd.BUILDERS[kind](num_states, rate)
                worst_row = _worst(worst_row, float(np.abs(q.sum(axis=1) - 1.0).max()))
                cum = cum @ q
                worst_row = _worst(worst_row, float(np.abs(cum.sum(axis=1) - 1.0).max()))
            if kind is dd.MatrixKind.ABSORBING:
                survive = float(np.prod(1.0 - rates))
                for x0 in range(num_states - 1):
                    closed = np.zeros(num_states)
                    closed[x0] = survive
                    closed[-1] = 1.0 - survive
                    marg = dd.forward_marginal(x0, num_states, rates, kind)
                    worst_marg = _worst(worst_marg, float(np.abs(marg - closed).max()))
    for kind in dd.MatrixKind:
        for _ in range(10):
            num_states = int(rng.integers(2, 5))
            max_steps = int(np.floor(np.log(10**4) / np.log(num_states)))
            steps = int(rng.integers(1, max_steps + 1))
            rates = rng.uniform(0.05, 0.95, size=steps)
            q_t = dd.BUILDERS[kind](num_states, rates[-1])
            qbar_prev = dd.cumulative_q(num_states, rates[:-1], kind)
            marg = dd.forward_marginal(0, num_states, rates, kind)
            for x_t in range(num_states):
                if marg[x_t] <= 0.0:
                    continue
                fast = dd.reverse_posterior(x_t, 0, q_t, qbar_prev)
                slow = dd.reverse_posterior_enumerated(x_t, 0, num_states, rates, kind)
                worst_post = _worst(worst_post, float(np.abs(fast - slow).max()))
    for kind in dd.MatrixKind:
        for _ in range(5):
            num_states = int(rng.integers(2, 4))
            steps = int(rng.integers(1, 4))
            rates = rng.uniform(0.1, 0.9, size=steps)
            x0 = int(rng.integers(0, num_states - 1 if kind is dd.MatrixKind.ABSORBING else num_states))
            true_pred = np.zeros((steps, num_states, num_states))
            true_pred[:, :, x0] = 1.0
            terms, total = dd.elbo_terms(x0, num_states, rates, kind, true_pred)
            worst_true_elbo = _worst(worst_true_elbo, abs(total))
            noisy = rng.dirichlet(np.ones(num_states), size=(steps, num_states))
            terms, _ = dd.elbo_terms(x0, num_states, rates, kind, noisy)
            min_term = -_worst(-min_term, -float(terms.min()))  # the smallest, NaN kept
    return D3pmReport(
        worst_row_sum=worst_row,
        worst_marginal_diff=worst_marg,
        worst_posterior_diff=worst_post,
        min_elbo_term=float(min_term),
        worst_true_posterior_elbo=worst_true_elbo,
    )


def _write_report(out, name: str, header: str, report) -> int:
    """Each quantity next to the bound it is checked against, then the verdict."""
    out.write(f"{name}: {header}\n")
    for label, value, rel, bound in report.checks():
        text = f"{value:.3e}" if isinstance(value, float) else str(value)
        out.write(f"  {label:<48} = {text}" + ("\n" if rel is None else f"  (bound {rel} {bound:g})\n"))
    out.write(f"{name}: {'PASS' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 1


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must lie in [0, 2**128), the keys a Philox stream takes, got {seed}")


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    _check_seed(seed)


def cmd_verify(trials: int, seed: int, out=None) -> int:
    _check_run(trials, seed)
    return _write_report(out or sys.stdout, "verify", f"trials={trials}", run_verify(trials, seed))


def cmd_gradcheck(trials: int, seed: int, out=None) -> int:
    _check_run(trials, seed)
    header = f"trials={trials} per definition plus objective"
    return _write_report(out or sys.stdout, "gradcheck", header, run_gradcheck(trials, seed))


def cmd_d3pm(out=None) -> int:
    return _write_report(out or sys.stdout, "d3pm", "property suite", run_d3pm_suite())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maskgrpo",
        description="Desk-scale GRPO fine-tuning of masked parallel-unmasking policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment from a config file")
    p_train.add_argument("-c", "--config", required=True)
    p_train.add_argument("-o", "--out-dir", default=None)

    p_sample = sub.add_parser("sample", help="decode canvases from a checkpoint")
    p_sample.add_argument("-k", "--checkpoint", required=True)
    p_sample.add_argument("-p", "--prompt", required=True, help="pattern:T0,T1,... or count:VALUE,TARGET")
    p_sample.add_argument("-n", "--count", type=int, default=1)
    p_sample.add_argument("-T", "--steps", type=int, default=0)
    p_sample.add_argument("--schedule", choices=_CHOICES["schedule"], default="cosine")
    p_sample.add_argument(
        "--kind",
        choices=_CHOICES["transition"],
        default="unmasked",
        help="log-prob definition for the dump; the kept-only default stays defined on tied confidences",
    )
    p_sample.add_argument("--temperature", type=float, default=1.0)
    p_sample.add_argument("-s", "--seed", type=int, default=0)

    p_verify = sub.add_parser("verify", help="brute-force oracle comparison")
    p_verify.add_argument("-n", "--trials", type=int, default=1000)
    p_verify.add_argument("-s", "--seed", type=int, default=0)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("-n", "--trials", type=int, default=100)
    p_grad.add_argument("-s", "--seed", type=int, default=0)

    sub.add_parser("d3pm", help="discrete-diffusion property suite")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args.config, args.out_dir)
        if args.command == "sample":
            return cmd_sample(
                args.checkpoint,
                args.prompt,
                args.count,
                steps=args.steps,
                schedule=args.schedule,
                kind=args.kind,
                temperature=args.temperature,
                seed=args.seed,
            )
        if args.command == "verify":
            return cmd_verify(args.trials, args.seed)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.trials, args.seed)
        return cmd_d3pm()
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
