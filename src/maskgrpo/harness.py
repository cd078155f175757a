"""Experiment harness: config files and the CLI entry point.

Config files are flat ``key=value`` text, one key per line, ``#`` comments.
Unknown keys are errors; missing keys take the documented defaults.  The CLI
exposes training, sampling from a checkpoint, and the verification suites of
:mod:`maskgrpo.oracles`: the transition-probability oracle comparison,
finite-difference gradient checks, and the discrete-diffusion property
suite.  Exit codes: 0 ok, 1 a verification assertion failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import filtering, grpo
from .canvas import SCHEDULES, Prompt, TaskKind
from .decoder import dump_trajectory, rollout
from .oracles import run_d3pm_suite, run_gradcheck, run_verify
from .policy import CheckpointError, PolicyArch, PolicyParams, load_checkpoint, save_checkpoint
from .rewards import reward_fn_for
from .transition import TransitionKind

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
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
            reduction=grpo.Reduction(
                grpo.ReductionKind(self.reduction), self.subset_start, self.subset_stop, self.train_steps
            ),
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

    def train_setup(self) -> grpo.TrainSetup:
        return grpo.TrainSetup(
            config=self.grpo_config(),
            arch=self.arch(),
            reward_fn=reward_fn_for(TaskKind(self.reward)),
            prompt=self.prompt(),
            schedule_kind=self.schedule,
            total_steps=self.steps,
            filter_settings=filtering.StdHistory(
                window=self.filter_window,
                percentile=self.filter_q,
                warmup_min=self.filter_warmup,
                max_resamples=self.filter_max_resamples,
            ),
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


def _write_report(out, name: str, header: str, report) -> int:
    """Each quantity next to the bound it is checked against, then the verdict."""
    out.write(f"{name}: {header}\n")
    for label, value, rel, bound in report.checks:
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
