"""The benchmark's four workloads.

Each workload makes its inputs from the seed, finishes its set-up, then
times whole ops until ``seconds`` have passed and at least ``MIN_OPS`` ops
are done, so that the 90th percentile has ten samples beyond it.  Checks run
outside the timed ops.  A workload returns a ``Run``; the program's maskgrpo
package must be importable before this module is imported.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import maskgrpo as mg
from maskgrpo import grpo, harness
from maskgrpo.transition import DegenerateOutcomeError

import checks
import hostspeed
from tracer import REWARDS

MIN_OPS = 100
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# The paper's recipe (EXACT transition, no KL term, spread filter on, one
# inner epoch) at two shapes; everything else is the ExperimentConfig default.
SHAPES = {
    "train_default": dict(canvas_n=16, canvas_k=4, hidden=64, steps=8),
    "train_large": dict(canvas_n=64, canvas_k=8, hidden=256, steps=16),
}
# The host-speed kernel whose work resembles each workload's (see hostspeed).
KERNEL = {"train_default": "small", "train_large": "blas", "sample_decode": "small", "oracle_verify": "small"}
FD_COORDS = 16
FD_CANDIDATES = 48
# Rounds of oracle_verify: one run_verify of this many trials, one
# run_gradcheck of one trial per definition, then every tie instance.
VERIFY_TRIALS = 20
GRADCHECK_TRIALS = 1
# Seed tags keep the benchmark's own random streams apart.
_TAG_TARGET = 1 << 60
_TAG_PROBE = 2 << 60
_TAG_ROUND = 3 << 60
_TAG_DECODE = 4 << 56  # the stream tag of `maskgrpo sample`


@dataclass
class Run:
    """What one workload run measured and found.

    ``op_s[i]`` is the wall time of op ``i``; ``kernel_s`` holds the
    host-speed kernel's time before the first op and after every op.
    """

    kernel: str
    setup_s: float = 0.0
    op_s: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def start_timing(self, age) -> None:
        """End of set-up: note its time, then time the kernel before the first op."""
        self.setup_s = age()
        self.kernel_s.append(hostspeed.sample_kernel(self.kernel, 0.0))

    def record(self, op_s: float) -> None:
        self.op_s.append(op_s)
        self.kernel_s.append(hostspeed.sample_kernel(self.kernel, op_s))

    def scale_factors(self) -> np.ndarray:
        return hostspeed.scale_factors(self.kernel, self.kernel_s)


def _rng(seed: int, tag: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) ^ tag) & ((1 << 128) - 1)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _target(seed: int, n: int, k: int) -> tuple[int, ...]:
    return tuple(int(v) for v in _rng(seed, _TAG_TARGET).integers(0, k, size=n))


class _Stop(Exception):
    """Raised from the metrics callback to end training at the deadline."""

    def __init__(self, params):
        super().__init__()
        self.params = params


def train(name: str, seed: int, seconds: float, tracer, age) -> Run:
    """One op is one training iteration with its resamples, timed callback to callback."""
    shape = SHAPES[name]
    target = _target(seed, shape["canvas_n"], shape["canvas_k"])
    cfg = harness.ExperimentConfig(
        **shape,
        seed=seed,
        reward_target=",".join(map(str, target)),
        iterations=10**9,
        eval_rollouts=0,
    )
    setup = cfg.train_setup()
    if tracer is not None:
        setup.reward_fn = tracer.wrap(REWARDS, setup.reward_fn)
    run = Run(KERNEL[name])
    rows: list[dict] = []
    deadline = math.inf
    started = 0.0
    early = None

    def on_metrics(row: dict, params) -> None:
        nonlocal deadline, started, early
        now = time.perf_counter()
        rows.append(row)
        if len(rows) == 1:
            # Iteration 0 is the warm-up; the first timed op starts here.
            early = params.copy()
            run.start_timing(age)
            deadline = now + seconds
        else:
            if tracer is not None:
                tracer.active = False
            run.record(now - started)
            if now >= deadline and len(run.op_s) >= MIN_OPS:
                run.peak_rss_mb = _peak_rss_mb()
                raise _Stop(params)
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()

    try:
        grpo.train(setup, on_metrics=on_metrics)
    except _Stop as stop:
        final = stop.params
    run.attempted = len(run.op_s)
    run.problems += checks.check_train_rows(rows)
    run.problems += checks.check_reward_gain([row["mean_reward"] for row in rows])
    # The final parameters of a saturated run have gradients below what
    # finite differences resolve, so the parameters after the warm-up
    # iteration are probed too.
    scales = []
    for label, params in (("warm-up", early), ("final", final)):
        problems, scale = gradient_probe(params, cfg, seed)
        run.problems += [f"{label} parameters: {p}" for p in problems]
        scales.append(scale)
    if not max(scales) >= checks.FD_MIN_SCALE:
        run.problems.append(f"gradient probes show nothing: largest entry {max(scales):.3g}")
    return run


def _structure(group, params) -> list[bytes]:
    """The pieces an EXACT step log-probability is smooth within, per step.

    A step's value depends smoothly on the rows while the kept row holding
    the smallest confidence and, at every remasked row, the set of tokens
    below that confidence stay the same.
    """
    out = []
    for traj in group.trajectories:
        for state, outcome in zip(traj.states, traj.outcomes):
            rows = mg.policy_forward(params, state, traj.prompt, traj.temperature).rows
            kept = np.flatnonzero(outcome.chosen)
            confs = rows[kept, outcome.sampled[kept]]
            threshold_row = kept[int(np.argmin(confs))]
            below = rows[~outcome.chosen] < confs.min()
            out.append(threshold_row.tobytes() + np.packbits(below).tobytes())
    return out


def gradient_probe(params, cfg, seed: int) -> tuple[list[str], float]:
    """Finite differences of the surrogate at ``params``.

    Returns the problems found and the largest probed analytic entry.  A
    fresh group is rolled out at ``params`` with advantages
    standardised from random rewards, so the probe is not empty once rewards
    saturate.  Candidate coordinates are the largest analytic entries, then
    random nonzero ones; a coordinate whose difference stencil crosses a
    piece boundary of the EXACT definition (see ``_structure``) is passed
    over, because central differences do not apply there.
    """
    config = cfg.grpo_config()
    prompt = cfg.prompt()
    schedule = mg.schedule_cosine(cfg.steps, cfg.canvas_n)
    rng = _rng(seed, _TAG_PROBE)
    trajs = [
        mg.rollout(
            params,
            prompt,
            schedule,
            config.kind,
            temperature=config.temperature,
            seed=int(rng.integers(2**62)),
        )
        for _ in range(config.group_size)
    ]
    rewards = rng.random(config.group_size)
    advantages = (rewards - rewards.mean()) / rewards.std()
    group = grpo.Group(prompt=prompt, trajectories=trajs, rewards=rewards, advantages=advantages)

    params.zero_grads()
    grpo.grpo_loss_and_grad([group], params, None, config)
    analytic = -params.grads  # the accumulated gradient is of the negated objective
    params.zero_grads()
    magnitude = np.abs(analytic)
    nonzero = np.flatnonzero(magnitude > 0.0)
    top = nonzero[np.argsort(-magnitude[nonzero], kind="stable")[: FD_COORDS // 2]]
    drawn = rng.permutation(np.setdiff1d(nonzero, top))
    candidates = np.concatenate([top, drawn])[: FD_CANDIDATES]

    def objective() -> float:
        return grpo.grpo_loss_and_grad([group], params, None, config, compute_grad=False)[0]

    base = _structure(group, params)
    coords = []
    for i in candidates:
        if len(coords) == FD_COORDS:
            break
        original = params.params[i]
        smooth = True
        for shift in (checks.FD_STEP, -checks.FD_STEP):
            params.params[i] = original + shift
            smooth = smooth and _structure(group, params) == base
        params.params[i] = original
        if smooth:
            coords.append(int(i))
    if len(coords) < FD_COORDS // 2:
        return [f"only {len(coords)} of {candidates.size} coordinates are away from a piece boundary"], 0.0
    numeric = checks.fd_numeric(objective, params.params, coords)
    return checks.check_gradient(analytic[coords], numeric), float(magnitude[coords].max())


def sample_decode(seed: int, seconds: float, tracer, age) -> Run:
    """One op is one rollout of `maskgrpo sample` from a checkpoint at the default shape."""
    arch = mg.PolicyArch(length=16, num_categories=4, hidden=64, embed=16)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"sample_decode-{seed}-{os.getpid()}.ckpt")
    mg.save_checkpoint(mg.init_params(arch, seed), path)
    try:
        params = mg.load_checkpoint(path, expect_arch=arch)
    finally:
        os.remove(path)
    target = _target(seed, arch.length, arch.num_categories)
    prompt = mg.Prompt.pattern_match(target, arch.num_categories, arch.embed)
    schedule = mg.schedule_cosine(8, arch.length)
    kind = mg.TransitionKind.UNMASKED_ONLY  # the `maskgrpo sample` default
    base = int(_rng(seed, _TAG_PROBE).integers(2**55))

    def decode(i: int):
        return mg.rollout(params, prompt, schedule, kind, seed=base ^ (_TAG_DECODE | i))

    def rows_at(state):
        return mg.policy_forward(params, state, prompt).rows

    for i in range(5):  # warm-up
        decode(i)
    run = Run(KERNEL["sample_decode"])
    first_step = np.zeros((arch.length, arch.num_categories), dtype=np.int64)
    run.start_timing(age)
    deadline = time.perf_counter() + seconds
    i = 5
    while True:
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        traj = decode(i)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        run.record(t1 - t0)
        i += 1
        first_step[np.arange(arch.length), traj.outcomes[0].sampled] += 1
        problems = checks.check_rollout(traj, schedule.counts, rows_at)
        run.problems += [f"rollout {i}: {p}" for p in problems]
        if t1 >= deadline and len(run.op_s) >= MIN_OPS:
            break
    run.peak_rss_mb = _peak_rss_mb()
    run.attempted = len(run.op_s)
    blank = mg.CanvasState.all_masked(arch.length, arch.num_categories)
    run.problems += checks.check_first_step_samples(first_step, rows_at(blank))
    return run


@dataclass
class TieCase:
    """A constructed confidence tie: rows, keep count and the sampled tokens."""

    name: str
    rows: np.ndarray
    keep: int
    sampled: tuple[int, ...]

    def prepare(self):
        probs = mg.ProbMatrix.from_rows(self.rows)
        confs = probs.rows[np.arange(probs.num_rows), list(self.sampled)]
        kept = checks.keep_order(confs, probs.positions, self.keep)
        chosen = np.isin(probs.positions, kept)
        outcome = mg.StepOutcome(
            sampled=np.array(self.sampled, dtype=np.int64),
            confidences=confs,
            chosen=chosen,
            positions=probs.positions,
        )
        signature = (tuple(kept), tuple(self.sampled[r] for r in np.flatnonzero(chosen)))
        truth = checks.next_state_probability(probs.rows, probs.positions, self.keep, signature)
        return probs, outcome, signature, truth


def _softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# Both fail under the strict threshold of `logprob_exact`: the first gives
# 7.2e-35 for a next canvas of probability 1, the second finds no mass below
# the threshold and raises.  They are counted as failed ops until that fault
# is fixed, and their inputs do not depend on the seed.
TIE_CASES = (
    TieCase("saturated-3x3", _softmax([[40.0, 0.0, 0.0]] * 3), 1, (0, 0, 0)),
    TieCase("even-2x2", np.full((2, 2), 0.5), 1, (0, 0)),
)


def oracle_verify(seed: int, seconds: float, tracer, age) -> Run:
    """One op is one round: run_verify, run_gradcheck and every tie instance."""
    cases = [case.prepare() for case in TIE_CASES]
    harness.run_verify(5, seed)  # warm-up
    run = Run(KERNEL["oracle_verify"])
    run.start_timing(age)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        round_seed = int(_rng(seed + (rounds << 64), _TAG_ROUND).integers(2**62))
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        verify = harness.run_verify(VERIFY_TRIALS, round_seed)
        gradcheck = harness.run_gradcheck(GRADCHECK_TRIALS, round_seed)
        results = []
        for probs, outcome, signature, _ in cases:
            table = mg.enumerate_next_states(probs, outcome.num_chosen)
            try:
                logp = mg.step_logprob(mg.TransitionKind.EXACT, probs, outcome)
            except DegenerateOutcomeError:
                logp = None
            results.append((table, logp))
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        run.record(t1 - t0)
        rounds += 1
        if not verify.passed:
            run.problems.append(f"round {rounds}: run_verify({VERIFY_TRIALS}, {round_seed}) failed: {verify}")
        if not gradcheck.passed:
            run.problems.append(f"round {rounds}: run_gradcheck({GRADCHECK_TRIALS}, {round_seed}) failed: {gradcheck}")
        run.attempted += 2 + len(cases)
        for (probs, outcome, signature, truth), (table, logp), case in zip(cases, results, TIE_CASES):
            enumerated = table.get(signature, 0.0)
            if abs(enumerated - truth) > checks.TIE_TOL:
                run.problems.append(f"{case.name}: enumeration gives {enumerated!r}, brute force {truth!r}")
            if logp is None or abs(math.exp(logp) - truth) > checks.TIE_TOL:
                run.failed += 1
        if t1 >= deadline and rounds >= MIN_OPS:
            break
    run.peak_rss_mb = _peak_rss_mb()
    return run


WORKLOADS = {
    "train_default": functools.partial(train, "train_default"),
    "train_large": functools.partial(train, "train_large"),
    "sample_decode": sample_decode,
    "oracle_verify": oracle_verify,
}
