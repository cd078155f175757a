"""Iterative parallel-unmasking decoder.

Each iteration samples a token for every masked position, scores each sample
by its own probability (its confidence), keeps the scheduled number of most
confident samples with ``transition.cam_select``, and remasks the rest; no
exploration noise is added to the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import transition
from .canvas import CanvasState, Prompt, UnmaskSchedule, apply_step
from .policy import PolicyParams, ProbMatrix, encode_batch, forward_encoded
from .transition import StepOutcome, cam_select

__all__ = [
    "Trajectory",
    "sample_step",
    "draw_outcome",
    "rollout",
    "rng_for_stream",
    "dump_trajectory",
]


def rng_for_stream(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by ``seed``; callers XOR a stream tag into it.
    Philox refuses a key outside ``[0, 2**128)``."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass
class Trajectory:
    """Full decoding rollout: T+1 canvas states plus per-step bookkeeping.

    ``old_logprobs`` carries the log transition probability of each step under
    the policy that generated it, for the chosen probability definition.
    """

    states: list[CanvasState]
    outcomes: list[StepOutcome]
    old_logprobs: np.ndarray
    prompt: Prompt
    kind: "transition.TransitionKind"
    temperature: float
    seed: int

    @property
    def total_steps(self) -> int:
        return len(self.outcomes)

    @property
    def final_state(self) -> CanvasState:
        return self.states[-1]


def sample_step(probs: ProbMatrix, rng: np.random.Generator):
    """Sample every row independently; confidence is the sampled token's probability."""
    rows = probs.rows
    m, k = rows.shape
    u = rng.random(m)
    cum = np.cumsum(rows, axis=1)
    # u is scaled by the row total so slightly-under-1 sums stay unbiased; the
    # >= keeps zero-probability tokens unreachable and the clamp guards the
    # top edge.  Never samples the mask category (rows have width K).
    sampled = np.minimum((u[:, None] * cum[:, -1:] >= cum).sum(axis=1), k - 1)
    confidences = rows[np.arange(m), sampled]
    return sampled.astype(np.int64), confidences


def draw_outcome(probs: ProbMatrix, rng: np.random.Generator, num_to_keep: int) -> StepOutcome:
    """One decode step's draw: sample every row, then keep the most confident."""
    sampled, confidences = sample_step(probs, rng)
    chosen = cam_select(confidences, num_to_keep)
    return StepOutcome(sampled, confidences, chosen, probs.positions)


def rollout(
    params: PolicyParams,
    prompt: Prompt,
    schedule: UnmaskSchedule,
    kind: "transition.TransitionKind",
    temperature: float = 1.0,
    seed: int | Sequence[int] = 0,
) -> Trajectory | list[Trajectory]:
    """Decode canvases and record everything needed to re-score them later.

    An integer ``seed`` decodes one canvas and returns its ``Trajectory``.  A
    sequence of seeds decodes a group, one canvas per seed, and returns their
    trajectories in order: every step runs one policy forward for the whole
    group, and each member samples from its own seed's stream, so member
    ``j`` is the rollout of ``seed[j]`` alone.
    """
    if not isinstance(kind, transition.TransitionKind):
        raise ValueError(f"kind must be a TransitionKind, got {kind!r}")
    arch = params.arch
    if schedule.total_tokens != arch.length:
        raise ValueError("schedule does not cover the canvas")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    size = len(seeds)
    rngs = [rng_for_stream(s) for s in seeds]
    blank = CanvasState.all_masked(arch.length, arch.num_categories)
    states = [[blank] for _ in seeds]
    outcomes: list[list[StepOutcome]] = [[] for _ in seeds]
    old_logprobs = np.zeros((size, schedule.total_steps))
    for t, n_t in enumerate(schedule.counts):
        inputs = encode_batch(arch, [member[-1] for member in states], [prompt] * size, [temperature] * size)
        batch = forward_encoded(params, inputs)
        for b, rng in enumerate(rngs):
            probs = batch.probs(b)
            outcome = draw_outcome(probs, rng, n_t)
            old_logprobs[b, t] = transition.step_logprob(kind, probs, outcome)
            states[b].append(
                apply_step(states[b][-1], outcome.chosen_positions(), outcome.chosen_values())
            )
            outcomes[b].append(outcome)
    trajectories = [
        Trajectory(
            states=states[b],
            outcomes=outcomes[b],
            old_logprobs=old_logprobs[b],
            prompt=prompt,
            kind=kind,
            temperature=temperature,
            seed=seeds[b],
        )
        for b in range(size)
    ]
    return trajectories[0] if single else trajectories


def dump_trajectory(traj: Trajectory, fh) -> None:
    """Line-oriented debug dump of one rollout."""
    for t, outcome in enumerate(traj.outcomes):
        pos = ",".join(map(str, outcome.chosen_positions()))
        vals = ",".join(map(str, outcome.chosen_values()))
        confs = ",".join(f"{c:.6f}" for c in outcome.confidences)
        fh.write(
            f"step={t} chosen_positions=[{pos}] values=[{vals}] "
            f"confidences=[{confs}] logprob={traj.old_logprobs[t]:.6f}\n"
        )
    final = "".join(str(v) for v in traj.final_state.tokens)
    fh.write(f"final={final}\n")
