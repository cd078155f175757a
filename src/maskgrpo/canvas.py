"""Token canvas state, unmasking schedules, and prompts.

A canvas is a fixed-length sequence of categorical tokens that starts fully
masked and is revealed over a fixed number of decoding iterations.  The mask
is represented as one extra category with value ``K`` so that masked and
unmasked positions share a single one-hot encoding of width ``K + 1``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CanvasState",
    "UnmaskSchedule",
    "TaskKind",
    "Prompt",
    "schedule_cosine",
    "schedule_uniform",
    "SCHEDULES",
    "apply_step",
]


@dataclass(frozen=True)
class CanvasState:
    """Immutable snapshot of the token sequence at one decoding iteration.

    ``tokens[i] == K`` exactly when ``mask_flags[i]`` is set; unmasked
    positions hold values in ``[0, K)``.
    """

    tokens: np.ndarray
    mask_flags: np.ndarray
    num_categories: int
    iteration: int = 0

    def __post_init__(self):
        tokens = np.ascontiguousarray(self.tokens, dtype=np.int64)
        flags = np.ascontiguousarray(self.mask_flags, dtype=bool)
        if tokens.ndim != 1 or flags.shape != tokens.shape:
            raise ValueError("tokens and mask_flags must be 1-D and same length")
        if tokens.size < 1:
            raise ValueError("canvas length must be >= 1")
        if self.num_categories < 2:
            raise ValueError("need at least 2 token categories")
        mask_value = self.num_categories
        if np.any((tokens < 0) | (tokens > mask_value)):
            raise ValueError("token values out of range")
        if np.any((tokens == mask_value) != flags):
            raise ValueError("mask flags inconsistent with mask sentinel tokens")
        tokens.setflags(write=False)
        flags.setflags(write=False)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "mask_flags", flags)

    @classmethod
    def all_masked(cls, length: int, num_categories: int) -> "CanvasState":
        """Blank canvas: every position masked, iteration 0."""
        return cls(
            tokens=np.full(length, num_categories, dtype=np.int64),
            mask_flags=np.ones(length, dtype=bool),
            num_categories=num_categories,
            iteration=0,
        )

    @property
    def length(self) -> int:
        return self.tokens.size

    @property
    def num_masked(self) -> int:
        return int(self.mask_flags.sum())


@dataclass(frozen=True)
class UnmaskSchedule:
    """Number of positions revealed per iteration; entries sum to the canvas length."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) < 1 or any(c < 1 for c in counts):
            raise ValueError("every schedule step must unmask at least one token")
        object.__setattr__(self, "counts", counts)

    @property
    def total_steps(self) -> int:
        return len(self.counts)

    @property
    def total_tokens(self) -> int:
        return sum(self.counts)


def schedule_cosine(total_steps: int, length: int) -> UnmaskSchedule:
    """Cosine-curved schedule: few tokens unmasked early, many late.

    Cumulative reveal follows ``1 - cos(pi/2 * t/T)``.  Counts are integerised
    with a floor of one per step and sorted ascending, which keeps the sum
    exact and the sequence nondecreasing.
    """
    _check_schedule_args(total_steps, length)
    extras = length - total_steps
    frac = (np.arange(total_steps + 1) / total_steps) * (math.pi / 2.0)
    cum_curve = 1.0 - np.cos(frac)
    weights = np.diff(cum_curve)
    cum_extras = np.floor(extras * np.cumsum(weights) / cum_curve[-1] + 1e-9)
    counts = 1 + np.diff(np.concatenate(([0.0], cum_extras))).astype(int)
    return UnmaskSchedule(counts=tuple(sorted(counts.tolist())))


def schedule_uniform(total_steps: int, length: int) -> UnmaskSchedule:
    """As-equal-as-possible schedule; the remainder goes to the final steps."""
    _check_schedule_args(total_steps, length)
    base, rem = divmod(length, total_steps)
    counts = (base,) * (total_steps - rem) + (base + 1,) * rem
    return UnmaskSchedule(counts=counts)


SCHEDULES = {"cosine": schedule_cosine, "uniform": schedule_uniform}


def _check_schedule_args(total_steps: int, length: int) -> None:
    if total_steps < 1 or length < 1:
        raise ValueError("steps and length must be positive")
    if total_steps > length:
        raise ValueError(
            f"cannot unmask at least one token per step: T={total_steps} > N={length}"
        )


def apply_step(state: CanvasState, positions, values) -> CanvasState:
    """Return the next canvas with ``positions`` unmasked to ``values``.

    Every position must currently be masked; values must be integers in
    ``[0, K)``.  The input state is left untouched.
    """
    positions, values = _integers(positions, "positions"), _integers(values, "values")
    if positions.shape != values.shape:
        raise ValueError("positions and values must align")
    if positions.size:
        if np.any((positions < 0) | (positions >= state.length)):
            raise ValueError("position out of range")
        if np.bincount(positions).max() > 1:
            raise ValueError("duplicate positions in one step")
        if not state.mask_flags[positions].all():
            raise ValueError("cannot rewrite an already unmasked position")
        if np.any((values < 0) | (values >= state.num_categories)):
            raise ValueError("token value out of range")
    tokens = state.tokens.copy()
    flags = state.mask_flags.copy()
    tokens[positions] = values
    flags[positions] = False
    return CanvasState(
        tokens=tokens,
        mask_flags=flags,
        num_categories=state.num_categories,
        iteration=state.iteration + 1,
    )


def _integers(a, name: str) -> np.ndarray:
    """``a`` flattened to int64; a non-empty ``a`` of another dtype kind is refused,
    since converting would truncate ``0.9`` to ``0``."""
    a = np.asarray(a).reshape(-1)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


class TaskKind(enum.Enum):
    PATTERN_MATCH = "pattern"
    TOKEN_COUNT = "count"


# Keys for the fixed random projections behind prompt embeddings.  These are
# constants of the encoding, independent of any experiment seed.
_EMBED_KEY_PATTERN = 0x70617474
_EMBED_KEY_COUNT = 0x636F756E


@dataclass(frozen=True)
class Prompt:
    """Conditioning input: a task descriptor plus a fixed-width embedding.

    The embedding is a pure function of (task kind, payload), produced by a
    constant-key random projection so that distinct payloads map to distinct
    conditioning vectors.
    """

    task_kind: TaskKind
    payload: tuple
    embedding: np.ndarray = field(compare=False)

    def __post_init__(self):
        emb = np.ascontiguousarray(self.embedding, dtype=np.float64)
        emb.setflags(write=False)
        object.__setattr__(self, "embedding", emb)

    @classmethod
    def pattern_match(cls, target, num_categories: int, embed_dim: int) -> "Prompt":
        """Prompt asking the canvas to reproduce ``target`` position-for-position."""
        target = tuple(int(v) for v in target)
        if any(v < 0 or v >= num_categories for v in target):
            raise ValueError("target token out of range")
        onehot = np.zeros(len(target) * num_categories)
        onehot[np.arange(len(target)) * num_categories + np.array(target)] = 1.0
        emb = _project(onehot, embed_dim, _EMBED_KEY_PATTERN)
        return cls(task_kind=TaskKind.PATTERN_MATCH, payload=target, embedding=emb)

    @classmethod
    def token_count(
        cls, value: int, count: int, length: int, num_categories: int, embed_dim: int
    ) -> "Prompt":
        """Prompt asking for exactly ``count`` occurrences of token ``value``."""
        if not 0 <= value < num_categories:
            raise ValueError("target token out of range")
        if not 0 <= count <= length:
            raise ValueError("target count out of range")
        features = np.zeros(num_categories + 1)
        features[value] = 1.0
        features[-1] = count / length
        emb = _project(features, embed_dim, _EMBED_KEY_COUNT)
        return cls(task_kind=TaskKind.TOKEN_COUNT, payload=(value, count), embedding=emb)


def _project(features: np.ndarray, embed_dim: int, key: int) -> np.ndarray:
    if embed_dim < 1:
        raise ValueError("embedding width must be positive")
    rng = np.random.Generator(np.random.Philox(key=key + (features.size << 32)))
    proj = rng.normal(size=(embed_dim, features.size)) / math.sqrt(features.size)
    return proj @ features
