"""Dynamic sample filtering on group reward spread.

Groups whose reward standard deviation falls below a running percentile of
recent group spreads are resampled: a low-spread group carries almost no
ranking signal once rewards are normalised within the group.  Every generated
group's spread enters the history, including rejected ones; dropping them
would ratchet the threshold upward without bound.  A finite retry budget keeps
the trainer making progress: a low-spread group with no retry left is
``EXHAUSTED`` and the caller uses it anyway.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StdHistory", "Decision", "threshold", "admit"]


class Decision(enum.Enum):
    ACCEPT = "accept"
    RESAMPLE = "resample"
    EXHAUSTED = "exhausted"


@dataclass
class StdHistory:
    """Ring buffer of recent group reward spreads plus the filter settings."""

    window: int = 200
    percentile: float = 10.0
    warmup_min: int = 20
    max_resamples: int = 5
    values: deque = field(init=False)

    def __post_init__(self):
        for ok, name, rule in (
            (0.0 < self.percentile < 100.0, "percentile", "lie in (0, 100)"),
            (self.window >= 1, "window", "be at least 1"),
            (self.warmup_min >= 1, "warmup_min", "be at least 1"),
            (self.warmup_min <= self.window, "warmup_min", f"be at most window ({self.window})"),
            (self.max_resamples >= 0, "max_resamples", "be nonnegative"),
        ):
            if not ok:
                raise ValueError(f"filter {name} must {rule}, got {getattr(self, name)!r}")
        self.values = deque(maxlen=self.window)

    def push(self, group_std: float) -> None:
        self.values.append(float(group_std))

    def __len__(self) -> int:
        return len(self.values)


def threshold(history: StdHistory) -> float | None:
    """Percentile of the buffered spreads, or None while warming up.

    Uses linear interpolation between closest order statistics.
    """
    if len(history) < history.warmup_min:
        return None
    values = np.fromiter(history.values, dtype=np.float64)
    return float(np.percentile(values, history.percentile))


def admit(history: StdHistory, group_std: float, resamples_used: int = 0) -> Decision:
    """Decide on one freshly generated group.

    The group's spread is recorded in the history either way.  A group is
    accepted unless the threshold is active and its spread lies below it;
    then it is resampled while retry budget remains, and ``EXHAUSTED`` once
    ``resamples_used`` reaches ``max_resamples``.
    """
    cutoff = threshold(history)
    history.push(group_std)
    if cutoff is None or group_std >= cutoff:
        return Decision.ACCEPT
    if resamples_used >= history.max_resamples:
        return Decision.EXHAUSTED
    return Decision.RESAMPLE
