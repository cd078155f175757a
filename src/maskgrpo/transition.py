"""Keep/remask selection and the per-step transition probabilities it induces.

One step samples a token for every masked position and scores each sample by
its own probability (its confidence).  ``cam_select`` keeps the scheduled
number of samples in the order (confidence descending, index ascending) and
remasks the rest; the lowest-index tie-break makes the selection a
deterministic function of the confidences.

Given the prediction rows for the masked positions and one step's outcome,
one function, ``_score``, gives the log-probability of the move to the next
canvas under all three definitions.  One call scores a stack of steps of one
shape (the loss pass's terms that share a shape) at one parameter vector or
at each copy of a stacked forward, all copies sharing the outcomes:

* ``AR_STYLE``     - product of confidences over every masked position, the
  naive reading that treats each parallel sample as if it were committed.
* ``EXACT``        - product of confidences over the kept positions times,
  for each remasked position, the total probability of the tokens whose
  sample would rank below every kept one.  With ``c_min`` the smallest kept
  confidence and ``j*`` the highest kept row holding it, that support is
  every token of probability below ``c_min``, plus the tokens of probability
  equal to ``c_min`` when the remasked row lies above ``j*``.  This is the
  true probability of the next canvas under ``cam_select``, because every
  remasked sample in the support leads to the same next state.
* ``UNMASKED_ONLY`` - product of confidences over the kept positions alone,
  a cheaper surrogate that ignores the remasked factor entirely.

``_next_state_arrays`` (and its dict view ``enumerate_next_states``, keyed by
plain ``(kept positions, kept tokens)`` tuples) is the independent check: it
walks every joint sampling, selects by its own rule (it shares no code with
``cam_select``), and sums exact next-state probabilities.  The ``EXACT``
definition must agree with it to float precision, ties included.

Gradients treat the support sets and the identity of the minimum-confidence
kept position as locally constant; that is the almost-everywhere gradient of
this piecewise-smooth function, and boundary configurations are excluded
from gradient checks by resampling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
import numpy as np

from .policy import ProbMatrix

__all__ = [
    "StepOutcome",
    "cam_select",
    "TransitionKind",
    "DegenerateOutcomeError",
    "step_logprob",
    "step_logprob_upstream",
    "enumerate_next_states",
]

MAX_ENUMERATION = 10**6


@dataclass(frozen=True)
class StepOutcome:
    """Samples, confidences, and the keep/remask split for one iteration."""

    sampled: np.ndarray
    confidences: np.ndarray
    chosen: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        m = self.positions.size
        if not (self.sampled.shape == self.confidences.shape == self.chosen.shape == (m,)):
            raise ValueError("per-position fields must align with masked positions")

    @property
    def num_chosen(self) -> int:
        return int(self.chosen.sum())

    def chosen_positions(self) -> np.ndarray:
        return self.positions[self.chosen]

    def chosen_values(self) -> np.ndarray:
        return self.sampled[self.chosen]


def cam_select(confidences, num_to_keep: int) -> np.ndarray:
    """Boolean keep-mask for the ``num_to_keep`` most confident rows.

    Ties are broken toward the lowest index, making the selection a total
    order even on degenerate (equal-confidence) inputs.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    if num_to_keep > confidences.size:
        raise ValueError(
            f"cannot keep {num_to_keep} of {confidences.size} candidates"
        )
    order = np.argsort(-confidences, kind="stable")
    chosen = np.zeros(confidences.size, dtype=bool)
    chosen[order[:num_to_keep]] = True
    return chosen


class TransitionKind(enum.Enum):
    AR_STYLE = "ar"
    EXACT = "exact"
    UNMASKED_ONLY = "unmasked"


class DegenerateOutcomeError(ValueError):
    """A factor of the transition probability is exactly zero.

    Raised when a confidence is 0, which only hand-built rows reach, or when
    a remasked position has no token mass in its ``EXACT`` support, which a
    step re-scored at parameters other than those that sampled it reaches
    too.  The public scorers raise it; the loss pass scores such a step as
    impossible.
    """


def _check_consistent(positions, num_categories, outcome_positions, sampled) -> None:
    if positions.shape != outcome_positions.shape or (positions != outcome_positions).any():
        raise ValueError("outcome does not belong to this probability matrix")
    if ((sampled < 0) | (sampled >= num_categories)).any():
        raise ValueError("sampled token out of range")


def _score(
    kind: TransitionKind, rows, log_rows, sampled, chosen, positions, members: int = 1, out=None
) -> np.ndarray:
    """Log-probabilities of ``members`` steps of one shape, scored at once.

    The steps are stacked as in a :class:`~maskgrpo.policy.PolicyBatch`: each
    member owns ``M`` consecutive rows of ``rows``/``log_rows`` (``(..., B*M,
    K)``, any leading axes being parameter copies) and of the outcomes
    ``sampled``, ``chosen`` and ``positions`` (``(B*M,)``, shared by the
    copies); each member keeps as many rows as the others.  Returns ``(...,
    B)``.  With ``out`` (zeros shaped like copy-free ``rows``), also writes
    each step's upstream there: a one-hot at every scored row's sample (all
    rows for ``AR_STYLE``, the kept ones otherwise) and, for ``EXACT``, each
    remasked row's probabilities on its support over the support's mass.  The
    outcomes are trusted to belong to the rows.  With ``positions=None``, an
    empty ``EXACT`` support scores ``-inf`` (zero upstream) instead of raising.
    """
    lead, k = rows.shape[:-2], rows.shape[-1]
    if kind is TransitionKind.AR_STYLE:
        scored, tokens = np.arange(sampled.size), sampled
    elif kind is TransitionKind.EXACT or kind is TransitionKind.UNMASKED_ONLY:
        scored = chosen.nonzero()[0]
        if kind is TransitionKind.EXACT and scored.size == 0:
            raise ValueError("a step must keep at least one position")
        tokens = sampled[scored]
    else:
        raise ValueError(f"kind must be a TransitionKind, got {kind!r}")
    flat = scored * k + tokens
    cs = rows.reshape(lead + (-1,)).take(flat, axis=-1)
    if not cs.all():
        raise DegenerateOutcomeError("confidence of a scored token is exactly zero")
    values = log_rows.reshape(lead + (-1,)).take(flat, axis=-1).reshape(lead + (members, -1)).sum(axis=-1)
    if out is not None:
        out.put(flat, 1.0)
    if kind is not TransitionKind.EXACT:
        return values
    cs = cs.reshape(lead + (members, -1))
    min_cs = np.minimum.reduce(cs, axis=-1)
    remasked = (~chosen).nonzero()[0]
    if remasked.size == 0:
        return values
    rem = rows.take(remasked, axis=-2).reshape(lead + (members, -1, k))
    threshold = min_cs[..., None, None]
    inside = rem < threshold
    tied = rem == threshold
    if tied.any():
        # A tied sample at a row above the last kept row holding ``min_cs``
        # loses the lowest-index tie-break, so it is remasked too.
        last = np.where(cs == min_cs[..., None], scored.reshape(members, -1), -1).max(axis=-1)
        above = remasked.reshape(members, -1) > last[..., None]
        inside |= tied & above[..., None]
    support = np.where(inside, rem, 0.0)
    mass = support.sum(axis=-1)
    if not mass.all():
        empty = mass <= 0.0
        if positions is not None:
            b = np.unravel_index(empty.any(axis=-1).argmax(), values.shape)
            bad = positions[remasked.reshape(members, -1)[b[-1]][empty[b]]]
            raise DegenerateOutcomeError(
                f"remasked positions {bad.tolist()} have no token mass "
                f"that ranks below the selection threshold {min_cs[b]!r}"
            )
        values[empty.any(axis=-1)] = -np.inf
        mass = np.where(empty, 1.0, mass)
    values += np.log(mass).sum(axis=-1)
    if out is not None:
        out[remasked] = (support / mass[..., None]).reshape(-1, k)
    return values


def step_logprob(kind: TransitionKind, probs: ProbMatrix, outcome: StepOutcome) -> float:
    """Log-probability of one step's move to the next canvas under ``kind``."""
    _check_consistent(probs.positions, probs.num_categories, outcome.positions, outcome.sampled)
    return _score(kind, probs.rows, probs.log_rows, outcome.sampled, outcome.chosen, probs.positions).item()


def step_logprob_upstream(
    kind: TransitionKind, probs: ProbMatrix, outcome
) -> tuple[float, np.ndarray]:
    """Step log-prob plus its gradient expressed on the log-probability rows.

    The returned matrix ``u`` satisfies: d(logprob)/d(logit row i) equals the
    softmax backward of ``u`` row i.  For scored positions this is a one-hot
    at the sampled token; for remasked positions under ``EXACT`` it is the
    row's probability mass restricted to its support, renormalised by that
    support's total mass (sets held locally constant, see module docstring).
    """
    _check_consistent(probs.positions, probs.num_categories, outcome.positions, outcome.sampled)
    upstream = np.zeros(probs.rows.shape)
    value = _score(
        kind, probs.rows, probs.log_rows, outcome.sampled, outcome.chosen, probs.positions, out=upstream
    )
    return value.item(), upstream


# Samplings per block of the enumeration: it bounds the block's arrays (about
# 3 MB at ``MAX_ENUMERATION``), and a larger block runs no faster.
_CHUNK = 1 << 12


def _next_state_arrays(probs: ProbMatrix, num_to_keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact next-state distribution by brute force over all joint samplings.

    Walks every token assignment to the masked positions in
    ``itertools.product`` order, in blocks of samplings, and drops those of
    joint probability 0.  The oracle selects by its own rule, written apart
    from the decoder's ``cam_select``: it keeps the ``num_to_keep`` rows of
    highest confidence, the lower row first among equal ones.  Joint
    probabilities (left-to-right products of confidences) are added per next
    state in walk order, so every sum rounds as a sequential walk's would.
    Returns the next states in the order first reached, as ``(S, m)`` digits
    (0 remasked, 1 + token kept) and their ``(S,)`` probabilities.
    """
    rows = probs.rows
    m, k = rows.shape
    total = k**m
    if total > MAX_ENUMERATION:
        raise ValueError(f"enumeration of {k}**{m} joint samplings exceeds the guard")
    if num_to_keep > m:
        raise ValueError("cannot keep more positions than are masked")
    places, row_idx = k ** np.arange(m - 1, -1, -1), np.arange(m)
    sums: dict[tuple[int, ...], float] = {}
    for start in range(0, total, _CHUNK):
        tokens = np.arange(start, min(start + _CHUNK, total))[:, None] // places % k
        confs = rows[row_idx, tokens]
        joint = confs.prod(axis=1)
        kept = np.zeros(tokens.shape, dtype=bool)
        kept[np.arange(len(kept))[:, None], np.argsort(-confs, axis=1, kind="stable")[:, :num_to_keep]] = True
        live = joint != 0.0
        for key, p in zip(map(tuple, np.where(kept, tokens + 1, 0)[live].tolist()), joint[live].tolist()):
            sums[key] = sums.get(key, 0.0) + p
    return np.array(list(sums), dtype=np.int64).reshape(len(sums), m), np.array(list(sums.values()))


def enumerate_next_states(probs: ProbMatrix, num_to_keep: int) -> dict[tuple, float]:
    """The table of :func:`_next_state_arrays` keyed by ``(kept positions, their tokens)``."""
    keys, sums = _next_state_arrays(probs, num_to_keep)
    positions = probs.positions.tolist()
    return {
        (tuple(positions[r] for r, d in enumerate(key) if d), tuple(d - 1 for d in key if d)): p
        for key, p in zip(keys.tolist(), sums.tolist())
    }


def _probability_of(keys: np.ndarray, sums: np.ndarray, outcome: StepOutcome) -> float:
    """Probability of ``outcome``'s next state in ``_next_state_arrays``' table, or 0.0."""
    hit = (keys == np.where(outcome.chosen, outcome.sampled + 1, 0)).all(axis=1)
    return sums[hit.argmax()].item() if hit.any() else 0.0


def _representatives(probs: ProbMatrix, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled tokens and keep masks, ``(S, m)``, of one outcome per next state
    of ``keys``; a remasked row, which ``EXACT`` ignores, takes its least likely token."""
    chosen = keys > 0
    return np.where(chosen, keys - 1, probs.rows.argmin(axis=1)), chosen
