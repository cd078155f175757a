"""Discrete-diffusion machinery: the absorbing-state frame behind unmasking.

The forward process corrupts categorical data through row-stochastic
transition matrices; the absorbing variant sends mass into the mask category
and never out, which is exactly the corruption the unmasking decoder runs in
reverse.  This module builds the uniform and absorbing matrices, the
closed-form and matrix-product forward marginals, the Bayes posterior of the
previous state, and the per-step KL terms of the variational bound.  A
verification companion, not wired into the trainer: it imports nothing from it.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

__all__ = [
    "MatrixKind",
    "build_uniform_q",
    "build_absorbing_q",
    "forward_marginal",
    "cumulative_q",
    "reverse_posterior",
    "reverse_posterior_enumerated",
    "elbo_terms",
]


def _kl_terms(rows_new: np.ndarray, rows_ref: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rows_new != 0.0, rows_new * (np.log(rows_new) - np.log(rows_ref)), 0.0)


class MatrixKind(enum.Enum):
    UNIFORM = "uniform"
    ABSORBING = "absorbing"


def _check(num_states: int, rate: float) -> None:
    # Every comparison is false for NaN, so the rate check refuses it too.
    if num_states < 2:
        raise ValueError(f"need at least two states, got {num_states}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"corruption rate must lie in [0, 1], got {rate!r}")


def build_uniform_q(num_states: int, rate: float) -> np.ndarray:
    """(1 - rate) * I + rate * ones/num_states, row-stochastic ``(S, S)``."""
    _check(num_states, rate)
    return (1.0 - rate) * np.eye(num_states) + rate * np.full((num_states, num_states), 1.0 / num_states)


def build_absorbing_q(num_states: int, rate: float) -> np.ndarray:
    """Stay with probability 1 - rate or fall into the final (mask) state,
    which is an identity row: row-stochastic ``(S, S)``."""
    _check(num_states, rate)
    q = (1.0 - rate) * np.eye(num_states)
    q[:, -1] += rate
    q[-1, :] = 0.0
    q[-1, -1] = 1.0
    return q


BUILDERS = {MatrixKind.UNIFORM: build_uniform_q, MatrixKind.ABSORBING: build_absorbing_q}


def cumulative_q(num_states: int, rates, kind: MatrixKind) -> np.ndarray:
    """Product of the per-step matrices; row-stochastic like its factors."""
    out = np.eye(num_states)
    for rate in rates:
        out = out @ BUILDERS[kind](num_states, rate)
    return out


def forward_marginal(x0: int, num_states: int, rates, kind: MatrixKind) -> np.ndarray:
    """Distribution of the state after len(rates) corruption steps from ``x0``."""
    if not 0 <= x0 < num_states:
        raise ValueError("start state out of range")
    return cumulative_q(num_states, rates, kind)[x0].copy()


def reverse_posterior(x_t: int, x0: int, q_t: np.ndarray, qbar_prev: np.ndarray) -> np.ndarray:
    """Bayes posterior over the previous state given the endpoints.

    Proportional to (previous -> current one-step mass) times (start ->
    previous cumulative mass).
    """
    weights = q_t[:, x_t] * qbar_prev[x0, :]
    total = weights.sum()
    if total <= 0.0:
        raise ValueError(f"state {x_t} is unreachable from {x0} at this step")
    return weights / total


def reverse_posterior_enumerated(
    x_t: int, x0: int, num_states: int, rates, kind: MatrixKind
) -> np.ndarray:
    """Same posterior by summing over every corruption path, for cross-checks."""
    steps = len(rates)
    if steps < 1:
        raise ValueError("need at least one corruption step")
    if num_states**steps > 10**4:
        raise ValueError("path enumeration guard exceeded")
    qs = [BUILDERS[kind](num_states, r) for r in rates]
    joint_prev = np.zeros(num_states)
    for path in itertools.product(range(num_states), repeat=steps - 1):
        chain = (x0,) + path + (x_t,)
        p = 1.0
        for s in range(steps):
            p *= qs[s][chain[s], chain[s + 1]]
        joint_prev[chain[-2]] += p
    total = joint_prev.sum()
    if total <= 0.0:
        raise ValueError(f"state {x_t} is unreachable from {x0} at this step")
    return joint_prev / total


def elbo_terms(
    x0: int, num_states: int, rates, kind: MatrixKind, predicted_x0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-step KL between the true posterior and the model's reverse step.

    ``predicted_x0[t - 1, x_t]`` is the model's distribution over the start
    state after observing the state at step ``t``.  The model's reverse step
    mixes the true posteriors under that prediction; a prediction that puts
    all mass on the true start state therefore zeroes every term.  Terms are
    averaged over the forward marginal at each step.
    """
    steps = len(rates)
    predicted_x0 = np.asarray(predicted_x0, dtype=np.float64)
    if predicted_x0.shape != (steps, num_states, num_states):
        raise ValueError(
            f"prediction table must have shape {(steps, num_states, num_states)}"
        )
    terms = np.zeros(steps)
    for t in range(1, steps + 1):
        q_t = BUILDERS[kind](num_states, rates[t - 1])
        qbar_prev = cumulative_q(num_states, rates[: t - 1], kind)
        marg_t = (qbar_prev @ q_t)[x0]
        term = 0.0
        for x_t in range(num_states):
            if marg_t[x_t] <= 0.0:
                continue
            true_post = reverse_posterior(x_t, x0, q_t, qbar_prev)
            model = np.zeros(num_states)
            for x0_hat in range(num_states):
                w = predicted_x0[t - 1, x_t, x0_hat]
                if w <= 0.0:
                    continue
                try:
                    model += w * reverse_posterior(x_t, x0_hat, q_t, qbar_prev)
                except ValueError:
                    # Prediction mass on a start state that cannot reach x_t
                    # carries no defined posterior; it simply contributes
                    # nothing (KL stays >= 0 against the submass).
                    continue
            term += marg_t[x_t] * _kl_terms(true_post, model).sum()
        terms[t - 1] = term
    return terms, float(terms.sum())
