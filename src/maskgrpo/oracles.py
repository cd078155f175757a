"""Verification suites: each checked claim against an independent oracle.

``run_verify`` compares the transition-probability definitions with
brute-force enumeration, ``run_gradcheck`` the analytic gradients with
central finite differences, and ``run_d3pm_suite`` checks the properties of
the discrete-diffusion module.  Each returns one :class:`Report`.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import NamedTuple

import numpy as np

from . import discrete_diffusion as dd
from . import grpo, transition
from .canvas import CanvasState, Prompt, apply_step, schedule_cosine
from .decoder import draw_outcome, rollout, sample_step
from .policy import PolicyArch, _layers, encode_batch, forward_encoded, init_params, policy_backward
from .transition import StepOutcome, TransitionKind, cam_select

__all__ = ["Report", "run_verify", "run_gradcheck", "run_d3pm_suite"]


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _worst(a: float, b: float) -> float:
    """``max(a, b)``, except that a NaN on either side is kept: ``max``
    returns ``a`` whenever ``b`` is not larger, a NaN ``b`` included."""
    return b if b > a or b != b else a


class Report(NamedTuple):
    """One ``(label, value, relation, bound)`` row per reported quantity; an
    unbounded row has relation and bound ``None``."""

    checks: tuple

    @property
    def passed(self) -> bool:
        """True when every bounded quantity holds."""
        return all(rel is None or _RELATIONS[rel](value, bound) for _, value, rel, bound in self.checks)


def _random_prob_rows(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Smooth rows, or in about a quarter of draws integer weights 1-3, whose probabilities tie."""
    raw = rng.integers(1, 4, (m, k)) if rng.random() < 0.25 else rng.gamma(1.0, 1.0, (m, k)) + 1e-6
    return raw / raw.sum(axis=1, keepdims=True)


def _model_sum(probs: transition.ProbMatrix, keys: np.ndarray) -> float:
    """Sum of the ``EXACT`` probabilities of the next states ``keys``, scored in
    one stacked ``_score`` call and added left to right in their order."""
    count, k = len(keys), probs.num_categories
    sampled, chosen = transition._representatives(probs, keys)
    rows, log_rows = (np.repeat(a[None], count, axis=0).reshape(-1, k) for a in (probs.rows, probs.log_rows))
    values = transition._score(TransitionKind.EXACT, rows, log_rows, sampled.ravel(), chosen.ravel(), count)
    return float(grpo._sum_in_order(np.exp(values)))


def run_verify(trials: int, seed: int) -> Report:
    """Randomised oracle comparison for the transition-probability definitions.

    Per trial: random prediction rows, a sampled outcome, then (a) the exact
    definition against brute-force enumeration, (b) enumeration and model
    normalisation, (c) the AR <= exact <= kept-only ordering chain.  About a quarter
    of the trials draw rows whose probabilities tie, asserted like every other instance.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_oracle = worst_enum_sum = worst_model_sum = 0.0
    violations = tied = 0
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
        # A tie: a remasked token, or a second kept sample, as likely as the smallest kept confidence.
        kept = outcome.confidences[outcome.chosen]
        tied += bool((probs.rows[~outcome.chosen] == kept.min()).any() or (kept == kept.min()).sum() > 1)
    return Report((
        ("worst |closed-form - enumeration|", worst_oracle, "<", 1e-10),
        ("worst |sum(enumeration) - 1|", worst_enum_sum, "<", 1e-10),
        ("worst |sum(closed-form) - 1|", worst_model_sum, "<", 1e-10),
        ("ordering violations", violations, "==", 0),
        ("tied trials", tied, None, None),
    ))


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
    return transition._score(kind, batch.rows, batch.log_rows, outcome.sampled, outcome.chosen)[:, 0]


def _near_selection_boundary(probs, outcome) -> bool:
    """True within 1e-5 of a selection boundary: the two smallest kept
    confidences nearly tie, or a remasked token nearly equals the smallest."""
    kept = np.flatnonzero(outcome.chosen)
    confs = np.sort(probs.rows[kept, outcome.sampled[kept]])
    if confs.size > 1 and confs[1] - confs[0] < 1e-5:
        return True
    return bool(np.any(np.abs(probs.rows[~outcome.chosen] - confs[0]) < 1e-5))


def _random_logprob_instance(rng: np.random.Generator):
    """Generic (params, forward at them, outcome) away from selection boundaries."""
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
        batch = forward_encoded(params, encode_batch(arch, [state], [prompt], [0.5 + rng.random()]))
        probs = batch.probs(0)
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
        return params, batch, outcome


def run_gradcheck(trials: int, seed: int) -> Report:
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
            params, batch, outcome = _random_logprob_instance(rng)
            _, upstream = transition.step_logprob_upstream(kind, batch.probs(0), outcome)
            params.zero_grads()
            policy_backward(params, batch, upstream)
            analytic = params.grads.copy()
            fd = _fd_gradient(partial(_step_logprobs, kind, batch.inputs, outcome), params.params, LOGPROB_FD_STEP)
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
    return Report((
        ("worst per-coordinate error", worst, "<", 1e-4),
        ("worst absolute difference (error 0 up to 1e-8)", worst_abs, None, None),
        ("fraction of surrogate terms clipped", clipped_terms / total_terms if total_terms else 0.0, None, None),
    ))


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


def run_d3pm_suite(seed: int = 0) -> Report:
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
    return Report((
        ("worst row-sum deviation", worst_row, "<=", 1e-12),
        ("worst closed-form marginal gap", worst_marg, "<=", 1e-12),
        ("worst posterior vs paths gap", worst_post, "<=", 1e-12),
        ("smallest elbo term", float(min_term), ">=", -1e-15),
        ("elbo at the true posterior", worst_true_elbo, "<=", 1e-12),
    ))
