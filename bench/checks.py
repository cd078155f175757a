"""Correctness checks the benchmark computes apart from the program.

Every check returns a list of problems, empty when it passes.  The program's
outputs are compared with the benchmark's own arithmetic (selection order,
log-probability sums, brute-force enumeration, finite differences) or with a
property the method must have; never with a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# With inner_epochs=1 the loss pass re-scores each step under the parameters
# that generated it, so every importance ratio is 1 up to rounding.
RATIO_TOL = 1e-9
# Mean reward of the last tenth of a run must beat the first tenth by this.
REWARD_MARGIN = 0.15
LOGPROB_TOL = 1e-9
FD_STEP = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-9
# The largest probed gradient entry must exceed this for the probe to show
# anything; saturated policies have gradients far below it.
FD_MIN_SCALE = 1e-5
# A Pearson chi-square is accepted below this Wilson-Hilferty z score
# (one-sided p of about 3e-7).
GOF_Z_LIMIT = 5.0
TIE_TOL = 1e-10


def check_train_rows(rows) -> list[str]:
    """Unit importance ratios and no clipping on every logged iteration."""
    problems = []
    for row in rows:
        if abs(row["mean_ratio"] - 1.0) > RATIO_TOL:
            problems.append(f"iteration {row['iter']}: mean_ratio {row['mean_ratio']!r} is not 1")
        if row["clip_frac"] != 0.0:
            problems.append(f"iteration {row['iter']}: clip_frac {row['clip_frac']!r} is not 0")
    return problems


def check_reward_gain(rewards) -> list[str]:
    """Mean reward of the last tenth of the iterations beats the first tenth."""
    rewards = np.asarray(rewards, dtype=np.float64)
    window = max(5, rewards.size // 10)
    gain = float(rewards[-window:].mean() - rewards[:window].mean())
    if not gain >= REWARD_MARGIN:
        return [f"mean reward gained {gain:.3f} over {rewards.size} iterations, below {REWARD_MARGIN}"]
    return []


def fd_numeric(objective, vector: np.ndarray, coords, step: float = FD_STEP) -> np.ndarray:
    """Central differences of ``objective()`` in the given coordinates of ``vector``."""
    out = np.empty(len(coords))
    for n, i in enumerate(coords):
        base = vector[i]
        vector[i] = base + step
        hi = objective()
        vector[i] = base - step
        lo = objective()
        vector[i] = base
        out[n] = (hi - lo) / (2.0 * step)
    return out


def fd_excess(analytic, numeric) -> float:
    """Worst |analytic - numeric| as a multiple of its allowance.

    The allowance is ``FD_RTOL`` of the larger magnitude plus ``FD_ATOL``,
    which sits a hundred times above the rounding noise of a central
    difference of an objective of order one.  Values above 1 fail.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    allowance = FD_RTOL * np.maximum(np.abs(analytic), np.abs(numeric)) + FD_ATOL
    return float((np.abs(analytic - numeric) / allowance).max())


def check_gradient(analytic, numeric) -> list[str]:
    excess = fd_excess(analytic, numeric)
    if not excess <= 1.0:
        return [f"finite differences disagree with the analytic gradient: {excess:.3g}x the allowance"]
    return []


def keep_order(confidences, positions, num_to_keep: int) -> list[int]:
    """Positions of the ``num_to_keep`` best by (confidence desc, position asc), sorted."""
    ranked = sorted(range(len(positions)), key=lambda r: (-confidences[r], positions[r]))
    return sorted(int(positions[r]) for r in ranked[:num_to_keep])


def check_rollout(traj, counts, rows_at) -> list[str]:
    """One decode rollout against the decoder's rule, recomputed step by step.

    ``rows_at(state)`` gives the prediction rows of the masked positions of
    ``state``.  Each step must unmask exactly the scheduled count, only masked
    positions, and exactly the top-n samples by (confidence desc, index asc);
    the recorded step log-probability must equal the sum of the kept log
    confidences.
    """
    problems = []
    num_categories = traj.states[0].num_categories
    for t, n_t in enumerate(counts):
        before = np.asarray(traj.states[t].tokens)
        after = np.asarray(traj.states[t + 1].tokens)
        masked = np.flatnonzero(before == num_categories)
        sampled = np.asarray(traj.outcomes[t].sampled)
        if sampled.shape != masked.shape or np.any((sampled < 0) | (sampled >= num_categories)):
            problems.append(f"step {t}: samples do not cover the masked positions")
            continue
        conf = rows_at(traj.states[t])[np.arange(masked.size), sampled]
        want = keep_order(conf, masked, n_t)
        changed = np.flatnonzero(after != before).tolist()
        if len(changed) != n_t:
            problems.append(f"step {t}: unmasked {len(changed)} positions, schedule says {n_t}")
        if changed != want:
            problems.append(f"step {t}: kept {changed}, top-{n_t} by confidence is {want}")
            continue
        kept_rows = np.searchsorted(masked, want)
        if not np.array_equal(after[want], sampled[kept_rows]):
            problems.append(f"step {t}: kept positions do not hold their sampled tokens")
        own = float(np.log(conf[kept_rows]).sum())
        recorded = float(traj.old_logprobs[t])
        if abs(own - recorded) > LOGPROB_TOL * max(1.0, abs(own)):
            problems.append(f"step {t}: log-probability {recorded!r}, kept confidences give {own!r}")
    if np.any(np.asarray(traj.states[-1].tokens) == num_categories):
        problems.append("final canvas still has masked positions")
    return problems


def chi_square_z(counts, probs) -> float:
    """Wilson-Hilferty z score of Pearson's chi-square over independent rows.

    ``counts[i, v]`` are observed draws of token ``v`` at row ``i``, ``probs``
    the rows they were drawn from.  Cells expecting fewer than five draws are
    pooled, and a pool still under five joins the smallest other cell.
    """
    stat = 0.0
    dof = 0
    for observed, p in zip(np.asarray(counts, dtype=np.float64), np.asarray(probs)):
        expected = observed.sum() * p
        if np.any((expected <= 0.0) & (observed > 0.0)):
            return math.inf  # a token of probability zero was drawn
        big = expected >= 5.0
        obs = list(observed[big])
        exp = list(expected[big])
        pooled_obs, pooled_exp = observed[~big].sum(), expected[~big].sum()
        if pooled_exp >= 5.0 or not exp:
            obs.append(pooled_obs)
            exp.append(pooled_exp)
        else:
            smallest = int(np.argmin(exp))
            obs[smallest] += pooled_obs
            exp[smallest] += pooled_exp
        obs, exp = np.array(obs), np.array(exp)
        live = exp > 0.0
        stat += float(((obs[live] - exp[live]) ** 2 / exp[live]).sum())
        dof += int(live.sum()) - 1
    if dof < 1:
        return 0.0
    c = 2.0 / (9.0 * dof)
    return ((stat / dof) ** (1.0 / 3.0) - (1.0 - c)) / math.sqrt(c)


def check_first_step_samples(counts, probs) -> list[str]:
    z = chi_square_z(counts, probs)
    if not z < GOF_Z_LIMIT:
        return [f"first-step samples do not follow the policy rows: chi-square z = {z:.2f}"]
    return []


def next_state_probability(rows, positions, num_to_keep: int, signature) -> float:
    """Probability of the next canvas ``signature`` by brute force.

    ``signature`` is (kept positions ascending, their tokens).  Every joint
    sampling of the rows is pushed through the keep rule of ``keep_order``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m, k = rows.shape
    row_of = {int(p): r for r, p in enumerate(positions)}
    total = 0.0
    for combo in itertools.product(range(k), repeat=m):
        conf = rows[np.arange(m), combo]
        kept = keep_order(conf, positions, num_to_keep)
        sig = (tuple(kept), tuple(int(combo[row_of[p]]) for p in kept))
        if sig == signature:
            total += float(np.prod(conf))
    return total
