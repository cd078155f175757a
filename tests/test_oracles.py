import io

import numpy as np
import pytest

from maskgrpo import TransitionKind, harness, oracles, transition
from maskgrpo import discrete_diffusion as dd
from maskgrpo.harness import main
from maskgrpo.oracles import (
    LOGPROB_FD_STEP,
    OBJECTIVE_FD_STEP,
    Report,
    _fd_gradient,
    _model_sum,
    _random_logprob_instance,
    _random_objective_instance,
    _random_prob_rows,
    _step_logprobs,
    run_d3pm_suite,
    run_gradcheck,
    run_verify,
)
from maskgrpo.policy import ProbMatrix, forward_encoded
from maskgrpo.transition import StepOutcome, step_logprob


def values(report):
    """``{label: value}`` of every row of ``report``."""
    return {label: value for label, value, _, _ in report.checks}


def with_value(report, label, value):
    """``report`` with the value of row ``label`` replaced by ``value``."""
    return Report(tuple((row[0], value, *row[2:]) if row[0] == label else row for row in report.checks))


# The label of every bounded row of each suite's report, in report order.
BOUNDED = {
    "verify": (
        "worst |closed-form - enumeration|",
        "worst |sum(enumeration) - 1|",
        "worst |sum(closed-form) - 1|",
        "ordering violations",
    ),
    "gradcheck": ("worst per-coordinate error",),
    "d3pm": (
        "worst row-sum deviation",
        "worst closed-form marginal gap",
        "worst posterior vs paths gap",
        "smallest elbo term",
        "elbo at the true posterior",
    ),
}


@pytest.fixture(scope="module")
def reports():
    """One passing report of each suite."""
    return {"verify": run_verify(1, 0), "gradcheck": run_gradcheck(1, 0), "d3pm": run_d3pm_suite()}


def loop_model_sum(probs, keys):
    """The reference model sum: one representative and one ``step_logprob`` per
    next state, added in table order."""
    total = 0.0
    for sampled, chosen in zip(*transition._representatives(probs, keys)):
        confs = probs.rows[np.arange(probs.num_rows), sampled]
        rep = StepOutcome(sampled=sampled, confidences=confs, chosen=chosen, positions=probs.positions)
        total += float(np.exp(step_logprob(TransitionKind.EXACT, probs, rep)))
    return total


class TestModelSum:
    @pytest.mark.parametrize("seed", range(60))
    def test_stacked_sum_equals_the_per_signature_loop(self, seed):
        # Instances shaped like run_verify's, every fourth with rows
        # rounded to a small denominator so that confidences tie.
        rng = np.random.Generator(np.random.Philox(key=seed))
        m, k = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        rows = _random_prob_rows(rng, m, k)
        if seed % 4 == 3:
            denom = int(rng.integers(2, 7))
            rows = rng.multinomial(denom, np.full(k, 1.0 / k), size=m) / denom
        probs = ProbMatrix.from_rows(rows)
        n_keep = int(rng.integers(1, min(2, m) + 1))
        keys, _ = transition._next_state_arrays(probs, n_keep)
        want = loop_model_sum(probs, keys)
        assert np.float64(_model_sum(probs, keys)).tobytes() == np.float64(want).tobytes()


class TestNonFiniteQuantities:
    """A NaN or infinite checked quantity reaches its report and fails its bound."""

    def test_worst_keeps_nan_on_either_side(self):
        assert np.isnan(oracles._worst(np.nan, 1.0)) and np.isnan(oracles._worst(1.0, np.nan))
        assert oracles._worst(1.0, np.inf) == np.inf and oracles._worst(2.0, 1.0) == 2.0

    def test_grad_mismatch_of_a_non_finite_coordinate_is_not_finite(self):
        for numeric in ([0.5, np.nan], [0.5, np.inf], [0.5, -np.inf]):
            rel, diff = oracles._grad_mismatch(np.array([0.5, 1.0]), np.array(numeric))
            assert not np.isfinite(rel) and not np.isfinite(diff)

    def test_nan_finite_differences_fail_gradcheck(self, monkeypatch):
        monkeypatch.setattr(oracles, "_fd_gradient", lambda values, base, step: np.full_like(base, np.nan))
        report = run_gradcheck(1, 0)
        assert np.isnan(values(report)["worst per-coordinate error"]) and not report.passed

    def test_nan_posterior_fails_d3pm(self, monkeypatch, capsys):
        monkeypatch.setattr(dd, "reverse_posterior", lambda x_t, x0, q_t, qbar_prev: np.full(len(q_t), np.nan))
        assert main(["d3pm"]) == 1
        out = capsys.readouterr().out.splitlines()
        for label in ("worst posterior vs paths gap", "smallest elbo term", "elbo at the true posterior"):
            assert any(line.startswith(f"  {label} ") and " = nan  (bound" in line for line in out), label
        assert out[-1] == "d3pm: FAIL"

    def test_nan_exact_log_probability_reaches_the_verify_report(self, monkeypatch):
        scorer = transition.step_logprob

        def nan_exact(kind, probs, outcome):
            return np.nan if kind is TransitionKind.EXACT else scorer(kind, probs, outcome)

        monkeypatch.setattr(transition, "step_logprob", nan_exact)
        report = run_verify(5, 0)
        assert np.isnan(values(report)["worst |closed-form - enumeration|"]) and not report.passed

    @pytest.mark.parametrize(
        "suite, label, value",
        [(suite, label, np.nan) for suite, labels in BOUNDED.items() for label in labels]
        + [("verify", BOUNDED["verify"][0], np.inf)],
    )
    def test_a_non_finite_worst_value_fails_its_bound_and_prints(self, reports, suite, label, value):
        report = reports[suite]
        assert report.passed
        assert tuple(row[0] for row in report.checks if row[2] is not None) == BOUNDED[suite]
        bad = with_value(report, label, value)
        out = io.StringIO()
        assert not bad.passed
        assert harness._write_report(out, suite, "header", bad) == 1
        _, _, rel, bound = next(row for row in bad.checks if row[0] == label)
        assert f"  {label:<48} = {value}  (bound {rel} {bound:g})\n" in out.getvalue()

    def test_a_non_finite_unbounded_value_passes_and_prints(self, reports):
        report = with_value(reports["verify"], "tied trials", np.nan)
        out = io.StringIO()
        assert report.passed
        assert harness._write_report(out, "verify", "header", report) == 0
        assert f"  {'tied trials':<48} = nan\n" in out.getvalue()


def per_coordinate_fd(fn, params, step):
    """The reference finite differences: one coordinate of ``params`` at a
    time is moved in place and ``fn()`` evaluated in full at each move."""
    base = params.params.copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        params.params[i] = base[i] + step
        hi = fn()
        params.params[i] = base[i] - step
        lo = fn()
        params.params[i] = base[i]
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


# A budget of 16 KB splits every instance below into several blocks, the
# last one short; ``None`` keeps the default, one to four blocks each.
SMALL_FD_BYTES = 1 << 14


def block_sizes(values, sizes):
    """``values``, recording the copy count of each stack it is called on."""

    def recorded(stack):
        sizes.append(len(stack))
        return values(stack)

    return recorded


class TestStackedFiniteDifferences:
    @pytest.mark.parametrize("budget", [None, SMALL_FD_BYTES])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_step_logprob_differences_equal_the_per_coordinate_loop(self, kind, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(oracles, "_FD_BYTES", budget)
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(4):
            params, batch, outcome = _random_logprob_instance(rng)
            inputs = batch.inputs
            assert batch.log_rows.tobytes() == forward_encoded(params, inputs).log_rows.tobytes()

            def value():
                return step_logprob(kind, forward_encoded(params, inputs).probs(0), outcome)

            want = per_coordinate_fd(value, params, LOGPROB_FD_STEP)
            sizes = []
            stacked = _fd_gradient(
                block_sizes(lambda stack: _step_logprobs(kind, inputs, outcome, stack), sizes),
                params.params,
                LOGPROB_FD_STEP,
            )
            assert stacked.tobytes() == want.tobytes()
            assert budget is None or (1 < len(sizes) and sizes[-1] < sizes[0])

    @pytest.mark.parametrize("budget", [None, SMALL_FD_BYTES])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_objective_differences_equal_the_per_coordinate_loop(self, beta, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(oracles, "_FD_BYTES", budget)
        rng = np.random.Generator(np.random.Philox(key=6))
        for _ in range(3):
            params, loss = _random_objective_instance(rng, beta)
            want = per_coordinate_fd(
                lambda: loss.evaluate(params, compute_grad=False)[0], params, OBJECTIVE_FD_STEP
            )
            sizes = []
            stacked = _fd_gradient(block_sizes(loss.objectives, sizes), params.params, OBJECTIVE_FD_STEP)
            assert stacked.tobytes() == want.tobytes()
            assert budget is None or (1 < len(sizes) and sizes[-1] < sizes[0])

    @staticmethod
    def stacks_of(base, budget, monkeypatch):
        monkeypatch.setattr(oracles, "_FD_BYTES", budget)
        calls = []

        def values(stack):
            calls.append(stack.copy())
            return stack.sum(axis=1)

        np.testing.assert_array_equal(_fd_gradient(values, base, 0.5), np.ones(base.size))
        # Each copy moves exactly one coordinate, and every coordinate is moved.
        assert all((np.count_nonzero(c != base, axis=1) == 1).all() for c in calls)
        assert sum(len(c) for c in calls) == 2 * base.size
        return calls

    @pytest.mark.parametrize("budget", [4096, 5000, oracles._FD_BYTES])
    def test_every_stack_fits_the_budget(self, budget, monkeypatch):
        base = np.arange(70, dtype=np.float64)  # one pair of copies is 1,120 bytes
        calls = self.stacks_of(base, budget, monkeypatch)
        assert all(c.nbytes <= budget for c in calls)
        # Every block but the last is as large as the budget allows.
        per_block = min(budget // 1120, 70)
        assert [len(c) for c in calls[:-1]] == [2 * per_block] * (len(calls) - 1)

    def test_a_pair_larger_than_the_budget_is_a_block_of_one_coordinate(self, monkeypatch):
        calls = self.stacks_of(np.arange(70, dtype=np.float64), 1000, monkeypatch)
        assert [len(c) for c in calls] == [2] * 70
