import numpy as np
import pytest

from maskgrpo import (
    MatrixKind,
    build_absorbing_q,
    build_uniform_q,
    elbo_terms,
    forward_marginal,
    reverse_posterior,
)
from maskgrpo.discrete_diffusion import cumulative_q, reverse_posterior_enumerated


class TestBuilders:
    def test_uniform_zero_rate_is_identity(self):
        np.testing.assert_array_equal(build_uniform_q(3, 0.0), np.eye(3))

    def test_uniform_full_rate_two_states(self):
        np.testing.assert_allclose(build_uniform_q(2, 1.0), np.full((2, 2), 0.5))

    def test_uniform_half_rate_two_states(self):
        np.testing.assert_allclose(
            build_uniform_q(2, 0.5), [[0.75, 0.25], [0.25, 0.75]], atol=1e-15
        )

    def test_absorbing_zero_rate_is_identity(self):
        np.testing.assert_array_equal(build_absorbing_q(4, 0.0), np.eye(4))

    def test_absorbing_full_rate_masks_everything(self):
        q = build_absorbing_q(3, 1.0)
        assert (q[:, -1] == 1.0).all()

    def test_absorbing_three_states(self):
        np.testing.assert_allclose(
            build_absorbing_q(3, 0.3),
            [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3], [0.0, 0.0, 1.0]],
            atol=1e-15,
        )

    @pytest.mark.parametrize("builder", [build_uniform_q, build_absorbing_q])
    def test_rows_stochastic(self, builder):
        rng = np.random.default_rng(0)
        for _ in range(25):
            q = builder(int(rng.integers(2, 6)), float(rng.random()))
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("builder", [build_uniform_q, build_absorbing_q])
    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_rate_outside_unit_interval_rejected(self, builder, rate):
        with pytest.raises(ValueError, match=r"corruption rate must lie in \[0, 1\]"):
            builder(3, rate)

    @pytest.mark.parametrize("builder", [build_uniform_q, build_absorbing_q])
    def test_single_state_rejected(self, builder):
        with pytest.raises(ValueError, match="need at least two states, got 1"):
            builder(1, 0.5)

    @pytest.mark.parametrize("builder", [build_uniform_q, build_absorbing_q])
    def test_returns_a_square_float_array(self, builder):
        q = builder(4, 0.25)
        assert type(q) is np.ndarray and q.shape == (4, 4) and q.dtype == np.float64


class TestForwardMarginal:
    def test_no_steps_is_one_hot(self):
        marg = forward_marginal(2, 4, [], MatrixKind.ABSORBING)
        np.testing.assert_array_equal(marg, [0.0, 0.0, 1.0, 0.0])

    def test_absorbing_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            steps = int(rng.integers(1, 65))
            rates = rng.uniform(0.0, 1.0, size=steps)
            survive = np.prod(1.0 - rates)
            marg = forward_marginal(0, 3, rates, MatrixKind.ABSORBING)
            np.testing.assert_allclose(marg, [survive, 0.0, 1.0 - survive], atol=1e-12)

    def test_uniform_full_mixing(self):
        marg = forward_marginal(0, 4, [0.2, 1.0, 0.3], MatrixKind.UNIFORM)
        np.testing.assert_allclose(marg, 0.25, atol=1e-12)

    def test_cumulative_row_stochastic(self):
        rng = np.random.default_rng(2)
        cum = cumulative_q(4, rng.random(64), MatrixKind.UNIFORM)
        np.testing.assert_allclose(cum.sum(axis=1), 1.0, atol=1e-12)


class TestReversePosterior:
    def test_single_step_collapses_to_start(self):
        q1 = build_absorbing_q(3, 0.4)
        qbar0 = np.eye(3)
        post = reverse_posterior(2, 0, q1, qbar0)  # masked at t=1, started at 0
        np.testing.assert_array_equal(post, [1.0, 0.0, 0.0])

    def test_never_masked_stays_at_start(self):
        rates = [0.3, 0.5, 0.2]
        q_t = build_absorbing_q(3, rates[-1])
        qbar = cumulative_q(3, rates[:-1], MatrixKind.ABSORBING)
        post = reverse_posterior(0, 0, q_t, qbar)
        np.testing.assert_allclose(post, [1.0, 0.0, 0.0], atol=1e-15)

    def test_unreachable_state_is_an_error(self):
        q_t = build_absorbing_q(3, 0.2)
        with pytest.raises(ValueError):
            reverse_posterior(1, 0, q_t, np.eye(3))

    @pytest.mark.parametrize("kind", list(MatrixKind))
    def test_matches_path_enumeration(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(8):
            num_states = int(rng.integers(2, 5))
            max_steps = int(np.log(10**4) / np.log(num_states))
            steps = int(rng.integers(1, max_steps + 1))
            rates = rng.uniform(0.05, 0.95, size=steps)
            q_t = (
                build_uniform_q(num_states, rates[-1])
                if kind is MatrixKind.UNIFORM
                else build_absorbing_q(num_states, rates[-1])
            )
            qbar = cumulative_q(num_states, rates[:-1], kind)
            marg = forward_marginal(0, num_states, rates, kind)
            for x_t in range(num_states):
                if marg[x_t] <= 0.0:
                    continue
                fast = reverse_posterior(x_t, 0, q_t, qbar)
                slow = reverse_posterior_enumerated(x_t, 0, num_states, rates, kind)
                np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            reverse_posterior_enumerated(0, 0, 4, np.full(10, 0.5), MatrixKind.UNIFORM)


class TestElbo:
    def test_true_posterior_prediction_zeroes_every_term(self):
        rates = [0.3, 0.4]
        pred = np.zeros((2, 3, 3))
        pred[:, :, 0] = 1.0  # always predict the true start state 0
        terms, total = elbo_terms(0, 3, rates, MatrixKind.ABSORBING, pred)
        np.testing.assert_allclose(terms, 0.0, atol=1e-12)
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_prediction_is_positive(self):
        rates = [0.3, 0.4]
        pred = np.full((2, 3, 3), 1.0 / 3.0)
        terms, total = elbo_terms(0, 3, rates, MatrixKind.ABSORBING, pred)
        assert (terms >= -1e-15).all()
        assert total > 0.0

    def test_two_state_two_step_hand_computed(self):
        # Absorbing chain on {keep, mask}, rates 0.5 then 0.5, start at 0,
        # uniform start-state prediction.
        #
        # Step 1: the true posterior over x_0 is one-hot at 0 whichever x_1
        # is observed.  For x_1=keep the model can only route through
        # x0hat=0, keeping half its mass there (the masked start cannot
        # reach keep), giving KL = ln 2; for x_1=mask the model mixes to
        # (1/2, 1/2), also KL = ln 2.  Term: ln 2.
        #
        # Step 2: the x_2=keep branch repeats the submass situation
        # (KL = ln 2, weight 1/4).  For x_2=mask the true posterior over
        # x_1 is (1/3, 2/3) and the model mixes in the all-mask path,
        # giving (1/6, 5/6): KL = (1/3) ln 2 + (2/3) ln(4/5), weight 3/4.
        rates = [0.5, 0.5]
        pred = np.full((2, 2, 2), 0.5)
        ln2 = np.log(2.0)
        want_step2 = 0.25 * ln2 + 0.75 * (ln2 / 3.0 + (2.0 / 3.0) * np.log(0.8))
        terms, total = elbo_terms(0, 2, rates, MatrixKind.ABSORBING, pred)
        assert terms[0] == pytest.approx(ln2, abs=1e-12)
        assert terms[1] == pytest.approx(want_step2, abs=1e-12)
        assert total == pytest.approx(ln2 + want_step2, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            elbo_terms(0, 3, [0.5], MatrixKind.UNIFORM, np.zeros((2, 3, 3)))
