import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskgrpo import (
    AdamState,
    GrpoConfig,
    Group,
    PolicyArch,
    Prompt,
    Reduction,
    StdHistory,
    TrainSetup,
    TransitionKind,
    adam_step,
    group_advantages,
    grpo_loss_and_grad,
    init_params,
    policy_forward,
    rollout,
    schedule_cosine,
    train,
)
from maskgrpo import filtering, grpo
from maskgrpo.grpo import _ADAM_BLOCK, LossPass, ReductionKind, _kl_terms, active_steps
from maskgrpo.policy import _views_of
from maskgrpo.harness import ExperimentConfig
from maskgrpo.oracles import _fd_gradient, _grad_mismatch, _near_selection_boundary
from maskgrpo.transition import DegenerateOutcomeError, StepOutcome, step_logprob, step_logprob_upstream
from maskgrpo.rewards import reward_pattern


class TestGroupAdvantages:
    def test_equal_rewards_degenerate(self):
        adv, flag = group_advantages([1.0, 1.0, 1.0])
        assert flag
        assert adv.tolist() == [0.0, 0.0, 0.0]

    def test_two_point_standardisation(self):
        adv, flag = group_advantages([0.0, 2.0])
        assert not flag
        assert adv.tolist() == [-1.0, 1.0]

    def test_mean_zero_std_one(self):
        rng = np.random.default_rng(5)
        adv, flag = group_advantages(rng.random(6))
        assert not flag
        assert abs(adv.mean()) < 1e-12
        assert abs(np.sqrt((adv**2).mean()) - 1.0) < 1e-9

    def test_affine_invariance_power_of_two_scale_is_bit_exact(self):
        # Scaling by a power of two keeps every float op exact end to end
        # (sum, mean, centring, variance, sqrt), so the normalised
        # advantages must be bit-identical.  Shifts re-round inside the mean
        # and are only ulp-close; see the generic test below.
        rewards = np.array([0.25, 0.5, 1.0, 0.75])
        base, _ = group_advantages(rewards)
        scaled, _ = group_advantages(4.0 * rewards)
        assert np.array_equal(base, scaled)

    @given(
        scale=st.floats(min_value=0.01, max_value=100.0),
        shift=st.floats(min_value=-50.0, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance_generic(self, scale, shift):
        rewards = np.array([0.1, 0.9, 0.4, 0.7, 0.2])
        base, _ = group_advantages(rewards)
        other, _ = group_advantages(scale * rewards + shift)
        np.testing.assert_allclose(other, base, rtol=0, atol=1e-9)

    def test_needs_two_rewards(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])


class TestKlStep:
    def test_identical_rows_zero(self):
        rows = np.array([[0.2, 0.8], [0.6, 0.4]])
        assert _kl_terms(rows, rows).sum() == 0.0

    def test_closed_form_value(self):
        value = _kl_terms(np.array([[0.5, 0.5]]), np.array([[0.25, 0.75]])).sum()
        want = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert value == pytest.approx(want, abs=1e-12)
        assert value == pytest.approx(0.1438, abs=1e-4)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4), size=3)
        q = rng.dirichlet(np.ones(4), size=3)
        assert _kl_terms(p, q).sum() >= 0.0

    def test_zero_entry_scores_zero_and_nan_entry_reaches_the_sum(self):
        assert _kl_terms(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]])).sum() == np.log(2.0)
        assert np.isnan(_kl_terms(np.array([[np.nan, 1.0]]), np.array([[0.5, 0.5]])).sum())


class TestAdam:
    def config(self, **kw):
        return GrpoConfig(**kw)

    def test_zero_grads_no_move_from_fresh_state(self):
        arch = PolicyArch(length=2, num_categories=2, hidden=4, embed=2)
        params = init_params(arch, seed=0)
        before = params.params.copy()
        adam_step(params, AdamState.for_params(params), self.config())
        assert np.array_equal(params.params, before)

    def test_descends_a_quadratic(self):
        arch = PolicyArch(length=2, num_categories=2, hidden=4, embed=2)
        params = init_params(arch, seed=0)
        params.params[:] = 1.0
        params.grads[:] = 2.0 * params.params  # gradient of sum(x^2)
        adam_step(params, AdamState.for_params(params), self.config())
        assert (params.params < 1.0).all()
        assert not params.grads.any()  # zeroed after the step

    def test_deterministic_across_runs(self):
        def run():
            arch = PolicyArch(length=2, num_categories=2, hidden=4, embed=2)
            params = init_params(arch, seed=3)
            state = AdamState.for_params(params)
            rng = np.random.default_rng(1)
            for _ in range(5):
                params.grads[:] = rng.normal(size=params.grads.shape)
                adam_step(params, state, self.config())
            return params.params

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize(
        "arch",
        [
            PolicyArch(length=3, num_categories=3, hidden=5, embed=2),  # under one block
            PolicyArch(length=64, num_categories=8, hidden=256, embed=16),  # 8 blocks and a partial one
        ],
    )
    def test_in_place_update_is_bit_identical_to_the_expression(self, arch):
        config = self.config(learning_rate=0.05)
        b1, b2 = config.adam_beta1, config.adam_beta2
        params = init_params(arch, seed=8)
        state = AdamState.for_params(params)
        assert state.scratch.size <= _ADAM_BLOCK
        want, m, v = params.params.copy(), np.zeros(arch.param_count), np.zeros(arch.param_count)
        rng = np.random.default_rng(8)
        for step in range(1, 6):
            g = rng.normal(size=arch.param_count) * 10.0 ** rng.integers(-6, 2)
            params.grads[:] = g
            adam_step(params, state, config)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            want -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert params.params.tobytes() == want.tobytes()
            assert not params.grads.any()


def frozen_group(seed=0, kind=TransitionKind.EXACT, n=6, k=3, t=3, g=4, temperature=1.0):
    arch = PolicyArch(length=n, num_categories=k, hidden=8, embed=4)
    params = init_params(arch, seed=seed)
    rng = np.random.default_rng(seed)
    prompt = Prompt.pattern_match(rng.integers(0, k, size=n), k, 4)
    sched = schedule_cosine(t, n)
    trajs = [
        rollout(params, prompt, sched, kind, temperature=temperature, seed=seed * 101 + j)
        for j in range(g)
    ]
    rewards = np.array([reward_pattern(tr.final_state, prompt) for tr in trajs])
    if np.sqrt(((rewards - rewards.mean()) ** 2).mean()) < 1e-12:
        rewards = rewards + rng.random(g) * 0.1  # force a usable spread
    advantages, _ = group_advantages(rewards)
    group = Group(prompt=prompt, trajectories=trajs, rewards=rewards, advantages=advantages)
    return group, params


class TestLossAndGrad:
    def test_unchanged_params_give_unit_ratios_and_zero_objective(self):
        group, params = frozen_group(seed=2)
        config = GrpoConfig(group_size=4, seed=2)
        params.zero_grads()
        objective, stats = grpo_loss_and_grad([group], params, None, config)
        assert stats["mean_ratio"] == 1.0
        assert stats["clip_frac"] == 0.0
        # Zero-mean advantages at unit ratio: the surrogate collapses to the
        # advantage mean, which is zero up to float accumulation.
        assert abs(objective) < 1e-12
        # The gradient equals the plain policy-gradient estimator and is
        # generically nonzero.
        assert np.linalg.norm(params.grads) > 0.0

    def test_clip_saturation_zeroes_the_gradient_path(self):
        group, params = frozen_group(seed=4, n=4, t=2, g=2)
        config = GrpoConfig(group_size=2, clip_eps=0.2, seed=4)
        # Push every ratio far above 1 + eps by shifting the recorded values.
        for traj in group.trajectories:
            traj.old_logprobs = traj.old_logprobs - 5.0
        group.advantages = np.array([1.0, 1.0])  # positive advantage everywhere
        params.zero_grads()
        objective, stats = grpo_loss_and_grad([group], params, None, config)
        assert stats["clip_frac"] == 1.0
        # Every term saturates at (1 + eps) * A with no gradient through r.
        assert objective == pytest.approx(1.2, abs=1e-9)
        assert np.linalg.norm(params.grads) == 0.0

    def test_term_bound_under_positive_advantage(self):
        group, params = frozen_group(seed=6, g=3)
        config = GrpoConfig(group_size=3, seed=6)
        group.advantages = np.abs(group.advantages) + 0.1
        objective, _ = grpo_loss_and_grad([group], params, None, config)
        bound = (1.0 + config.clip_eps) * np.abs(group.advantages).max()
        assert objective <= bound + 1e-12

    def test_kl_requires_reference(self):
        group, params = frozen_group(seed=1)
        config = GrpoConfig(group_size=4, kl_beta=0.5, seed=1)
        with pytest.raises(ValueError):
            grpo_loss_and_grad([group], params, None, config)

    def test_kl_term_lowers_objective_against_perturbed_reference(self):
        group, params = frozen_group(seed=3)
        base_cfg = GrpoConfig(group_size=4, kl_beta=0.0, seed=3)
        kl_cfg = GrpoConfig(group_size=4, kl_beta=1.0, seed=3)
        ref = params.copy()
        ref.params += 0.1
        params.zero_grads()
        obj_plain, _ = grpo_loss_and_grad([group], params, None, base_cfg)
        params.zero_grads()
        obj_kl, stats = grpo_loss_and_grad([group], params, ref, kl_cfg)
        assert stats["mean_kl"] > 0.0
        assert obj_kl < obj_plain

    @pytest.mark.parametrize("compute_grad", [True, False])
    @pytest.mark.parametrize("reduction", [Reduction(), Reduction(ReductionKind.COMPUTE_SUBSET, 1, 3)])
    @pytest.mark.parametrize("kl_beta", [0.0, 0.5])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_batched_pass_matches_per_state_reference(self, kind, kl_beta, reduction, compute_grad):
        groups, params, ref_params = two_prompt_groups(kind)
        config = GrpoConfig(group_size=3, kl_beta=kl_beta, reduction=reduction, kind=kind)
        ref = ref_params if kl_beta > 0.0 else None
        params.zero_grads()
        objective, stats = grpo_loss_and_grad(groups, params, ref, config, compute_grad=compute_grad)
        got = params.grads.copy()
        params.zero_grads()
        want_objective, want_stats, want = per_state_loss_and_grad(groups, params, ref, config)
        assert abs(objective - want_objective) <= 1e-12 * abs(want_objective)
        assert stats.keys() == want_stats.keys()
        for key, value in want_stats.items():
            assert abs(stats[key] - value) <= 1e-12 * abs(value)
        assert 0.0 < want_stats["clip_frac"] < 1.0
        if compute_grad:
            assert np.abs(want).max() > 0.0
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        else:
            assert not got.any()

    @pytest.mark.parametrize("compute_grad", [True, False])
    def test_groups_of_different_kinds_in_one_pass(self, compute_grad):
        # Steps of different kinds have different shapes and are scored by
        # separate calls; each must still land on its own term.
        exact, params, ref_params = two_prompt_groups(TransitionKind.EXACT)
        ar, _, _ = two_prompt_groups(TransitionKind.AR_STYLE)
        groups = [exact[0], ar[1]]
        config = GrpoConfig(group_size=3, kl_beta=0.5)
        params.zero_grads()
        objective, stats = grpo_loss_and_grad(groups, params, ref_params, config, compute_grad=compute_grad)
        got = params.grads.copy()
        params.zero_grads()
        want_objective, want_stats, want = per_state_loss_and_grad(groups, params, ref_params, config)
        assert abs(objective - want_objective) <= 1e-12 * abs(want_objective)
        for key, value in want_stats.items():
            assert abs(stats[key] - value) <= 1e-12 * abs(value)
        if compute_grad:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_outcome_of_another_step_is_refused(self):
        group, params = frozen_group(seed=9, n=8, t=4, g=4)
        config = GrpoConfig(group_size=4, seed=9)
        a, b = group.trajectories[:2]
        assert not np.array_equal(a.outcomes[2].positions, b.outcomes[2].positions)
        # Another trajectory's outcome at the same step: same row count,
        # other positions.
        a.outcomes[2], b.outcomes[2] = b.outcomes[2], a.outcomes[2]
        with pytest.raises(ValueError, match="does not belong"):
            grpo_loss_and_grad([group], params, None, config)
        with pytest.raises(ValueError, match="does not belong"):
            LossPass([group], params.arch, None, config)
        a.outcomes[2], b.outcomes[2] = b.outcomes[2], a.outcomes[2]
        grpo_loss_and_grad([group], params, None, config)
        # Steps 1 and 2 re-cut so that together they list the right
        # positions, but each one the wrong ones.
        one, two = a.outcomes[1], a.outcomes[2]
        cut = np.concatenate([one.positions, two.positions])
        a.outcomes[1], a.outcomes[2] = (
            StepOutcome(np.zeros(p.size, dtype=np.int64), np.ones(p.size), np.ones(p.size, dtype=bool), p)
            for p in (cut[: one.positions.size + 1], cut[one.positions.size + 1 :])
        )
        with pytest.raises(ValueError, match="does not belong"):
            grpo_loss_and_grad([group], params, None, config)
        with pytest.raises(ValueError, match="does not belong"):
            LossPass([group], params.arch, None, config)
        # The trajectory's own outcome of another step: another row count.
        a.outcomes[1], a.outcomes[2] = one, a.outcomes[0]
        with pytest.raises(ValueError, match="does not belong"):
            grpo_loss_and_grad([group], params, None, config, compute_grad=False)
        with pytest.raises(ValueError, match="does not belong"):
            LossPass([group], params.arch, None, config)

    def test_sampled_token_out_of_range_is_refused(self):
        group, params = frozen_group(seed=10, n=6, k=3, t=3, g=3)
        config = GrpoConfig(group_size=3, seed=10)
        traj = group.trajectories[2]
        outcome = traj.outcomes[1]
        sampled = outcome.sampled.copy()
        sampled[np.flatnonzero(~outcome.chosen)[0]] = 3
        traj.outcomes[1] = StepOutcome(sampled, outcome.confidences, outcome.chosen, outcome.positions)
        for compute_grad in (True, False):
            with pytest.raises(ValueError, match="sampled token out of range"):
                grpo_loss_and_grad([group], params, None, config, compute_grad=compute_grad)
        with pytest.raises(ValueError, match="sampled token out of range"):
            LossPass([group], params.arch, None, config)

    def test_compute_subset_matches_restricted_full_objective(self):
        group, params = frozen_group(seed=7, n=8, t=4, g=3)
        full_cfg = GrpoConfig(group_size=3, seed=7)
        # Collect per-step terms from the full run by scoring single-step
        # subsets, then compare their mean over the window with the windowed
        # objective.
        sub_cfg = GrpoConfig(
            group_size=3, seed=7, reduction=Reduction(ReductionKind.COMPUTE_SUBSET, 1, 3)
        )
        params.zero_grads()
        windowed, _ = grpo_loss_and_grad([group], params, None, sub_cfg)
        per_step = []
        for t in range(4):
            cfg_t = GrpoConfig(
                group_size=3, seed=7, reduction=Reduction(ReductionKind.COMPUTE_SUBSET, t, t + 1)
            )
            params.zero_grads()
            value, _ = grpo_loss_and_grad([group], params, None, cfg_t)
            per_step.append(value)
        params.zero_grads()
        full, _ = grpo_loss_and_grad([group], params, None, full_cfg)
        assert full == pytest.approx(np.mean(per_step), abs=1e-12)
        assert windowed == pytest.approx(np.mean(per_step[1:3]), abs=1e-12)

    def test_subset_range_validation(self):
        group, params = frozen_group(seed=8, t=3)
        config = GrpoConfig(group_size=4, seed=8, reduction=Reduction(ReductionKind.COMPUTE_SUBSET, 0, 9))
        with pytest.raises(ValueError):
            grpo_loss_and_grad([group], params, None, config)
        assert active_steps(Reduction(ReductionKind.COMPUTE_SUBSET, 1, 3), 4).tolist() == [1, 2]
        with pytest.raises(ValueError):
            Reduction(ReductionKind.COMPUTE_SUBSET, 2, 2)

    @pytest.mark.parametrize(
        "fields, match",
        [
            # LossPass divided by an empty subset's zero step count.
            (dict(kind=grpo.ReductionKind.COMPUTE_SUBSET, start=2, stop=1), "start=2, stop=1"),
            (dict(kind=grpo.ReductionKind.COMPUTE_SUBSET, start=-2, stop=1), "start=-2"),
            # A field the kind does not read, silently ignored before.
            (dict(start=1, stop=3), "reduction none does not read start, got start=1"),
            (dict(train_steps=2), "reduction none does not read train_steps"),
            (dict(kind=grpo.ReductionKind.UNMASK_REDUCE, train_steps=2, stop=3), "does not read stop"),
            (dict(kind=grpo.ReductionKind.COMPUTE_SUBSET, start=0, stop=2, train_steps=2), "train_steps"),
            (dict(kind=grpo.ReductionKind.UNMASK_REDUCE), "train_steps must be at least 1"),
            # A kind given by its config name was read as NONE.
            (dict(kind="subset", start=1, stop=2), "kind must be a ReductionKind, got 'subset'"),
        ],
    )
    def test_construction_refuses_naming_the_field(self, fields, match):
        with pytest.raises(ValueError, match=match):
            Reduction(**fields)


class TestLossPass:
    @pytest.mark.parametrize("compute_grad", [True, False])
    @pytest.mark.parametrize("reduction", [Reduction(), Reduction(ReductionKind.COMPUTE_SUBSET, 1, 3)])
    @pytest.mark.parametrize("kl_beta", [0.0, 0.5])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_evaluate_at_new_params_equals_a_fresh_pass(self, kind, kl_beta, reduction, compute_grad):
        groups, params, ref_params = two_prompt_groups(kind)
        config = GrpoConfig(group_size=3, kl_beta=kl_beta, reduction=reduction, kind=kind)
        ref = ref_params if kl_beta > 0.0 else None
        loss = LossPass(groups, params.arch, ref, config)
        rng = np.random.default_rng(1)
        for _ in range(3):
            params.params += rng.normal(scale=0.05, size=params.params.shape)
            params.zero_grads()
            fresh = params.copy()
            got = loss.evaluate(params, compute_grad)
            want = grpo_loss_and_grad(groups, fresh, ref, config, compute_grad)
            assert got == want
            assert params.grads.tobytes() == fresh.grads.tobytes()
            assert params.grads.any() == compute_grad

    def test_sees_in_place_edits_of_the_parameters(self):
        # Inner epochs update ``params.params`` in place between evaluations
        # of one pass; here one coordinate is edited.
        groups, params, ref_params = two_prompt_groups(TransitionKind.EXACT)
        config = GrpoConfig(group_size=3, kl_beta=0.5)
        loss = LossPass(groups, params.arch, ref_params, config)
        before = loss.evaluate(params, compute_grad=False)
        i = params.arch.input_dim * params.arch.hidden  # a first-layer bias, seen by every canvas
        base = params.params[i]
        params.params[i] = base + 1e-3
        after = loss.evaluate(params, compute_grad=False)
        assert after != before
        assert after == grpo_loss_and_grad(groups, params, ref_params, config, compute_grad=False)
        params.params[i] = base
        assert loss.evaluate(params, compute_grad=False) == before

    @pytest.mark.parametrize("kl_beta", [0.0, 0.2])
    def test_inner_epochs_on_one_pass_equal_a_pass_rebuilt_per_epoch(self, kl_beta, monkeypatch):
        setup = pattern_setup(iterations=3, inner_epochs=3, kl_beta=kl_beta)
        once = train(setup)
        built = LossPass

        class Rebuilt:
            def __init__(self, *args):
                self.args = args

            def evaluate(self, params, compute_grad=True):
                return built(*self.args).evaluate(params, compute_grad)

        monkeypatch.setattr(grpo, "LossPass", Rebuilt)
        rebuilt = train(setup)
        assert once.params.params.tobytes() == rebuilt.params.params.tobytes()
        for a, b in zip(once.metrics, rebuilt.metrics, strict=True):
            assert {**a, "wall_ms": 0} == {**b, "wall_ms": 0}

    def test_impossible_exact_terms_score_ratio_zero_with_a_matching_gradient(self):
        # Away from the rollout's parameters an EXACT step can lose every
        # token of a remasked row's support.  The pass scores it log p = -inf,
        # constant nearby, so central differences still match its gradient.
        group, params = frozen_group(seed=0, n=4, t=2, g=3)
        config = GrpoConfig(group_size=3, kl_beta=0.5)
        rng = np.random.default_rng(0)
        probe = params.copy()
        probe.params += rng.normal(scale=0.5, size=probe.params.shape)
        lo, hi = 1.0 - config.clip_eps, 1.0 + config.clip_eps
        ratios = []
        for traj in group.trajectories:
            for t, outcome in enumerate(traj.outcomes):
                probs = policy_forward(probe, traj.states[t], traj.prompt, traj.temperature)
                assert not _near_selection_boundary(probs, outcome)
                try:
                    ratios.append(float(np.exp(step_logprob(traj.kind, probs, outcome) - traj.old_logprobs[t])))
                except DegenerateOutcomeError:
                    ratios.append(0.0)
                assert min(abs(ratios[-1] - lo), abs(ratios[-1] - hi)) > 1e-3
        assert 0 < ratios.count(0.0) < len(ratios)
        loss = LossPass([group], params.arch, params, config)
        probe.zero_grads()
        objective, stats = loss.evaluate(probe)
        analytic = -probe.grads.copy()
        assert np.isfinite(objective) and np.isfinite(analytic).all() and analytic.any()
        assert stats["mean_ratio"] == pytest.approx(np.mean(ratios), rel=1e-12)
        numeric = _fd_gradient(loss.objectives, probe.params, 1e-5)
        assert _grad_mismatch(analytic, numeric)[0] < 1e-4

    @pytest.mark.parametrize("reduction", [Reduction(), Reduction(ReductionKind.COMPUTE_SUBSET, 1, 3)])
    @pytest.mark.parametrize("kl_beta", [0.0, 0.5])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_stacked_objectives_equal_evaluate_at_each_copy(self, kind, kl_beta, reduction):
        groups, params, ref_params = two_prompt_groups(kind)
        config = GrpoConfig(group_size=3, kl_beta=kl_beta, reduction=reduction, kind=kind)
        loss = LossPass(groups, params.arch, ref_params if kl_beta > 0.0 else None, config)
        rng = np.random.default_rng(2)
        stack = params.params + rng.normal(scale=0.05, size=(7, params.params.size))
        got = loss.objectives(stack)
        assert got.shape == (7,)
        for c in range(7):
            params.params[:] = stack[c]
            assert got[c].tobytes() == np.float64(loss.evaluate(params, compute_grad=False)[0]).tobytes()

    def test_stacked_objectives_score_impossible_exact_terms_ratio_zero_at_every_copy(self):
        group, params = frozen_group(seed=0, n=4, t=2, g=3)
        config = GrpoConfig(group_size=3, kl_beta=0.5)
        loss = LossPass([group], params.arch, params, config)
        rng = np.random.default_rng(0)
        probe = params.params + rng.normal(scale=0.5, size=params.params.shape)  # as in the test above
        stack = probe + rng.normal(scale=1e-6, size=(5, probe.size))
        objectives, ratio, _ = loss._pass(stack, None)
        impossible = ratio == 0.0
        assert np.isfinite(objectives).all() and np.isfinite(ratio).all()
        assert 0 < impossible[0].sum() < loss.size
        assert (impossible == impossible[0]).all()
        assert (loss.objectives(stack) == objectives).all()

    def test_stacked_objectives_name_the_step_of_a_non_finite_ratio(self):
        groups, params, _ = two_prompt_groups(TransitionKind.EXACT)
        groups[1].trajectories[2].old_logprobs[1] = -np.inf
        loss = LossPass(groups, params.arch, None, GrpoConfig(group_size=3))
        stack = np.tile(params.params, (3, 1))
        with pytest.raises(FloatingPointError, match=r"^non-finite importance ratio at trajectory 2, step 1$"):
            loss.evaluate(params)
        with pytest.raises(FloatingPointError, match=r"^non-finite importance ratio at trajectory 2, step 1$"):
            loss.objectives(stack)


class TestSumInOrder:
    def test_equals_a_loop_from_zero_on_every_row(self):
        rng = np.random.default_rng(0)
        terms = rng.normal(size=(50, 48)) * 10.0 ** rng.integers(-8, 8, size=(50, 48))
        terms[0] = -0.0
        got = grpo._sum_in_order(terms)
        want = []
        for row in terms.tolist():
            total = 0.0
            for x in row:
                total += x
            want.append(total)
        assert got.tobytes() == np.array(want).tobytes()
        assert (got != terms.sum(axis=1)).any()  # a pairwise sum would not do
        assert grpo._sum_in_order(terms[7]).tobytes() == np.float64(want[7]).tobytes()


class TestGrpoConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("temperature", float("nan")),
            ("temperature", float("inf")),
            ("kl_beta", float("nan")),
            ("learning_rate", 0.0),
            ("learning_rate", float("inf")),
            ("learning_rate", float("nan")),
            ("adam_beta1", 1.0),
            ("adam_beta1", -0.1),
            ("adam_beta2", 1.0),
            ("adam_beta2", float("nan")),
            ("adam_eps", 0.0),
            ("adam_eps", float("nan")),
            ("adam_eps", float("inf")),
            ("seed", -1),
            ("seed", 2**128),
            # A kind given as its string was scored as kept-only.
            ("kind", "ar"),
            ("kind", "exact"),
        ],
    )
    def test_out_of_range_value_is_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must"):
            GrpoConfig(**{name: value})

    def test_range_edges_accepted(self):
        GrpoConfig(kl_beta=0.0, adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300)


def pattern_setup(**overrides):
    arch = PolicyArch(length=8, num_categories=3, hidden=24, embed=8)
    target = tuple(i % 3 for i in range(8))
    prompt = Prompt.pattern_match(target, 3, 8)
    defaults = dict(group_size=4, iterations=5, seed=11)
    defaults.update(overrides)
    config = GrpoConfig(**defaults)
    return TrainSetup(
        config=config,
        arch=arch,
        reward_fn=reward_pattern,
        prompt=prompt,
        total_steps=4,
        eval_rollouts=0,
    )


class TestTrain:
    def test_zero_iterations_returns_initial_params(self):
        setup = pattern_setup(iterations=0)
        result = train(setup)
        fresh = init_params(setup.arch, setup.config.seed)
        assert np.array_equal(result.params.params, fresh.params)
        assert result.metrics == []

    def test_metrics_rows_have_schema_keys(self):
        from maskgrpo.grpo import METRICS_COLUMNS

        result = train(pattern_setup(iterations=3))
        assert len(result.metrics) == 3
        for row in result.metrics:
            assert tuple(row.keys()) == METRICS_COLUMNS

    def test_deterministic_metrics_modulo_wall_clock(self):
        a = train(pattern_setup(iterations=4)).metrics
        b = train(pattern_setup(iterations=4)).metrics
        for ra, rb in zip(a, b):
            for key in ra:
                if key != "wall_ms":
                    assert ra[key] == rb[key], key

    def test_train_leaves_its_setup_unchanged(self):
        # Each run starts from an empty filter history, so a second run on the
        # same setup resamples, and so trains, exactly as the first did.
        setup = dataclasses.replace(
            pattern_setup(iterations=10), filter_settings=StdHistory(warmup_min=3)
        )
        a = train(setup).metrics
        b = train(setup).metrics
        assert sum(row["resamples"] for row in a) > 0
        assert len(setup.filter_settings) == 0
        for ra, rb in zip(a, b):
            for key in ra:
                if key != "wall_ms":
                    assert ra[key] == rb[key], key

    def test_terminal_reward_broadcast_shares_advantage_across_steps(self):
        # The surrogate weights every step of a trajectory by that
        # trajectory's single advantage.  At unit ratios every per-step
        # subset objective must therefore equal the advantage mean, here
        # deliberately nonzero.
        group, params = frozen_group(seed=9, t=3, g=3)
        group.advantages = np.array([2.0, 0.5, 0.5])
        for t in range(3):
            cfg = GrpoConfig(group_size=3, seed=9, reduction=Reduction(ReductionKind.COMPUTE_SUBSET, t, t + 1))
            params.zero_grads()
            value, _ = grpo_loss_and_grad([group], params, None, cfg)
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_strong_kl_keeps_params_nearer_init(self):
        base = pattern_setup(iterations=30, kl_beta=0.0, seed=13)
        strong = pattern_setup(iterations=30, kl_beta=10.0, seed=13)
        init = init_params(base.arch, 13)
        free = train(base).params.params
        tied = train(strong).params.params
        assert np.linalg.norm(tied - init.params) < np.linalg.norm(free - init.params)

    def test_non_finite_ratio_names_the_iteration(self, monkeypatch):
        decoded = []

        def rollout_with_a_lost_old_logprob(*args, **kwargs):
            trajs = rollout(*args, **kwargs)
            decoded.append(trajs)
            if len(decoded) == 3:
                trajs[1].old_logprobs[2] = -np.inf
            return trajs

        monkeypatch.setattr(grpo, "rollout", rollout_with_a_lost_old_logprob)
        with pytest.raises(FloatingPointError, match=r"^iteration 2: .*trajectory 1, step 2$"):
            train(pattern_setup(iterations=5))

    def test_filtered_groups_count_resampled_and_exhausted_groups(self, caplog, monkeypatch):
        admit, decisions, per_iteration = filtering.admit, [], []

        def recording_admit(*args):
            decisions.append(admit(*args))
            return decisions[-1]

        def on_metrics(row, params):
            per_iteration.append((row, decisions[:]))
            decisions.clear()

        monkeypatch.setattr(filtering, "admit", recording_admit)
        history = StdHistory(percentile=50.0, warmup_min=3, max_resamples=1)
        setup = dataclasses.replace(pattern_setup(iterations=30), filter_settings=history)
        with caplog.at_level("WARNING", logger=grpo.__name__):
            train(setup, on_metrics=on_metrics)
        warned = [r.getMessage().split(":")[0] for r in caplog.records]
        exhausted = []
        for row, made in per_iteration:
            assert row["resamples"] == made.count(filtering.Decision.RESAMPLE)
            assert row["filtered_groups"] == len(made) - made.count(filtering.Decision.ACCEPT)
            if made[-1] is filtering.Decision.EXHAUSTED:
                exhausted.append(f"iteration {row['iter']}")
        assert warned == exhausted
        assert exhausted and sum(row["resamples"] for row, _ in per_iteration) > 0

    @pytest.mark.parametrize("kl_beta", [0.2, 0.0])
    @pytest.mark.parametrize("seed", range(1, 8))
    def test_off_policy_exact_inner_epochs_complete(self, seed, kl_beta):
        # Default shape, 60 iterations: before impossible steps scored ratio 0,
        # an inner epoch's update raised DegenerateOutcomeError on seeds 2-7.
        cfg = ExperimentConfig(iterations=60, seed=seed, kl_beta=kl_beta, inner_epochs=3, eval_rollouts=0)
        metrics = train(cfg.train_setup()).metrics
        assert len(metrics) == 60
        assert all(np.isfinite([row["loss"], row["grad_norm"], row["mean_ratio"]]).all() for row in metrics)

    @pytest.mark.parametrize("reduction", [Reduction(), Reduction(ReductionKind.UNMASK_REDUCE, train_steps=2)])
    def test_evaluation_decodes_the_full_schedule_on_the_eval_stream(self, reduction):
        setup = dataclasses.replace(
            pattern_setup(iterations=3, temperature=0.7, reduction=reduction), eval_rollouts=5
        )
        result = train(setup)
        config = setup.config
        trajs = rollout(
            result.params,
            setup.prompt,
            setup.full_schedule,
            config.kind,
            temperature=config.temperature,
            seed=[config.seed ^ (grpo._TAG_EVAL | i) for i in range(5)],
        )
        want = np.array([reward_pattern(traj.final_state, setup.prompt) for traj in trajs])
        assert result.eval_rewards.dtype == np.float64
        assert result.eval_rewards.tobytes() == want.tobytes()

    def test_no_evaluation_rollouts_give_an_empty_float_array(self):
        eval_rewards = train(pattern_setup(iterations=1)).eval_rewards
        assert eval_rewards.shape == (0,) and eval_rewards.dtype == np.float64

    def test_unmask_reduce_schedule_still_covers_canvas(self):
        setup = pattern_setup(iterations=2, reduction=Reduction(ReductionKind.UNMASK_REDUCE, train_steps=2))
        sched = setup.schedule_for(2)
        assert sched.total_steps == 2
        assert sched.total_tokens == setup.arch.length
        result = train(setup)
        assert len(result.metrics) == 2


def two_prompt_groups(kind):
    """Two groups of three rollouts with their own prompt and temperature.

    Rollout-time log-probabilities are jittered so that some ratios clip,
    and the reference policy is a perturbed copy.
    """
    n, k = 6, 3
    arch = PolicyArch(length=n, num_categories=k, hidden=8, embed=4)
    params = init_params(arch, seed=5)
    rng = np.random.default_rng(5)
    params.params += rng.normal(scale=0.3, size=params.params.shape)
    ref_params = params.copy()
    ref_params.params += rng.normal(scale=0.1, size=params.params.shape)
    sched = schedule_cosine(4, n)
    groups = []
    for g, temperature in enumerate((0.8, 1.3)):
        prompt = Prompt.pattern_match(rng.integers(0, k, size=n), k, arch.embed)
        trajs = rollout(params, prompt, sched, kind, temperature=temperature, seed=[10 * g + j for j in range(3)])
        for traj in trajs:
            traj.old_logprobs = traj.old_logprobs + rng.normal(scale=0.25, size=sched.total_steps)
        advantages, _ = group_advantages(rng.random(3))
        groups.append(Group(prompt=prompt, trajectories=trajs, rewards=np.zeros(3), advantages=advantages))
    return groups, params, ref_params


def reference_backward(params, state, traj, upstream):
    """One canvas's backward with the two rank-1 weight updates written out."""
    arch = params.arch
    kp1 = arch.num_categories + 1
    x = np.zeros(arch.input_dim)
    x[np.arange(arch.length) * kp1 + state.tokens] = 1.0
    x[arch.length * kp1 :] = traj.prompt.embedding
    w1, b1, w2, _ = _views_of(params.params, arch)
    h = np.tanh(x @ w1 + b1)
    probs = policy_forward(params, state, traj.prompt, traj.temperature)
    dz = upstream - probs.rows * upstream.sum(axis=1, keepdims=True)
    dlogits = np.zeros((arch.length, arch.num_categories))
    dlogits[probs.positions] = dz / traj.temperature
    dflat = dlogits.reshape(-1)
    gw1, gb1, gw2, gb2 = _views_of(params.grads, arch)
    gw2 += np.outer(h, dflat)
    gb2 += dflat
    dpre = (1.0 - h**2) * (w2 @ dflat)
    gw1 += np.outer(x, dpre)
    gb1 += dpre


def per_state_loss_and_grad(groups, params, ref_params, config):
    """The surrogate scored one recorded state at a time: the reference for
    the batched pass of ``grpo_loss_and_grad``."""
    lo, hi = 1.0 - config.clip_eps, 1.0 + config.clip_eps
    objective, ratios, clipped, kls = 0.0, [], 0, []
    for group in groups:
        for j, traj in enumerate(group.trajectories):
            steps = active_steps(config.reduction, traj.total_steps)
            norm = 1.0 / (len(groups) * len(group.trajectories) * steps.size)
            adv = float(group.advantages[j])
            for t in steps:
                state, outcome = traj.states[t], traj.outcomes[t]
                probs = policy_forward(params, state, traj.prompt, traj.temperature)
                logp, upstream = step_logprob_upstream(traj.kind, probs, outcome)
                ratio = float(np.exp(logp - traj.old_logprobs[t]))
                unclipped, clip = ratio * adv, min(max(ratio, lo), hi) * adv
                term = min(unclipped, clip)
                back = (-norm * (adv * ratio if unclipped <= clip else 0.0)) * upstream
                kl = 0.0
                if config.kl_beta > 0.0:
                    ref = policy_forward(ref_params, state, traj.prompt, traj.temperature)
                    idx = np.flatnonzero(outcome.chosen)
                    kl = float((probs.rows[idx] * (probs.log_rows[idx] - ref.log_rows[idx])).sum())
                    term -= config.kl_beta * kl
                    back[idx] += (norm * config.kl_beta) * probs.rows[idx] * (
                        probs.log_rows[idx] - ref.log_rows[idx]
                    )
                objective += norm * term
                ratios.append(ratio)
                clipped += int(ratio < lo or ratio > hi)
                kls.append(kl)
                reference_backward(params, state, traj, back)
    grads = params.grads.copy()
    params.zero_grads()
    stats = {
        "mean_ratio": sum(ratios) / len(ratios),
        "clip_frac": clipped / len(ratios),
        "mean_kl": sum(kls) / len(kls),
    }
    return objective, stats, grads
