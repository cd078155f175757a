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
    kl_step,
    rollout,
    schedule_cosine,
    train,
)
from maskgrpo.grpo import active_steps
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
        assert kl_step(rows, rows) == 0.0

    def test_closed_form_value(self):
        value = kl_step(np.array([[0.5, 0.5]]), np.array([[0.25, 0.75]]))
        want = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert value == pytest.approx(want, abs=1e-12)
        assert value == pytest.approx(0.1438, abs=1e-4)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(4), size=3)
        q = rng.dirichlet(np.ones(4), size=3)
        assert kl_step(p, q) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_step(np.ones((1, 2)) / 2, np.ones((2, 2)) / 2)


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

    def test_compute_subset_matches_restricted_full_objective(self):
        group, params = frozen_group(seed=7, n=8, t=4, g=3)
        full_cfg = GrpoConfig(group_size=3, seed=7)
        # Collect per-step terms from the full run by scoring single-step
        # subsets, then compare their mean over the window with the windowed
        # objective.
        sub_cfg = GrpoConfig(
            group_size=3, seed=7, reduction=Reduction.compute_subset(1, 3)
        )
        params.zero_grads()
        windowed, _ = grpo_loss_and_grad([group], params, None, sub_cfg)
        per_step = []
        for t in range(4):
            cfg_t = GrpoConfig(
                group_size=3, seed=7, reduction=Reduction.compute_subset(t, t + 1)
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
        config = GrpoConfig(group_size=4, seed=8, reduction=Reduction.compute_subset(0, 9))
        with pytest.raises(ValueError):
            grpo_loss_and_grad([group], params, None, config)
        assert active_steps(Reduction.compute_subset(1, 3), 4).tolist() == [1, 2]
        with pytest.raises(ValueError):
            Reduction.compute_subset(2, 2)


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
            cfg = GrpoConfig(group_size=3, seed=9, reduction=Reduction.compute_subset(t, t + 1))
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

    def test_unmask_reduce_schedule_still_covers_canvas(self):
        setup = pattern_setup(iterations=2, reduction=Reduction.unmask_reduce(2))
        sched = setup.schedule_for(2)
        assert sched.total_steps == 2
        assert sched.total_tokens == setup.arch.length
        result = train(setup)
        assert len(result.metrics) == 2
