import io

import numpy as np
import pytest

from maskgrpo import (
    CanvasState,
    PolicyArch,
    ProbMatrix,
    Prompt,
    TransitionKind,
    apply_step,
    cam_select,
    init_params,
    policy_forward,
    rollout,
    sample_step,
    schedule_cosine,
    schedule_uniform,
)
from maskgrpo.decoder import draw_outcome, dump_trajectory, rng_for_stream
from maskgrpo.transition import enumerate_next_states, signature_of_outcome


class TestSampleStep:
    def test_degenerate_row_always_wins(self):
        pm = ProbMatrix.from_rows([[1.0, 0.0]])
        rng = rng_for_stream(0)
        for _ in range(50):
            sampled, conf = sample_step(pm, rng)
            assert sampled[0] == 0 and conf[0] == 1.0

    def test_fair_coin_frequency(self):
        # 1e5 draws of a [0.5, 0.5] row, batched as one big matrix; the
        # tolerance is the example's +-0.01, about a 6 sigma band here.
        n = 10**5
        pm = ProbMatrix.from_rows(np.tile([0.5, 0.5], (n, 1)))
        sampled, conf = sample_step(pm, rng_for_stream(7))
        freq = (sampled == 0).mean()
        assert abs(freq - 0.5) < 0.01
        assert (conf == 0.5).all()

    def test_confidence_matches_sampled_probability(self):
        pm = ProbMatrix.from_rows([[0.2, 0.3, 0.5], [0.7, 0.1, 0.2]])
        sampled, conf = sample_step(pm, rng_for_stream(3))
        assert np.array_equal(conf, pm.rows[np.arange(2), sampled])

    def test_fixed_seed_reproduces_sequence(self):
        pm = ProbMatrix.from_rows(np.full((8, 4), 0.25))
        a = sample_step(pm, rng_for_stream(11))[0]
        b = sample_step(pm, rng_for_stream(11))[0]
        assert np.array_equal(a, b)

    def test_zero_probability_tokens_never_sampled(self):
        pm = ProbMatrix.from_rows(np.tile([0.0, 0.5, 0.0, 0.5], (2000, 1)))
        sampled, _ = sample_step(pm, rng_for_stream(1))
        assert set(np.unique(sampled)) <= {1, 3}

    def test_draw_outcome_is_sample_then_select(self):
        pm = ProbMatrix.from_rows([[0.2, 0.3, 0.5], [0.7, 0.1, 0.2], [0.4, 0.4, 0.2]], [1, 2, 4])
        outcome = draw_outcome(pm, rng_for_stream(9), 2)
        sampled, conf = sample_step(pm, rng_for_stream(9))
        assert np.array_equal(outcome.sampled, sampled)
        assert np.array_equal(outcome.confidences, conf)
        assert np.array_equal(outcome.chosen, cam_select(conf, 2))
        assert np.array_equal(outcome.positions, pm.positions)


class TestCamSelect:
    def test_strict_ordering(self):
        assert cam_select([0.9, 0.6], 1).tolist() == [True, False]

    def test_tie_breaks_to_lowest_index(self):
        assert cam_select([0.5, 0.5], 1).tolist() == [True, False]

    def test_two_largest_with_tie(self):
        assert cam_select([0.1, 0.7, 0.4, 0.7], 2).tolist() == [False, True, False, True]

    def test_keep_count_enforced(self):
        with pytest.raises(ValueError):
            cam_select([0.5, 0.5], 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_chosen_confidences_dominate(self, seed):
        rng = rng_for_stream(seed)
        conf = rng.random(10)
        n_keep = int(rng.integers(1, 11))
        chosen = cam_select(conf, n_keep)
        assert chosen.sum() == n_keep
        if n_keep < 10:
            assert conf[chosen].min() >= conf[~chosen].max()


def tiny_policy(n=2, k=2, seed=0, zero=True):
    arch = PolicyArch(length=n, num_categories=k, hidden=8, embed=4)
    params = init_params(arch, seed=seed)
    if zero:
        params.params[:] = 0.0
    prompt = Prompt.pattern_match([0] * n, k, 4)
    return params, prompt


class TestRollout:
    def test_single_step_unmasks_all(self):
        params, prompt = tiny_policy(n=4, k=3)
        traj = rollout(params, prompt, schedule_uniform(1, 4), TransitionKind.EXACT, seed=2)
        assert traj.total_steps == 1
        assert traj.states[0].num_masked == 4
        assert traj.final_state.num_masked == 0
        # Keeping everything makes all three definitions coincide: the
        # recorded value must equal the plain sum of log confidences.
        want = np.log(traj.outcomes[0].confidences).sum()
        assert traj.old_logprobs[0] == pytest.approx(want, abs=1e-12)

    def test_same_seed_bit_identical(self):
        params, prompt = tiny_policy(n=6, k=3, zero=False)
        sched = schedule_cosine(3, 6)
        a = rollout(params, prompt, sched, TransitionKind.EXACT, seed=99)
        b = rollout(params, prompt, sched, TransitionKind.EXACT, seed=99)
        assert np.array_equal(a.old_logprobs, b.old_logprobs)
        assert np.array_equal(a.final_state.tokens, b.final_state.tokens)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert np.array_equal(oa.sampled, ob.sampled)
            assert np.array_equal(oa.chosen, ob.chosen)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_keys_is_refused(self, seed):
        # Masking the key to 128 bits decoded seed -1 as seed 2**128 - 1.
        params, prompt = tiny_policy(n=4, k=3)
        with pytest.raises(ValueError, match="less than 2\\*\\*128"):
            rollout(params, prompt, schedule_cosine(2, 4), TransitionKind.EXACT, seed=seed)
        with pytest.raises(ValueError):
            rng_for_stream(seed)
        assert 0.0 <= rng_for_stream(2**128 - 1).random() < 1.0

    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_kind_given_as_its_string_is_refused(self, kind):
        # It recorded kept-only log-probs before, whatever the kind named.
        params, prompt = tiny_policy(n=4, k=3)
        with pytest.raises(ValueError, match=f"kind must be a TransitionKind, got '{kind.value}'"):
            rollout(params, prompt, schedule_cosine(2, 4), kind.value, seed=[1, 2])

    def test_chosen_counts_follow_schedule(self):
        params, prompt = tiny_policy(n=8, k=3, zero=False)
        sched = schedule_cosine(4, 8)
        traj = rollout(params, prompt, sched, TransitionKind.AR_STYLE, seed=5)
        assert [o.num_chosen for o in traj.outcomes] == list(sched.counts)
        assert sum(o.num_chosen for o in traj.outcomes) == 8

    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_group_decode_equals_single_decodes(self, kind):
        # Members differ in seed, so rows mixed up between members would
        # change their samples, keep sets or canvases.
        params, prompt = tiny_policy(n=8, k=4, seed=3, zero=False)
        sched = schedule_cosine(4, 8)
        seeds = [11, 12, 13, 14]
        group = rollout(params, prompt, sched, kind, temperature=0.8, seed=seeds)
        assert [traj.seed for traj in group] == seeds
        finals = set()
        for traj, seed in zip(group, seeds):
            alone = rollout(params, prompt, sched, kind, temperature=0.8, seed=seed)
            for a, b in zip(traj.outcomes, alone.outcomes):
                assert np.array_equal(a.sampled, b.sampled)
                assert np.array_equal(a.chosen, b.chosen)
                assert np.array_equal(a.positions, b.positions)
            for a, b in zip(traj.states, alone.states):
                assert np.array_equal(a.tokens, b.tokens)
            assert np.array_equal(traj.final_state.tokens, alone.final_state.tokens)
            np.testing.assert_allclose(traj.old_logprobs, alone.old_logprobs, rtol=0, atol=1e-12)
            finals.add(traj.final_state.tokens.tobytes())
        assert len(finals) > 1

    def test_one_seed_in_a_sequence_gives_a_list(self):
        params, prompt = tiny_policy(n=4, k=3, zero=False)
        sched = schedule_uniform(2, 4)
        group = rollout(params, prompt, sched, TransitionKind.EXACT, seed=[7])
        alone = rollout(params, prompt, sched, TransitionKind.EXACT, seed=7)
        assert isinstance(group, list) and len(group) == 1
        assert np.array_equal(group[0].final_state.tokens, alone.final_state.tokens)

    def test_replay_reproduces_states(self):
        params, prompt = tiny_policy(n=8, k=4, zero=False)
        traj = rollout(params, prompt, schedule_cosine(4, 8), TransitionKind.EXACT, seed=17)
        state = traj.states[0]
        for t, outcome in enumerate(traj.outcomes):
            state = apply_step(state, outcome.chosen_positions(), outcome.chosen_values())
            assert np.array_equal(state.tokens, traj.states[t + 1].tokens)
            assert np.array_equal(state.mask_flags, traj.states[t + 1].mask_flags)

    def test_uniform_policy_final_canvases_equidistributed(self):
        # All 2**2 canvases must appear with frequency 1/4 +- 0.01 (the
        # example's bound; ~7 sigma at this sample size).  The exactly
        # uniform policy ties every confidence, so the recorded step
        # log-prob uses the kept-only definition, which ties leave defined.
        params, prompt = tiny_policy(n=2, k=2)
        sched = schedule_uniform(2, 2)
        counts = {}
        n = 10**5
        # Seeds 0..n-1 decode as groups of 1,000; each member is the rollout
        # of its seed alone (test_group_decode_equals_single_decodes).
        for start in range(0, n, 1000):
            seeds = list(range(start, start + 1000))
            for traj in rollout(params, prompt, sched, TransitionKind.UNMASKED_ONLY, seed=seeds):
                key = tuple(traj.final_state.tokens)
                counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        for key, c in counts.items():
            assert abs(c / n - 0.25) < 0.01, (key, c / n)

    def test_step0_empirical_matches_enumeration(self):
        # Seeded (tie-free) policy; the empirical next-state distribution of
        # the first step must match the brute-force table within 5 sigma.
        params, prompt = tiny_policy(n=4, k=4, seed=3, zero=False)
        sched = schedule_cosine(2, 4)
        probs = policy_forward(params, CanvasState.all_masked(4, 4), prompt, 1.0)
        table = enumerate_next_states(probs, sched.counts[0])
        n = 20000
        freq = {}
        for start in range(0, n, 1000):
            seeds = list(range(start, start + 1000))
            for traj in rollout(params, prompt, sched, TransitionKind.EXACT, seed=seeds):
                sig = signature_of_outcome(traj.outcomes[0])
                freq[sig] = freq.get(sig, 0) + 1
        assert set(freq) <= set(table)
        for sig, p in table.items():
            observed = freq.get(sig, 0) / n
            sigma = max(np.sqrt(p * (1 - p) / n), 1e-4)
            assert abs(observed - p) < 5 * sigma, (sig, observed, p)

    def test_dump_is_line_oriented(self):
        params, prompt = tiny_policy(n=4, k=3, zero=False)
        traj = rollout(params, prompt, schedule_uniform(2, 4), TransitionKind.EXACT, seed=1)
        buf = io.StringIO()
        dump_trajectory(traj, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == traj.total_steps + 1
        assert lines[0].startswith("step=0 chosen_positions=")
        assert lines[-1] == "final=" + "".join(map(str, traj.final_state.tokens))
