import numpy as np
import pytest

from maskgrpo import (
    CanvasState,
    Prompt,
    UnmaskSchedule,
    apply_step,
    schedule_cosine,
    schedule_uniform,
)


class TestSchedules:
    def test_single_step_unmasks_everything(self):
        assert schedule_cosine(1, 4).counts == (4,)
        assert schedule_uniform(1, 7).counts == (7,)

    def test_one_per_step_when_t_equals_n(self):
        assert schedule_cosine(5, 5).counts == (1, 1, 1, 1, 1)

    def test_uniform_examples(self):
        assert schedule_uniform(2, 4).counts == (2, 2)
        # Remainder goes to the final steps.
        assert schedule_uniform(3, 4).counts == (1, 1, 2)

    def test_cosine_sums_and_is_nondecreasing(self):
        sched = schedule_cosine(4, 16)
        assert sum(sched.counts) == 16
        assert list(sched.counts) == sorted(sched.counts)

    def test_rejects_more_steps_than_tokens(self):
        with pytest.raises(ValueError):
            schedule_cosine(5, 4)
        with pytest.raises(ValueError):
            schedule_uniform(9, 8)

    @pytest.mark.parametrize("builder", [schedule_cosine, schedule_uniform])
    def test_all_sizes_up_to_64(self, builder):
        for length in range(1, 65):
            for steps in range(1, length + 1):
                sched = builder(steps, length)
                assert sum(sched.counts) == length
                assert min(sched.counts) >= 1
                assert len(sched.counts) == steps

    def test_schedule_rejects_zero_counts(self):
        with pytest.raises(ValueError):
            UnmaskSchedule(counts=(2, 0, 2))


class TestCanvasState:
    def test_all_masked_start(self):
        state = CanvasState.all_masked(5, 3)
        assert state.num_masked == 5
        assert state.iteration == 0
        assert (state.tokens == state.num_categories).all()

    def test_flags_must_match_sentinel(self):
        with pytest.raises(ValueError):
            CanvasState(
                tokens=np.array([3, 0]),
                mask_flags=np.array([False, False]),
                num_categories=3,
            )

    def test_immutable_value_semantics(self):
        state = CanvasState.all_masked(3, 2)
        with pytest.raises(ValueError):
            state.tokens[0] = 1


class TestApplyStep:
    def test_unmask_one_position(self):
        state = CanvasState.all_masked(2, 4)
        nxt = apply_step(state, [0], [3])
        assert nxt.tokens.tolist() == [3, 4]
        assert nxt.mask_flags.tolist() == [False, True]
        assert nxt.iteration == 1
        # Input untouched.
        assert state.num_masked == 2 and state.iteration == 0

    def test_empty_step_only_advances_iteration(self):
        state = CanvasState.all_masked(2, 4)
        nxt = apply_step(state, [], [])
        assert nxt.tokens.tolist() == state.tokens.tolist()
        assert nxt.iteration == 1

    def test_rewriting_unmasked_position_fails(self):
        state = apply_step(CanvasState.all_masked(3, 4), [1], [2])
        with pytest.raises(ValueError):
            apply_step(state, [1], [0])

    def test_duplicate_positions_fail(self):
        state = CanvasState.all_masked(4, 3)
        with pytest.raises(ValueError, match="duplicate"):
            apply_step(state, [2, 0, 2], [1, 1, 1])
        assert apply_step(state, [2, 0, 3], [1, 1, 1]).num_masked == 1

    def test_value_out_of_range_fails(self):
        state = CanvasState.all_masked(3, 4)
        with pytest.raises(ValueError):
            apply_step(state, [0], [4])

    @pytest.mark.parametrize(
        "positions, values, name",
        [([0.9], [1], "positions"), ([0], [1.7], "values"), ([0.9], [1.7], "positions"), ([True], [1], "positions")],
    )
    def test_non_integer_positions_or_values_fail(self, positions, values, name):
        # Converting would truncate: [0.9], [1.7] wrote token 1 at position 0.
        state = CanvasState.all_masked(3, 4)
        with pytest.raises(ValueError, match=f"^{name} must be integers, got dtype"):
            apply_step(state, positions, values)
        nxt = apply_step(state, np.array([0], dtype=np.int32), np.array([1], dtype=np.uint8))
        assert nxt.tokens.tolist() == [1, 4, 4]

    def test_partition_preserved_and_mask_count_drops(self):
        state = CanvasState.all_masked(6, 3)
        for positions in ([0, 3], [1], [2, 4, 5]):
            before = state.num_masked
            state = apply_step(state, positions, [0] * len(positions))
            assert state.num_masked == before - len(positions)
            assert ((state.tokens == state.num_categories) == state.mask_flags).all()
        assert state.num_masked == 0

    def test_schedule_drives_blank_to_complete(self):
        sched = schedule_cosine(4, 10)
        state = CanvasState.all_masked(10, 3)
        for count in sched.counts:
            masked = np.flatnonzero(state.mask_flags)[:count]
            state = apply_step(state, masked, np.zeros(count, dtype=int))
        assert state.num_masked == 0
        assert state.iteration == sched.total_steps


class TestPrompt:
    def test_embedding_is_pure_function_of_payload(self):
        a = Prompt.pattern_match([0, 1, 2], 3, 8)
        b = Prompt.pattern_match([0, 1, 2], 3, 8)
        assert np.array_equal(a.embedding, b.embedding)
        c = Prompt.pattern_match([0, 1, 0], 3, 8)
        assert not np.array_equal(a.embedding, c.embedding)

    def test_count_prompt_distinguishes_targets(self):
        a = Prompt.token_count(1, 3, 8, 4, 8)
        b = Prompt.token_count(1, 5, 8, 4, 8)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            Prompt.pattern_match([0, 5], 3, 8)
        with pytest.raises(ValueError):
            Prompt.token_count(0, 9, 8, 4, 8)
