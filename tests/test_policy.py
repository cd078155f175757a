import numpy as np
import pytest

from maskgrpo import (
    CanvasState,
    PolicyArch,
    ProbMatrix,
    Prompt,
    apply_step,
    init_params,
    load_checkpoint,
    policy_backward,
    policy_forward,
    save_checkpoint,
)
from maskgrpo.policy import (
    CheckpointError,
    _layers,
    _views_of,
    encode_batch,
    forward_encoded,
)


def small_setup(seed=123):
    arch = PolicyArch(length=4, num_categories=3, hidden=8, embed=4)
    params = init_params(arch, seed=seed)
    prompt = Prompt.pattern_match([0, 1, 2, 0], 3, 4)
    state = CanvasState.all_masked(4, 3)
    return arch, params, prompt, state


class TestArch:
    @pytest.mark.parametrize(
        "name, value, least", [("length", 0, 1), ("num_categories", 1, 2), ("hidden", 0, 1), ("embed", 0, 1)]
    )
    def test_refusal_names_the_field_and_value(self, name, value, least):
        sizes = dict(length=4, num_categories=3, hidden=8, embed=4)
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {value}$"):
            PolicyArch(**{**sizes, name: value})


class TestForward:
    def test_zero_params_give_uniform_rows(self):
        arch, params, prompt, state = small_setup()
        params.params[:] = 0.0
        pm = policy_forward(params, state, prompt, 1.0)
        assert np.allclose(pm.rows, 1.0 / 3.0, atol=1e-15)

    def test_large_temperature_flattens_to_uniform(self):
        arch, params, prompt, state = small_setup()
        pm = policy_forward(params, state, prompt, temperature=1e6)
        assert np.abs(pm.rows - 1.0 / 3.0).max() < 1e-6

    def test_rows_normalised(self):
        _, params, prompt, state = small_setup()
        pm = policy_forward(params, state, prompt, 0.7)
        assert np.abs(pm.rows.sum(axis=1) - 1.0).max() < 1e-12
        assert (pm.rows > 0.0).all()

    def test_referential_transparency(self):
        _, params, prompt, state = small_setup()
        a = policy_forward(params, state, prompt, 0.7)
        b = policy_forward(params, state, prompt, 0.7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.log_rows, b.log_rows)

    def test_golden_regression(self):
        # Frozen output of this architecture at seed 123; guards against
        # accidental changes to init, encoding, or the softmax path.
        _, params, prompt, state = small_setup(seed=123)
        state = apply_step(state, [1], [2])
        pm = policy_forward(params, state, prompt, temperature=0.7)
        expected = np.array(
            [
                [0.3492430696664164, 0.4070728983604351, 0.24368403197314834],
                [0.27675370140613487, 0.32056257256681864, 0.40268372602704644],
                [0.3919776813386539, 0.3408547623502443, 0.26716755631110173],
            ]
        )
        assert pm.positions.tolist() == [0, 2, 3]
        np.testing.assert_allclose(pm.rows, expected, rtol=0, atol=1e-15)

    def test_no_masked_positions_is_an_error(self):
        _, params, prompt, state = small_setup()
        full = apply_step(state, [0, 1, 2, 3], [0, 0, 0, 0])
        with pytest.raises(ValueError):
            policy_forward(params, full, prompt, 1.0)

    def test_nonpositive_temperature_rejected(self):
        _, params, prompt, state = small_setup()
        with pytest.raises(ValueError):
            policy_forward(params, state, prompt, 0.0)

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        _, params, prompt, state = small_setup()
        with pytest.raises(ValueError, match="temperature must be positive"):
            encode_batch(params.arch, [state, state], [prompt, prompt], [1.0, temperature])

    def test_non_finite_logits_rejected(self):
        _, params, prompt, state = small_setup()
        params.params[-1] = np.inf  # output bias goes bad
        with pytest.raises(ValueError, match="non-finite"):
            policy_forward(params, state, prompt, 1.0)


def two_canvas_batch(params):
    """Two canvases that differ in mask pattern, prompt and temperature."""
    blank = CanvasState.all_masked(4, 3)
    states = [blank, apply_step(blank, [0, 2], [1, 2])]
    prompts = [Prompt.pattern_match([0, 1, 2, 0], 3, 4), Prompt.pattern_match([2, 2, 1, 0], 3, 4)]
    return states, prompts, [0.7, 1.3]


class TestForwardBatch:
    def test_rows_match_single_canvas_forwards(self):
        _, params, _, _ = small_setup()
        states, prompts, temps = two_canvas_batch(params)
        batch = forward_encoded(params, encode_batch(params.arch, states, prompts, temps))
        assert batch.inputs.start == [0, 4, 6]
        for b in range(2):
            one = policy_forward(params, states[b], prompts[b], temps[b])
            got = batch.probs(b)
            assert got.positions.tolist() == one.positions.tolist()
            np.testing.assert_allclose(got.log_rows, one.log_rows, rtol=0, atol=1e-14)

    def test_mismatched_lengths_rejected(self):
        _, params, prompt, state = small_setup()
        with pytest.raises(ValueError, match="one prompt and one temperature"):
            encode_batch(params.arch, [state, state], [prompt], [1.0, 1.0])
        with pytest.raises(ValueError, match="one prompt and one temperature"):
            encode_batch(params.arch, [], [], [])

    def test_complete_canvas_in_a_batch_rejected(self):
        _, params, prompt, state = small_setup()
        full = apply_step(state, [0, 1, 2, 3], [0, 0, 0, 0])
        with pytest.raises(ValueError, match="no masked positions"):
            encode_batch(params.arch, [state, full], [prompt, prompt], [1.0, 1.0])

class TestEncodedBatch:
    def test_layers_rerun_at_new_params_equal_a_fresh_forward(self):
        _, params, _, _ = small_setup()
        states, prompts, temps = two_canvas_batch(params)
        inputs = encode_batch(params.arch, states, prompts, temps)
        rng = np.random.default_rng(0)
        for _ in range(3):
            params.params += rng.normal(scale=0.1, size=params.params.shape)
            got = forward_encoded(params, inputs)
            want = forward_encoded(params, encode_batch(params.arch, states, prompts, temps))
            assert got.inputs is inputs
            for name, a, b in zip(inputs._fields[1:], inputs[1:], want.inputs[1:]):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
            for name in ("hidden", "rows", "log_rows"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("copies", [1, 5, 64])
    def test_each_copy_of_a_stacked_forward_equals_forward_encoded(self, copies):
        _, params, _, _ = small_setup()
        states, prompts, temps = two_canvas_batch(params)
        inputs = encode_batch(params.arch, states, prompts, temps)
        rng = np.random.default_rng(copies)
        stack = params.params + rng.normal(scale=0.3, size=(copies, params.params.size))
        got = _layers(stack, inputs)
        assert got.rows.shape == (copies, 6, 3) and got.hidden.shape == (copies, 2, params.arch.hidden)
        for c in range(copies):
            params.params[:] = stack[c]
            want = forward_encoded(params, inputs)
            for name in ("hidden", "rows", "log_rows"):
                assert getattr(got, name)[c].tobytes() == getattr(want, name).tobytes(), (c, name)

    def test_a_non_finite_logit_in_one_copy_of_a_stack_raises(self):
        _, params, prompt, state = small_setup()
        inputs = encode_batch(params.arch, [state], [prompt], [1.0])
        stack = np.tile(params.params, (4, 1))
        _layers(stack, inputs)
        stack[2, -1] = np.inf  # one copy's output bias goes bad
        with pytest.raises(ValueError, match="non-finite logits"):
            _layers(stack, inputs)

    def test_other_architecture_refused(self):
        _, params, prompt, state = small_setup()
        inputs = encode_batch(params.arch, [state], [prompt], [1.0])
        other = init_params(PolicyArch(length=4, num_categories=3, hidden=9, embed=4), seed=0)
        with pytest.raises(ValueError, match="do not match policy architecture"):
            forward_encoded(other, inputs)


class TestFromRows:
    def test_accepts_exact_zeros(self):
        pm = ProbMatrix.from_rows([[1.0, 0.0], [0.25, 0.75]], positions=[1, 3])
        assert pm.positions.tolist() == [1, 3]
        assert pm.log_rows[0, 1] == -np.inf
        assert not hasattr(pm, "hidden") and not hasattr(pm, "features")

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"out of \[0, 1\]"):
            ProbMatrix.from_rows([[0.6, 0.6, -0.2]])

    def test_row_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ProbMatrix.from_rows([[0.5, 0.4]])

    def test_row_position_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one probability row per masked position"):
            ProbMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]], positions=[0])

    @pytest.mark.parametrize("positions", [[1, 0], [3, 3], [-1, 2]])
    def test_positions_out_of_canvas_order_rejected(self, positions):
        # Tie-breaks, EXACT's "rows above j*" rule and the next-state
        # signatures all read rows in ascending canvas order.
        with pytest.raises(ValueError, match=r"positions \[.*\] must be >= 0 and strictly"):
            ProbMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]], positions=positions)


class TestBackward:
    def test_zero_upstream_leaves_grads_untouched(self):
        _, params, prompt, state = small_setup()
        batch = forward_encoded(params, encode_batch(params.arch, [state], [prompt], [1.0]))
        policy_backward(params, batch, np.zeros((4, 3)))
        assert not params.grads.any()

    def test_zero_params_closed_form(self):
        # With all weights zero only the output bias can receive gradient:
        # hidden activations are zero (kills the W2 outer product) and W2 is
        # zero (kills everything upstream of it).  The bias gradient is the
        # softmax backward of the upstream, i.e. one-hot minus the uniform row.
        arch, params, prompt, _ = small_setup()
        arch2 = PolicyArch(length=1, num_categories=2, hidden=8, embed=4)
        params = init_params(arch2, seed=0)
        params.params[:] = 0.0
        state = CanvasState.all_masked(1, 2)
        prompt = Prompt.pattern_match([0], 2, 4)
        upstream = np.array([[1.0, 0.0]])
        batch = forward_encoded(params, encode_batch(params.arch, [state], [prompt], [1.0]))
        policy_backward(params, batch, upstream)
        w1, b1, w2, b2 = _views_of(params.grads, arch2)
        assert not w1.any() and not b1.any() and not w2.any()
        np.testing.assert_allclose(b2, [0.5, -0.5], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        _, params, prompt, state = small_setup()
        batch = forward_encoded(params, encode_batch(params.arch, [state], [prompt], [1.0]))
        with pytest.raises(ValueError):
            policy_backward(params, batch, np.zeros((2, 3)))

    def test_hand_built_rows_rejected(self):
        # A from_rows matrix carries no activations to differentiate through,
        # even when its shape matches the upstream.
        _, params, _, _ = small_setup()
        probs = ProbMatrix.from_rows(np.full((4, 3), 1.0 / 3.0))
        with pytest.raises(ValueError, match="PolicyBatch of forward_encoded"):
            policy_backward(params, probs, np.zeros((4, 3)))

    def test_two_canvas_backward_is_the_sum_of_one_canvas_backwards(self):
        _, params, _, _ = small_setup()
        states, prompts, temps = two_canvas_batch(params)
        batch = forward_encoded(params, encode_batch(params.arch, states, prompts, temps))
        upstream = np.random.Generator(np.random.Philox(key=4)).normal(size=batch.log_rows.shape)
        params.zero_grads()
        policy_backward(params, batch, upstream)
        together = params.grads.copy()
        apart = np.zeros_like(together)
        for b in range(2):
            params.zero_grads()
            one = forward_encoded(params, encode_batch(params.arch, [states[b]], [prompts[b]], [temps[b]]))
            policy_backward(params, one, upstream[batch.inputs.start[b] : batch.inputs.start[b + 1]])
            apart += params.grads
        assert np.abs(apart).max() > 0.0
        np.testing.assert_allclose(together, apart, rtol=0, atol=1e-12 * np.abs(apart).max())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_differences(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        arch = PolicyArch(length=3, num_categories=3, hidden=6, embed=4)
        params = init_params(arch, seed=seed)
        params.params += rng.normal(scale=0.1, size=params.params.shape)
        prompt = Prompt.pattern_match(rng.integers(0, 3, size=3), 3, 4)
        state = CanvasState.all_masked(3, 3)
        temperature = 0.5 + rng.random()
        upstream = rng.normal(size=(3, 3))

        def weighted_sum() -> float:
            pm = policy_forward(params, state, prompt, temperature)
            return float((upstream * pm.log_rows).sum())

        params.zero_grads()
        batch = forward_encoded(params, encode_batch(params.arch, [state], [prompt], [temperature]))
        policy_backward(params, batch, upstream)
        analytic = params.grads.copy()
        step = 1e-6
        base = params.params.copy()
        for i in range(base.size):
            params.params[i] = base[i] + step
            hi = weighted_sum()
            params.params[i] = base[i] - step
            lo = weighted_sum()
            params.params[i] = base[i]
            fd = (hi - lo) / (2 * step)
            diff = abs(fd - analytic[i])
            assert diff <= 1e-8 or diff / max(abs(fd), abs(analytic[i])) < 1e-4


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        _, params, _, _ = small_setup(seed=9)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.arch == params.arch
        assert np.array_equal(loaded.params, params.params)
        assert loaded.params.tobytes() == params.params.tobytes()

    def test_bad_magic(self, tmp_path):
        _, params, _, _ = small_setup()
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        _, params, _, _ = small_setup()
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 99"):
            load_checkpoint(str(path))

    def test_truncated_file(self, tmp_path):
        _, params, _, _ = small_setup()
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError, match="payload bytes"):
            load_checkpoint(str(path))

    def test_arch_mismatch(self, tmp_path):
        _, params, _, _ = small_setup()
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        other = PolicyArch(length=5, num_categories=3, hidden=8, embed=4)
        with pytest.raises(CheckpointError, match="checkpoint arch"):
            load_checkpoint(str(path), expect_arch=other)

    @pytest.mark.parametrize(
        "start, patch, message",
        [
            # The header's canvas length, bytes 8-11.
            (8, bytes(4), "length must be at least 1, got 0"),
            # The payload's first parameter.
            (32, np.array([np.nan], dtype="<f8").tobytes(), "non-finite parameter values"),
        ],
        ids=["zero-length", "nan-payload"],
    )
    def test_invalid_header_or_payload_names_the_file(self, tmp_path, start, patch, message):
        _, params, _, _ = small_setup()
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, str(path))
        raw = bytearray(path.read_bytes())
        raw[start : start + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(str(path))
        assert str(caught.value) == f"{path}: {message}"
