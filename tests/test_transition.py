import itertools
import re

import numpy as np
import pytest

from maskgrpo import ProbMatrix, TransitionKind, transition
from maskgrpo.decoder import rng_for_stream, sample_step
from maskgrpo.transition import (
    DegenerateOutcomeError,
    StepOutcome,
    cam_select,
    enumerate_next_states,
    step_logprob,
    step_logprob_upstream,
)


@pytest.fixture
def fixture_f():
    """Two masked positions, rows [0.5, 0.5] and [0.7, 0.3], one kept."""
    return ProbMatrix.from_rows([[0.5, 0.5], [0.7, 0.3]])


def outcome_a(probs):
    # Both positions sample token 0; the second (confidence 0.7) is kept.
    return StepOutcome(
        sampled=np.array([0, 0]),
        confidences=np.array([0.5, 0.7]),
        chosen=np.array([False, True]),
        positions=probs.positions,
    )


def outcome_b(probs):
    # First position kept with token 0 (confidence 0.5); second remasked.
    return StepOutcome(
        sampled=np.array([0, 1]),
        confidences=np.array([0.5, 0.3]),
        chosen=np.array([True, False]),
        positions=probs.positions,
    )


class TestLogprobValues:
    def test_ar_is_full_confidence_product(self, fixture_f):
        assert step_logprob(TransitionKind.AR_STYLE, fixture_f, outcome_a(fixture_f)) == pytest.approx(
            np.log(0.35), abs=1e-12
        )

    def test_ar_single_certain_position(self):
        probs = ProbMatrix.from_rows([[1.0, 0.0]])
        outcome = StepOutcome(
            sampled=np.array([0]),
            confidences=np.array([1.0]),
            chosen=np.array([True]),
            positions=probs.positions,
        )
        assert step_logprob(TransitionKind.AR_STYLE, probs, outcome) == 0.0

    def test_ar_repeated_half_factor(self):
        k = 5
        probs = ProbMatrix.from_rows(np.tile([0.5, 0.5], (k, 1)))
        outcome = StepOutcome(
            sampled=np.zeros(k, dtype=int),
            confidences=np.full(k, 0.5),
            chosen=np.ones(k, dtype=bool),
            positions=probs.positions,
        )
        value = step_logprob(TransitionKind.AR_STYLE, probs, outcome)
        assert value == pytest.approx(k * np.log(0.5), abs=1e-12)

    def test_exact_outcome_a(self, fixture_f):
        # Both tokens of the remasked row lie below 0.7, so its factor is 1.
        assert step_logprob(TransitionKind.EXACT, fixture_f, outcome_a(fixture_f)) == pytest.approx(
            np.log(0.7), abs=1e-12
        )

    def test_exact_outcome_b(self, fixture_f):
        # Only the 0.3 token of the remasked row lies below 0.5.
        assert step_logprob(TransitionKind.EXACT, fixture_f, outcome_b(fixture_f)) == pytest.approx(
            np.log(0.15), abs=1e-12
        )

    def test_unmasked_only_values(self, fixture_f):
        assert step_logprob(TransitionKind.UNMASKED_ONLY, fixture_f, outcome_a(fixture_f)) == pytest.approx(
            np.log(0.7), abs=1e-12
        )
        assert step_logprob(TransitionKind.UNMASKED_ONLY, fixture_f, outcome_b(fixture_f)) == pytest.approx(
            np.log(0.5), abs=1e-12
        )

    def test_all_kept_collapses_the_three_definitions(self, fixture_f):
        outcome = StepOutcome(
            sampled=np.array([1, 0]),
            confidences=np.array([0.5, 0.7]),
            chosen=np.array([True, True]),
            positions=fixture_f.positions,
        )
        a = step_logprob(TransitionKind.AR_STYLE, fixture_f, outcome)
        b = step_logprob(TransitionKind.EXACT, fixture_f, outcome)
        c = step_logprob(TransitionKind.UNMASKED_ONLY, fixture_f, outcome)
        assert a == b == c

    def test_zero_confidence_guard(self):
        probs = ProbMatrix.from_rows([[1.0, 0.0]])
        outcome = StepOutcome(
            sampled=np.array([1]),
            confidences=np.array([0.0]),
            chosen=np.array([True]),
            positions=probs.positions,
        )
        with pytest.raises(DegenerateOutcomeError):
            step_logprob(TransitionKind.AR_STYLE, probs, outcome)
        with pytest.raises(DegenerateOutcomeError):
            step_logprob(TransitionKind.UNMASKED_ONLY, probs, outcome)
        scorers = (step_logprob, lambda *args: step_logprob_upstream(*args)[0])
        # A zero confidence on a kept row: every kind scores that row.
        for score in scorers:
            for kind in TransitionKind:
                with pytest.raises(DegenerateOutcomeError):
                    score(kind, probs, outcome)
        # A zero confidence on a remasked row: only AR_STYLE scores it.  The
        # row's other tokens lie below the kept 0.8, so EXACT's support mass is 1.
        probs = ProbMatrix.from_rows([[0.8, 0.2, 0.0], [0.5, 0.5, 0.0]])
        outcome = StepOutcome(
            sampled=np.array([0, 2]),
            confidences=np.array([0.8, 0.0]),
            chosen=np.array([True, False]),
            positions=probs.positions,
        )
        for score in scorers:
            with pytest.raises(DegenerateOutcomeError):
                score(TransitionKind.AR_STYLE, probs, outcome)
            for kind in (TransitionKind.EXACT, TransitionKind.UNMASKED_ONLY):
                assert score(kind, probs, outcome) == pytest.approx(np.log(0.8), abs=1e-12)
        # No kept row: EXACT has no threshold, the other kinds stay defined.
        probs = ProbMatrix.from_rows([[0.5, 0.5]])
        outcome = StepOutcome(
            sampled=np.array([0]),
            confidences=np.array([0.5]),
            chosen=np.array([False]),
            positions=probs.positions,
        )
        for score in scorers:
            with pytest.raises(ValueError, match="keep at least one position"):
                score(TransitionKind.EXACT, probs, outcome)
            assert score(TransitionKind.AR_STYLE, probs, outcome) == pytest.approx(np.log(0.5))
            assert score(TransitionKind.UNMASKED_ONLY, probs, outcome) == 0.0

    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_kind_given_as_its_string_is_refused(self, kind, fixture_f):
        # The string was scored as kept-only before.
        outcome = outcome_a(fixture_f)
        message = f"kind must be a TransitionKind, got '{kind.value}'"
        for score in (step_logprob, step_logprob_upstream):
            with pytest.raises(ValueError, match=message):
                score(kind.value, fixture_f, outcome)
        with pytest.raises(ValueError, match=message):
            transition._score(kind.value, fixture_f.rows, fixture_f.log_rows, outcome.sampled, outcome.chosen)

    def test_exact_zero_mass_below_threshold_guard(self):
        # The remasked row concentrates all mass on one token above the
        # threshold: a measure-zero configuration that must be reported.
        probs = ProbMatrix.from_rows([[0.4, 0.6], [1.0, 0.0]])
        outcome = StepOutcome(
            sampled=np.array([1, 0]),
            confidences=np.array([0.6, 1.0]),
            chosen=np.array([True, False]),
            positions=probs.positions,
        )
        with pytest.raises(DegenerateOutcomeError):
            step_logprob(TransitionKind.EXACT, probs, outcome)


def walk_next_states(probs, num_to_keep):
    """The reference enumeration: one Python step per joint sampling, in
    ``itertools.product`` order, selecting with the decoder's ``cam_select``."""
    rows = probs.rows
    m, k = rows.shape
    out = {}
    row_idx = np.arange(m)
    for combo in itertools.product(range(k), repeat=m):
        tokens = np.asarray(combo, dtype=np.int64)
        confs = rows[row_idx, tokens]
        joint = float(confs.prod())
        if joint == 0.0:
            continue
        chosen = cam_select(confs, num_to_keep)
        pos = probs.positions[chosen]
        key = (tuple(int(p) for p in pos), tuple(int(v) for v in tokens[chosen]))
        out[key] = out.get(key, 0.0) + joint
    return out


def _enumeration_instance(rng, rounded):
    """Random rows, m = 1-7 and k = 2-4, at random increasing positions.  Rounded
    rows are counts over a small denominator, so confidences tie within and
    across rows and some tokens have probability 0."""
    m, k = int(rng.integers(1, 8)), int(rng.integers(2, 5))
    if rounded:
        denom = int(rng.integers(2, 7))
        rows = rng.multinomial(denom, np.full(k, 1.0 / k), size=m) / denom
    else:
        raw = rng.gamma(1.0, 1.0, size=(m, k)) + 1e-6
        rows = raw / raw.sum(axis=1, keepdims=True)
    positions = np.sort(rng.choice(3 * m, size=m, replace=False))
    return ProbMatrix.from_rows(rows, positions), int(rng.integers(0, m + 1))


def _saturated_rows(m, k):
    logits = np.zeros((m, k))
    logits[:, 0] = 40.0
    rows = np.exp(logits - logits.max(axis=1, keepdims=True))
    return rows / rows.sum(axis=1, keepdims=True)


# The benchmark's two confidence-tie instances: saturated rows whose top
# token rounds to probability 1, and even rows.
TIE_SHAPES = [(_saturated_rows(3, 3), 1), (np.full((2, 2), 0.5), 1)]


def walk_digits(probs, walk):
    """The walk's next states as digit rows, in its order: 0 for a remasked
    row, 1 + the token for a kept one."""
    row_of = {p: r for r, p in enumerate(probs.positions.tolist())}
    keys = np.zeros((len(walk), probs.num_rows), dtype=np.int64)
    for s, (positions, tokens) in enumerate(walk):
        keys[s, [row_of[p] for p in positions]] = np.add(tokens, 1)
    return keys


def assert_same_table(probs, num_to_keep):
    walk = walk_next_states(probs, num_to_keep)
    walk_sums = np.array(list(walk.values())).tobytes()
    # Keys, first-reached order and every sum's bits: the arrays, then the
    # dict view built from them.
    keys, sums = transition._next_state_arrays(probs, num_to_keep)
    assert keys.dtype == np.int64 and keys.shape == (len(walk), probs.num_rows)
    assert keys.tolist() == walk_digits(probs, walk).tolist()
    assert sums.tobytes() == walk_sums
    fast = enumerate_next_states(probs, num_to_keep)
    assert list(fast.items()) == list(walk.items())
    assert np.array(list(fast.values())).tobytes() == walk_sums


class TestEnumeration:
    @pytest.mark.parametrize("seed", range(8))
    def test_arrays_equal_the_python_walk(self, seed):
        rng = rng_for_stream(seed ^ 3000)
        for i in range(26):
            assert_same_table(*_enumeration_instance(rng, rounded=i % 2 == 1))

    @pytest.mark.parametrize("rows, num_to_keep", TIE_SHAPES)
    def test_benchmark_tie_shapes_equal_the_python_walk(self, rows, num_to_keep):
        assert_same_table(ProbMatrix.from_rows(rows), num_to_keep)

    def test_blocks_of_samplings_join_as_one_walk(self, monkeypatch):
        # A block of 7 samplings splits every table below across blocks, and
        # next states reached again in a later block must add to the sums of
        # an earlier one, in walk order.
        monkeypatch.setattr(transition, "_CHUNK", 7)
        rng = rng_for_stream(9 ^ 3000)
        for i in range(30):
            assert_same_table(*_enumeration_instance(rng, rounded=i % 2 == 1))
        for rows, num_to_keep in TIE_SHAPES:
            assert_same_table(ProbMatrix.from_rows(rows), num_to_keep)

    @pytest.mark.parametrize(
        "rows, num_to_keep",
        [
            # K = 1: one sampling, however many rows.
            (np.ones((70, 1)), 3),
            (np.ones((4, 1)), 4),
            # No masked position: one empty next state of probability 1.
            (np.zeros((0, 3)), 0),
        ],
    )
    def test_degenerate_shapes_equal_the_python_walk(self, rows, num_to_keep):
        assert_same_table(ProbMatrix.from_rows(rows), num_to_keep)

    @pytest.mark.parametrize(
        "rows, num_to_keep, key",
        [(np.zeros((0, 3)), 0, []), (np.ones((70, 1)), 3, [1, 1, 1] + [0] * 67)],
    )
    def test_degenerate_shapes_give_one_next_state_of_probability_one(self, rows, num_to_keep, key):
        keys, sums = transition._next_state_arrays(ProbMatrix.from_rows(rows), num_to_keep)
        assert keys.shape == (1, len(rows))
        assert keys.tolist() == [key]
        assert sums.tolist() == [1.0]

    def test_lookup_finds_the_outcomes_next_state_by_its_digits(self, fixture_f):
        keys, sums = transition._next_state_arrays(fixture_f, 1)
        table = enumerate_next_states(fixture_f, 1)
        # outcome_a keeps position 1 as token 0, outcome_b position 0 as token 0.
        for outcome, key in ((outcome_a(fixture_f), ((1,), (0,))), (outcome_b(fixture_f), ((0,), (0,)))):
            got = transition._probability_of(keys, sums, outcome)
            assert got == table[key]
        # Keeping row 1's token 1 (confidence 0.3) would need a sample of
        # row 0 below 0.3, and row 0 has none: the next state is absent.
        absent = StepOutcome(
            sampled=np.array([0, 1]),
            confidences=np.array([0.5, 0.3]),
            chosen=np.array([False, True]),
            positions=fixture_f.positions,
        )
        assert ((1,), (1,)) not in table
        assert transition._probability_of(keys, sums, absent) == 0.0

    def test_fixture_f_hand_enumeration(self, fixture_f):
        table = enumerate_next_states(fixture_f, 1)
        assert table[(1,), (0,)] == pytest.approx(0.70, abs=1e-12)
        assert table[(0,), (0,)] == pytest.approx(0.15, abs=1e-12)
        assert table[(0,), (1,)] == pytest.approx(0.15, abs=1e-12)
        assert ((1,), (1,)) not in table
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_position_enumeration_is_the_row(self):
        probs = ProbMatrix.from_rows([[0.2, 0.3, 0.5]])
        table = enumerate_next_states(probs, 1)
        for token, p in enumerate([0.2, 0.3, 0.5]):
            assert table[(0,), (token,)] == pytest.approx(p, abs=1e-15)

    def test_deterministic_rows_give_single_signature(self):
        probs = ProbMatrix.from_rows([[1.0, 0.0], [0.0, 1.0]])
        table = enumerate_next_states(probs, 1)
        assert len(table) == 1
        assert list(table.values())[0] == pytest.approx(1.0, abs=1e-15)

    def test_enumeration_guard(self):
        probs = ProbMatrix.from_rows(np.full((21, 2), 0.5))
        with pytest.raises(ValueError, match="exceeds the guard"):
            enumerate_next_states(probs, 1)
        with pytest.raises(ValueError, match="cannot keep more positions"):
            enumerate_next_states(ProbMatrix.from_rows(np.full((3, 2), 0.5)), 4)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda probs: cam_select(probs.rows[:, 0], -1), "^cannot keep -1 of 3 candidates$"),
            (lambda probs: enumerate_next_states(probs, -1), "^num_to_keep=-1: "),
            (lambda probs: transition._next_state_arrays(probs, -1), "^num_to_keep=-1: "),
        ],
    )
    def test_negative_keep_count_refused(self, call, message):
        # A [:-1] slice would keep m - 1 rows, and the enumeration would
        # return the table for keeping m - 1.
        with pytest.raises(ValueError, match=message):
            call(ProbMatrix.from_rows(np.full((3, 2), 0.5)))


class TestOracle:
    def test_fixture_outcomes(self, fixture_f):
        keys, sums = transition._next_state_arrays(fixture_f, 1)
        for make, want in ((outcome_a, 0.70), (outcome_b, 0.15)):
            outcome = make(fixture_f)
            enumerated = transition._probability_of(keys, sums, outcome)
            modeled = np.exp(step_logprob(TransitionKind.EXACT, fixture_f, outcome))
            assert (enumerated, modeled) == pytest.approx((want, want), abs=1e-12)
            assert abs(enumerated - modeled) < 1e-12

    @pytest.mark.parametrize("seed", range(30))
    def test_random_tie_free_instances(self, seed):
        rng = rng_for_stream(seed ^ 1000)
        m = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        raw = rng.gamma(1.0, 1.0, size=(m, k)) + 1e-6
        probs = ProbMatrix.from_rows(raw / raw.sum(axis=1, keepdims=True))
        sampled, confs = sample_step(probs, rng)
        chosen = cam_select(confs, int(rng.integers(1, min(2, m) + 1)))
        outcome = StepOutcome(
            sampled=sampled, confidences=confs, chosen=chosen, positions=probs.positions
        )
        enumerated = transition._probability_of(*transition._next_state_arrays(probs, outcome.num_chosen), outcome)
        assert abs(enumerated - np.exp(step_logprob(TransitionKind.EXACT, probs, outcome))) < 1e-10

    def test_exact_sums_to_one_over_signatures(self, fixture_f):
        keys, _ = transition._next_state_arrays(fixture_f, 1)
        total = 0.0
        for sampled, chosen in zip(*transition._representatives(fixture_f, keys)):
            confs = fixture_f.rows[np.arange(2), sampled]
            outcome = StepOutcome(sampled=sampled, confidences=confs, chosen=chosen, positions=fixture_f.positions)
            total += np.exp(step_logprob(TransitionKind.EXACT, fixture_f, outcome))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_tie_instance_is_flagged_not_asserted(self):
        # The remasked row holds a token with probability exactly equal to
        # the kept confidence.  It lies above the kept row, so the
        # lowest-index tie-break remasks that token too, and the closed form
        # must count it like the enumeration does.
        probs = ProbMatrix.from_rows([[0.5, 0.5], [0.5, 0.5]])
        outcome = StepOutcome(
            sampled=np.array([0, 0]),
            confidences=np.array([0.5, 0.5]),
            chosen=np.array([True, False]),
            positions=probs.positions,
        )
        enumerated = transition._probability_of(*transition._next_state_arrays(probs, 1), outcome)
        assert enumerated == pytest.approx(0.5, abs=1e-15)
        assert np.exp(step_logprob(TransitionKind.EXACT, probs, outcome)) == pytest.approx(0.5, abs=1e-15)

    def test_saturated_rows_tie_at_one(self):
        # Float64 rounds the top token of a row with a logit gap of 40 to
        # exactly 1.0, so every sample of token 0 ties at confidence 1.  The
        # first row is kept and the next canvas is certain.
        logits = np.array([[40.0, 0.0, 0.0]] * 3)
        rows = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = ProbMatrix.from_rows(rows / rows.sum(axis=1, keepdims=True))
        confs = probs.rows[np.arange(3), [0, 0, 0]]
        assert np.all(confs == 1.0)
        outcome = StepOutcome(
            sampled=np.zeros(3, dtype=np.int64),
            confidences=confs,
            chosen=cam_select(confs, 1),
            positions=probs.positions,
        )
        enumerated = transition._probability_of(*transition._next_state_arrays(probs, 1), outcome)
        assert enumerated == pytest.approx(1.0, abs=1e-15)
        assert np.exp(step_logprob(TransitionKind.EXACT, probs, outcome)) == pytest.approx(1.0, abs=1e-15)


class TestOrderingChain:
    @pytest.mark.parametrize("seed", range(40))
    def test_ar_below_exact_below_unmasked(self, seed):
        rng = rng_for_stream(seed ^ 2000)
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        raw = rng.gamma(1.0, 1.0, size=(m, k)) + 1e-6
        probs = ProbMatrix.from_rows(raw / raw.sum(axis=1, keepdims=True))
        sampled, confs = sample_step(probs, rng)
        chosen = cam_select(confs, int(rng.integers(1, m + 1)))
        outcome = StepOutcome(
            sampled=sampled, confidences=confs, chosen=chosen, positions=probs.positions
        )
        lp_ar = step_logprob(TransitionKind.AR_STYLE, probs, outcome)
        lp_exact = step_logprob(TransitionKind.EXACT, probs, outcome)
        lp_kept = step_logprob(TransitionKind.UNMASKED_ONLY, probs, outcome)
        assert lp_ar <= lp_exact + 1e-12
        assert lp_exact <= lp_kept + 1e-12
        if chosen.all():
            assert lp_ar == lp_exact == lp_kept


class TestUpstreamGradients:
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_upstream_matches_value(self, kind, fixture_f):
        # Upstream rows for outcome_a and outcome_b.  AR_STYLE scores every
        # row, one-hot at its sample; the other kinds put the one-hot on the
        # kept rows, and on remasked rows EXACT puts its renormalised support
        # and UNMASKED_ONLY zeros.
        expected = {
            TransitionKind.AR_STYLE: ([[1, 0], [1, 0]], [[1, 0], [0, 1]]),
            TransitionKind.EXACT: ([[0.5, 0.5], [1, 0]], [[1, 0], [0, 1]]),
            TransitionKind.UNMASKED_ONLY: ([[0, 0], [1, 0]], [[1, 0], [0, 0]]),
        }[kind]
        for make, rows in zip((outcome_a, outcome_b), expected):
            outcome = make(fixture_f)
            value, upstream = step_logprob_upstream(kind, fixture_f, outcome)
            assert value == step_logprob(kind, fixture_f, outcome)
            assert upstream.shape == fixture_f.rows.shape
            np.testing.assert_array_equal(upstream, rows)

    def test_exact_upstream_rows(self, fixture_f):
        _, upstream = step_logprob_upstream(
            TransitionKind.EXACT, fixture_f, outcome_a(fixture_f)
        )
        # Kept row: one-hot at the sampled token.
        np.testing.assert_allclose(upstream[1], [1.0, 0.0])
        # Remasked row: below-threshold mass renormalised (here: everything).
        np.testing.assert_allclose(upstream[0], [0.5, 0.5])
        _, upstream_b = step_logprob_upstream(
            TransitionKind.EXACT, fixture_f, outcome_b(fixture_f)
        )
        np.testing.assert_allclose(upstream_b[0], [1.0, 0.0])
        np.testing.assert_allclose(upstream_b[1], [0.0, 1.0])

    def test_exact_upstream_on_tied_remasked_row(self):
        # Kept row 1 holds the threshold 0.5.  Remasked row 0 lies below it,
        # so its tied token ranks above the kept sample and stays out of the
        # support; remasked row 2 lies above it, so its tied token is in.
        probs = ProbMatrix.from_rows([[0.5, 0.3, 0.2], [0.5, 0.25, 0.25], [0.5, 0.3, 0.2]])
        outcome = StepOutcome(
            sampled=np.array([1, 0, 1]),
            confidences=np.array([0.3, 0.5, 0.3]),
            chosen=np.array([False, True, False]),
            positions=probs.positions,
        )
        value, upstream = step_logprob_upstream(TransitionKind.EXACT, probs, outcome)
        assert value == pytest.approx(np.log(0.5 * 0.5 * 1.0), abs=1e-12)
        assert value == step_logprob(TransitionKind.EXACT, probs, outcome)
        np.testing.assert_allclose(upstream[0], [0.0, 0.6, 0.4])
        np.testing.assert_allclose(upstream[1], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(upstream[2], [0.5, 0.3, 0.2])
        table = enumerate_next_states(probs, 1)
        assert table[(1,), (0,)] == pytest.approx(0.25, abs=1e-15)

    def test_representative_scores_like_the_outcome(self, fixture_f):
        # The representative of outcome_b's next state keeps row 0's token 0
        # and gives remasked row 1 its least likely token, 1: outcome_b itself.
        outcome = outcome_b(fixture_f)
        keys, _ = transition._next_state_arrays(fixture_f, 1)
        key = keys[(keys == np.where(outcome.chosen, outcome.sampled + 1, 0)).all(axis=1)]
        (sampled,), (chosen,) = transition._representatives(fixture_f, key)
        assert chosen.tolist() == outcome.chosen.tolist() and sampled.tolist() == [0, 1]
        rep = StepOutcome(sampled, fixture_f.rows[[0, 1], sampled], chosen, fixture_f.positions)
        want = step_logprob(TransitionKind.EXACT, fixture_f, outcome)
        assert step_logprob(TransitionKind.EXACT, fixture_f, rep) == want


def _member(rng, m, k, keep, rows_kind):
    """One step of ``m`` masked rows over ``k`` tokens keeping ``keep`` rows.

    ``random`` rows are smooth, ``tie`` rows are integer counts over a small
    denominator with a remasked row holding a token exactly as likely as the
    smallest kept confidence (as in the acceptance suite's tie fixture), and
    ``saturated`` rows put all their mass on one token.
    """
    while True:
        if rows_kind == "random":
            raw = rng.gamma(1.0, 1.0, size=(m, k)) + 1e-6
            rows = raw / raw.sum(axis=1, keepdims=True)
        elif rows_kind == "tie":
            denom = int(rng.integers(2, 7))
            rows = rng.multinomial(denom, np.full(k, 1.0 / k), size=m) / denom
        else:
            rows = np.eye(k)[rng.integers(0, k, size=m)]
        positions = np.sort(rng.choice(3 * m, size=m, replace=False))
        probs = ProbMatrix.from_rows(rows, positions)
        sampled, confs = sample_step(probs, rng)
        outcome = StepOutcome(sampled, confs, cam_select(confs, keep), probs.positions)
        if rows_kind != "tie" or np.any(rows[~outcome.chosen] == confs[outcome.chosen].min()):
            return probs, outcome


def _score_stack(kind, members, out=None):
    """Score ``members`` (pairs of matrix and outcome) in one stacked call."""
    probs, outcomes = zip(*members)
    return transition._score(
        kind,
        np.concatenate([p.rows for p in probs]),
        np.concatenate([p.log_rows for p in probs]),
        np.concatenate([o.sampled for o in outcomes]),
        np.concatenate([o.chosen for o in outcomes]),
        len(members),
        out=out,
    )


class TestStackedScorer:
    @pytest.mark.parametrize("rows_kind", ["random", "tie", "saturated"])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_one_stacked_call_equals_separate_calls(self, kind, rows_kind):
        rng = rng_for_stream(31)
        for _ in range(40):
            m, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            keep = int(rng.integers(1, m))
            members = [_member(rng, m, k, keep, rows_kind) for _ in range(int(rng.integers(1, 6)))]
            upstream = np.zeros((m * len(members), k))
            values = _score_stack(kind, members, out=upstream)
            assert values.shape == (len(members),)
            for b, (probs, outcome) in enumerate(members):
                value, want = step_logprob_upstream(kind, probs, outcome)
                assert values[b].tobytes() == np.float64(value).tobytes()
                assert step_logprob(kind, probs, outcome) == value
                assert upstream[b * m : (b + 1) * m].tobytes() == want.tobytes()

    def test_an_impossible_member_scores_minus_inf_where_the_edge_refuses_it(self):
        rng = rng_for_stream(32)
        healthy = [_member(rng, 3, 3, 1, "random") for _ in range(2)]
        # A kept row whose sampled token has probability zero.
        probs = ProbMatrix.from_rows([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]])
        zero_kept = StepOutcome(
            np.array([2, 0, 0]), np.array([0.0, 0.2, 0.4]), np.array([True, False, False]), probs.positions
        )
        # A remasked row (position 1) with all its mass above the kept confidence.
        probs_mass = ProbMatrix.from_rows([[0.4, 0.6, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        no_mass = StepOutcome(
            np.array([1, 0, 2]), np.array([0.6, 1.0, 0.5]), np.array([True, False, False]), probs_mass.positions
        )
        cases = [(kind, (probs, zero_kept), "^confidence of a scored token is exactly zero$") for kind in TransitionKind]
        cases.append(
            (
                TransitionKind.EXACT,
                (probs_mass, no_mass),
                r"^remasked positions \[1\] have no token mass that ranks below the selection threshold np.float64\(0.6\)$",
            )
        )
        for kind, bad, message in cases:
            with pytest.raises(DegenerateOutcomeError, match=message) as edge:
                step_logprob_upstream(kind, *bad)
            with pytest.raises(DegenerateOutcomeError) as value_only:
                step_logprob(kind, *bad)
            assert str(value_only.value) == str(edge.value)
            # The kernel trusts the step: -inf there, the healthy members as alone.
            members = [healthy[0], bad, healthy[1]]
            upstream = np.zeros((9, 3))
            values = _score_stack(kind, members, out=upstream)
            assert values[1] == -np.inf
            assert _score_stack(kind, members).tobytes() == values.tobytes()
            for b in (0, 2):
                value, want = step_logprob_upstream(kind, *members[b])
                assert values[b].tobytes() == np.float64(value).tobytes()
                assert upstream[3 * b : 3 * b + 3].tobytes() == want.tobytes()
            if bad[1] is no_mass:
                # The row without support mass keeps a zero upstream row; the
                # other rows hold their one-hot and their support.
                assert upstream[3:6].tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.2, 0.3, 0.5]]
        # No member keeps a row: EXACT has no threshold, alone or stacked.
        empty = [_member(rng, 2, 2, 0, "random") for _ in range(3)]
        with pytest.raises(ValueError, match="keep at least one position"):
            step_logprob(TransitionKind.EXACT, *empty[0])
        with pytest.raises(ValueError, match="keep at least one position"):
            _score_stack(TransitionKind.EXACT, empty)

    @staticmethod
    def _copies(rng, kind, members, count, rows_kind):
        """``count`` parameter copies of the stacked rows of ``members``, all
        scored against the members' outcomes: copy 0 is the members' own rows,
        and each later copy redraws every row of the same kind, keeping the
        original row where the redrawn one gives a scored sample probability 0."""
        probs, outcomes = zip(*members)
        m, k = probs[0].rows.shape
        keep = outcomes[0].num_chosen
        base = np.concatenate([p.rows for p in probs])
        sampled = np.concatenate([o.sampled for o in outcomes])
        chosen = np.concatenate([o.chosen for o in outcomes])
        scored = np.ones_like(chosen) if kind is TransitionKind.AR_STYLE else chosen
        stack = [base]
        for _ in range(count - 1):
            rows = np.concatenate([_member(rng, m, k, keep, rows_kind)[0].rows for _ in members])
            zero = scored & (rows[np.arange(len(rows)), sampled] == 0.0)
            rows[zero] = base[zero]
            stack.append(rows)
        rows = np.stack(stack)
        with np.errstate(divide="ignore"):
            return rows, np.log(rows), sampled, chosen

    @pytest.mark.parametrize("rows_kind", ["random", "tie", "saturated"])
    @pytest.mark.parametrize("kind", list(TransitionKind))
    def test_copy_axes_equal_separate_calls(self, kind, rows_kind):
        rng = rng_for_stream(33)
        for _ in range(30):
            m, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            keep = int(rng.integers(1, m))
            members = [_member(rng, m, k, keep, rows_kind) for _ in range(int(rng.integers(1, 5)))]
            rows, log_rows, sampled, chosen = self._copies(rng, kind, members, 6, rows_kind)
            # An empty EXACT support scores -inf in both.
            values = transition._score(kind, rows, log_rows, sampled, chosen, len(members))
            assert values.shape == (6, len(members))
            for c in range(6):
                alone = transition._score(kind, rows[c], log_rows[c], sampled, chosen, len(members))
                assert values[c].tobytes() == alone.tobytes()
            grid = (rows.reshape(2, 3, *rows.shape[1:]), log_rows.reshape(2, 3, *rows.shape[1:]))
            in_grid = transition._score(kind, *grid, sampled, chosen, len(members))
            assert in_grid.shape == (2, 3, len(members)) and in_grid.tobytes() == values.tobytes()

    def _with_empty_supports(self, bad):
        """Three copies of three ``EXACT`` members keeping one row of three, each
        copy its members' rows mixed with a different share of the uniform row,
        and the first remasked row of each (copy, member) in ``bad`` made
        one-hot at a token above the threshold, so its support has no mass."""
        rng = rng_for_stream(34)
        while True:
            members = [_member(rng, 3, 3, 1, "random") for _ in range(3)]
            probs, outcomes = zip(*members)
            base = np.concatenate([p.rows for p in probs])
            rows = np.stack([(1.0 - w) * base + w / 3 for w in (0.0, 0.1, 0.2)])
            sampled = np.concatenate([o.sampled for o in outcomes])
            chosen = np.concatenate([o.chosen for o in outcomes])
            values = transition._score(TransitionKind.EXACT, rows, np.log(rows), sampled, chosen, 3)
            if np.isfinite(values).all():
                break
        for c, b in bad:
            row = 3 * b + int(np.flatnonzero(~chosen[3 * b : 3 * b + 3])[0])
            rows[c, row] = np.eye(3)[rows[c, row].argmax()]
        with np.errstate(divide="ignore"):
            return rows, np.log(rows), sampled, chosen, np.concatenate([p.positions for p in probs])

    @pytest.mark.parametrize("bad", [[(1, 1)], [(1, 2), (2, 0)], [(0, 2), (2, 1)]])
    def test_a_degenerate_copy_scores_minus_inf_there_only(self, bad):
        rows, log_rows, sampled, chosen, positions = self._with_empty_supports(bad)
        values = transition._score(TransitionKind.EXACT, rows, log_rows, sampled, chosen, 3)
        want = np.zeros((3, 3), dtype=bool)
        want[tuple(zip(*bad))] = True
        assert np.array_equal(values == -np.inf, want)
        assert np.isfinite(values[~want]).all()
        for c in range(3):
            upstream = np.zeros(rows.shape[1:])
            alone = transition._score(TransitionKind.EXACT, rows[c], log_rows[c], sampled, chosen, 3, out=upstream)
            assert alone.tobytes() == values[c].tobytes()
            for b in range(3):
                block = slice(3 * b, 3 * b + 3)
                probs = ProbMatrix(rows[c, block], log_rows[c, block], positions[block])
                confs = probs.rows[np.arange(3), sampled[block]]
                outcome = StepOutcome(sampled[block], confs, chosen[block], positions[block])
                if not want[c, b]:
                    value, own = step_logprob_upstream(TransitionKind.EXACT, probs, outcome)
                    assert np.float64(value).tobytes() == alone[b].tobytes()
                    assert own.tobytes() == upstream[block].tobytes()
                    continue
                # The edge names the remasked row whose upstream row the kernel left zero.
                empty = ~upstream[block].any(axis=1)
                assert empty.sum() == 1 and not chosen[block][empty].any()
                named = f"remasked positions {positions[block][empty].tolist()} have no token mass"
                for score in (step_logprob, step_logprob_upstream):
                    with pytest.raises(DegenerateOutcomeError, match=re.escape(named)):
                        score(TransitionKind.EXACT, probs, outcome)
