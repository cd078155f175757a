"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q bench/test_bench.py

Each correctness check is shown to pass on the program's real output and to
fail on a tampered copy of it.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import maskgrpo as mg  # noqa: E402
from maskgrpo import grpo, harness  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds B [6, 7].
    name = [0, 1, 2, 1]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    calls, self_s = tracing.self_times(name, start, end, parent, 3)
    assert calls.tolist() == [1, 2, 1]
    assert self_s.tolist() == [3.0, 4.0, 3.0]


def test_wrapped_calls_record_parents_only_while_active():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert len(tracer.start) == 0
    tracer.active = True
    assert outer(1) == 4
    assert list(tracer.name) == [tracer.labels.index("outer"), tracer.labels.index("inner")]
    assert list(tracer.parent) == [-1, 0]
    summary = tracer.summary()
    assert summary["outer"][0] == summary["inner"][0] == 1


def test_install_rebinds_every_import_and_reports_missing_names(monkeypatch):
    def apply_step(state):
        return state

    package = types.ModuleType("fakepkg")
    canvas = types.ModuleType("fakepkg.canvas")
    decoder = types.ModuleType("fakepkg.decoder")
    canvas.apply_step = apply_step
    decoder.apply_step = apply_step  # as after `from .canvas import apply_step`
    for module in (package, canvas, decoder):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer()
    tracing.install(tracer, "fakepkg")
    assert canvas.apply_step is decoder.apply_step is not apply_step
    assert "canvas.apply_step" not in tracer.absent
    assert "policy.policy_forward_cached" in tracer.absent
    tracer.active = True
    decoder.apply_step(0)
    assert tracer.summary()["canvas.apply_step"][0] == 1


@pytest.fixture(scope="module")
def decode_case():
    arch = mg.PolicyArch(length=6, num_categories=3, hidden=8, embed=4)
    params = mg.init_params(arch, 5)
    prompt = mg.Prompt.pattern_match((0, 1, 2, 0, 1, 2), 3, 4)
    schedule = mg.schedule_cosine(3, 6)
    traj = mg.rollout(params, prompt, schedule, mg.TransitionKind.UNMASKED_ONLY, seed=11)

    def rows_at(state):
        return mg.policy_forward(params, state, prompt).rows

    return traj, schedule, rows_at


def test_rollout_check_passes_on_program_output(decode_case):
    traj, schedule, rows_at = decode_case
    assert checks.check_rollout(traj, schedule.counts, rows_at) == []


def test_rollout_check_catches_a_moved_kept_token(decode_case):
    traj, schedule, rows_at = decode_case
    k = traj.states[0].num_categories
    tokens = np.array(traj.states[1].tokens)
    kept = np.flatnonzero(tokens != k)[0]
    free = np.flatnonzero(np.asarray(traj.states[2].tokens) == k)[0]
    tokens[free], tokens[kept] = tokens[kept], k
    moved = mg.CanvasState(tokens=tokens, mask_flags=tokens == k, num_categories=k, iteration=1)
    tampered = mg.Trajectory(
        states=[traj.states[0], moved] + traj.states[2:],
        outcomes=traj.outcomes,
        old_logprobs=traj.old_logprobs,
        prompt=traj.prompt,
        kind=traj.kind,
        temperature=traj.temperature,
        seed=traj.seed,
    )
    assert any("step 0" in p for p in checks.check_rollout(tampered, schedule.counts, rows_at))


def test_rollout_check_catches_a_wrong_log_probability(decode_case):
    traj, schedule, rows_at = decode_case
    shifted = mg.Trajectory(**{**traj.__dict__, "old_logprobs": traj.old_logprobs + [0, 1e-6, 0]})
    assert any("step 1: log-probability" in p for p in checks.check_rollout(shifted, schedule.counts, rows_at))


def _draw(rows, n, rng):
    counts = np.zeros(rows.shape, dtype=np.int64)
    for i, row in enumerate(rows):
        counts[i] = rng.multinomial(n, row)
    return counts


def test_goodness_of_fit_accepts_the_rows_and_rejects_a_biased_sampler():
    rng = np.random.default_rng(3)
    rows = rng.dirichlet(np.ones(4), size=16)
    rows[0] = [0.999, 0.0005, 0.0003, 0.0002]  # sparse cells get pooled
    assert checks.check_first_step_samples(_draw(rows, 3000, rng), rows) == []
    biased = 0.95 * rows + 0.05 * np.eye(4)[0]
    assert checks.check_first_step_samples(_draw(biased, 3000, rng), rows) != []


def test_goodness_of_fit_rejects_a_token_of_probability_zero():
    rows = np.array([[0.5, 0.5, 0.0]])
    assert checks.chi_square_z([[40, 59, 1]], rows) == np.inf


def _gradient_case():
    cfg = harness.ExperimentConfig(
        canvas_n=6, canvas_k=3, hidden=8, embed=4, steps=3, group_size=3, seed=4
    )
    config = cfg.grpo_config()
    params = mg.init_params(cfg.arch(), 4)
    prompt = cfg.prompt()
    schedule = mg.schedule_cosine(3, 6)
    trajs = [mg.rollout(params, prompt, schedule, config.kind, seed=s) for s in range(3)]
    rewards = np.array([0.2, 0.5, 0.9])
    group = grpo.Group(prompt, trajs, rewards, (rewards - rewards.mean()) / rewards.std())
    grpo.grpo_loss_and_grad([group], params, None, config)
    analytic = -params.grads
    params.zero_grads()
    coords = np.argsort(-np.abs(analytic))[:8]

    def objective():
        return grpo.grpo_loss_and_grad([group], params, None, config, compute_grad=False)[0]

    return analytic[coords], checks.fd_numeric(objective, params.params, coords)


def test_gradient_check_catches_a_perturbed_coordinate():
    analytic, numeric = _gradient_case()
    assert checks.check_gradient(analytic, numeric) == []
    tampered = analytic.copy()
    tampered[3] += 0.01 * np.abs(analytic).max()
    assert checks.check_gradient(tampered, numeric) != []


def test_gradient_probe_passes_on_program_gradient():
    cfg = harness.ExperimentConfig(canvas_n=6, canvas_k=3, hidden=8, embed=4, steps=3, seed=2)
    problems, scale = workloads.gradient_probe(mg.init_params(cfg.arch(), 2), cfg, 2)
    assert problems == []
    assert scale >= checks.FD_MIN_SCALE


def test_train_checks_catch_ratio_clipping_and_no_learning():
    rows = [{"iter": i, "mean_ratio": 1.0, "clip_frac": 0.0} for i in range(3)]
    assert checks.check_train_rows(rows) == []
    rows[1] = {"iter": 1, "mean_ratio": 1.0 + 1e-6, "clip_frac": 0.1}
    assert len(checks.check_train_rows(rows)) == 2
    assert checks.check_reward_gain(np.linspace(0.2, 0.9, 100)) == []
    assert checks.check_reward_gain(np.full(100, 0.5)) != []


def test_tie_cases_have_brute_force_truth_that_the_enumeration_oracle_matches():
    truths = {}
    for case in workloads.TIE_CASES:
        probs, outcome, signature, truth = case.prepare()
        table = mg.enumerate_next_states(probs, outcome.num_chosen)
        assert abs(table[signature] - truth) < checks.TIE_TOL
        truths[case.name] = truth
    assert truths["saturated-3x3"] == pytest.approx(1.0)
    assert truths["even-2x2"] == pytest.approx(0.5)


def test_next_state_probability_by_hand():
    # Keep 1 of two rows; position 1 wins only when its sample beats row 0's.
    rows = [[0.9, 0.1], [0.3, 0.7]]
    # (pos 1, token 1): row 1 samples 1 (0.7) and row 0 samples token 1 (0.1 < 0.7).
    assert checks.next_state_probability(rows, [0, 1], 1, ((1,), (1,))) == pytest.approx(0.07)
