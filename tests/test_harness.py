import dataclasses
import io
import subprocess
import sys

import numpy as np
import pytest

from maskgrpo import (
    PolicyArch,
    Prompt,
    TransitionKind,
    grpo,
    init_params,
    load_checkpoint,
    rollout,
    save_checkpoint,
    schedule_cosine,
)
from maskgrpo.decoder import dump_trajectory
from maskgrpo.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_sample,
    cmd_train,
    cmd_verify,
    main,
    parse_config,
)
from maskgrpo.oracles import run_gradcheck, run_verify


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, ""))
        assert cfg == ExperimentConfig()

    def test_single_override(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "group_size=2\n"))
        assert cfg.group_size == 2
        assert cfg.clip_eps == ExperimentConfig().clip_eps

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(
            write_config(tmp_path, "# a comment\n\nseed=9  # trailing comment\n")
        )
        assert cfg.seed == 9

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
            parse_config(write_config(tmp_path, "seed=1\nbogus=3\n"))

    def test_bad_value_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":1: invalid value for steps"):
            parse_config(write_config(tmp_path, "steps=abc\n"))

    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":1: expected key=value"):
            parse_config(write_config(tmp_path, "just words\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(write_config(tmp_path, "seed=1\nseed=2\n"))

    def test_cross_field_steps_vs_canvas(self, tmp_path):
        with pytest.raises(ConfigError, match="steps must satisfy"):
            parse_config(write_config(tmp_path, "steps=10\ncanvas_n=4\n"))

    def test_train_steps_requires_unmask_reduction(self, tmp_path):
        with pytest.raises(ConfigError, match="train_steps"):
            parse_config(write_config(tmp_path, "train_steps=4\n"))
        cfg = parse_config(write_config(tmp_path, "reduction=unmask\ntrain_steps=4\n"))
        assert cfg.grpo_config().reduction.train_steps == 4

    def test_subset_range_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="subset range"):
            parse_config(
                write_config(tmp_path, "reduction=subset\nsubset_start=5\nsubset_stop=3\n")
            )

    @pytest.mark.parametrize(
        "text",
        [
            "subset_start=2\nsubset_stop=6\n",
            "subset_stop=6\n",
            "reduction=unmask\ntrain_steps=4\nsubset_start=1\nsubset_stop=3\n",
        ],
    )
    def test_subset_keys_require_subset_reduction(self, tmp_path, text):
        with pytest.raises(ConfigError, match="subset_start and subset_stop are only meaningful"):
            parse_config(write_config(tmp_path, text))

    def test_bad_choice_value(self, tmp_path):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config(write_config(tmp_path, "transition=magic\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_reward_target_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="reward_target length"):
            parse_config(write_config(tmp_path, "canvas_n=4\nsteps=4\nreward_target=0,1\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("reward=count\nreward_target=0,1\n", "reward_target is only meaningful with reward=pattern"),
            ("reward_value=3\n", "reward_value and reward_count are only meaningful with reward=count"),
            ("reward_count=2\n", "reward_value and reward_count are only meaningful with reward=count"),
        ],
    )
    def test_keys_of_the_other_reward_refused(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "keys",
        [
            {"train_steps": 4},
            {"reward_value": 3},
            {"reward": "count", "reward_target": "0,1"},
            {"checkpoint_every": -1},
            {"reward_target": "0,1"},
            {"schedule": "linear"},
            {"reduction": "bogus"},
            {"reduction": "subset", "subset_start": 5, "subset_stop": 3},
            {"hidden": 0},
            {"filter_window": 0},
            {"filter_window": 10, "filter_warmup": 20},
        ],
    )
    def test_python_construction_refuses_like_the_file(self, tmp_path, keys):
        with pytest.raises(ValueError) as built:
            ExperimentConfig(**keys)
        path = write_config(tmp_path, "".join(f"{k}={v}\n" for k, v in keys.items()))
        with pytest.raises(ConfigError) as parsed:
            parse_config(path)
        assert str(parsed.value) == f"{path}: {built.value}"

    def test_filter_warmup_longer_than_the_window_refused(self, tmp_path):
        path = write_config(tmp_path, "filter_window=10\nfilter_warmup=20\n")
        with pytest.raises(ConfigError, match=r"filter warmup_min must be at most window \(10\), got 20$"):
            parse_config(path)
        assert parse_config(write_config(tmp_path, "filter_window=20\nfilter_warmup=20\n")).filter_warmup == 20

    def test_non_integer_reward_target_token_names_the_key(self, tmp_path):
        message = "reward_target must be comma-separated integers, got '0,x'"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(reward_target="0,x")
        with pytest.raises(ConfigError, match=message):
            parse_config(write_config(tmp_path, "reward_target=0,x\n"))

    def test_reward_count_message_names_the_half_canvas_default(self):
        message = r"reward_count must lie in \[0, canvas_n\], or be -1 for canvas_n // 2, got -2"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(reward="count", reward_count=-2)
        half = ExperimentConfig(reward="count", reward_count=3, canvas_n=6, steps=3).prompt()
        assert ExperimentConfig(reward="count", reward_count=-1, canvas_n=6, steps=3).prompt() == half

    def test_settings_are_fixed_once_checked(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExperimentConfig().train_steps = 4


class TestCmdTrain:
    def test_zero_iterations_header_only_and_init_checkpoint(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            "iterations=0\ncanvas_n=4\ncanvas_k=2\nsteps=2\nhidden=8\nembed=4\nseed=5\neval_rollouts=0\n",
        )
        out = tmp_path / "run"
        assert cmd_train(cfg_path, str(out)) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("iter,mean_reward")
        arch = PolicyArch(length=4, num_categories=2, hidden=8, embed=4)
        loaded = load_checkpoint(str(out / "final.ckpt"), expect_arch=arch)
        assert np.array_equal(loaded.params, init_params(arch, 5).params)

    def test_metrics_deterministic_modulo_wall_ms(self, tmp_path):
        text = (
            "iterations=4\ncanvas_n=6\ncanvas_k=3\nsteps=3\nhidden=8\nembed=4\n"
            "group_size=3\nseed=21\neval_rollouts=0\n"
        )
        cfg_path = write_config(tmp_path, text)
        rows = []
        for name in ("a", "b"):
            out = tmp_path / name
            cmd_train(cfg_path, str(out))
            lines = (out / "metrics.csv").read_text().splitlines()
            header = lines[0].split(",")
            drop = header.index("wall_ms")
            rows.append([",".join(l.split(",")[:drop]) for l in lines])
        assert rows[0] == rows[1]

    def test_periodic_checkpoints(self, tmp_path):
        text = (
            "iterations=4\ncanvas_n=4\ncanvas_k=2\nsteps=2\nhidden=8\nembed=4\n"
            "group_size=2\ncheckpoint_every=2\neval_rollouts=0\n"
        )
        out = tmp_path / "run"
        cmd_train(write_config(tmp_path, text), str(out))
        assert (out / "ckpt_000002.ckpt").exists()
        assert (out / "ckpt_000004.ckpt").exists()

    @pytest.mark.parametrize("sub, reason", [("", "File exists"), ("x", "Not a directory")])
    def test_output_directory_that_cannot_be_made_exits_2(self, tmp_path, monkeypatch, capsys, sub, reason):
        monkeypatch.setattr(grpo, "train", lambda *a, **k: pytest.fail("training started"))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = str(blocker / sub)
        text = "iterations=1\ncanvas_n=4\ncanvas_k=2\nsteps=2\nhidden=8\nembed=4\ngroup_size=2\n"
        assert main(["train", "-c", write_config(tmp_path, text), "-o", out]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot create output directory {out!r}: {reason}\n"
        assert blocker.read_text() == "kept"

    def test_resample_budget_wider_than_the_stream_key_is_refused(self, tmp_path, capsys):
        # Attempt 256 would share its rollout stream with the next iteration.
        with pytest.raises(ValueError, match="max_resamples=256 exceeds 255"):
            ExperimentConfig(filter_max_resamples=256, iterations=1).train_setup()
        out = tmp_path / "run"
        text = f"filter_max_resamples=256\niterations=1\nout_dir={out}\n"
        assert main(["train", "-c", write_config(tmp_path, text)]) == 2
        assert not (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "max_resamples=256 exceeds 255" in err


    @pytest.mark.parametrize(
        "key, raw",
        [
            ("temperature", "nan"),
            ("kl_beta", "nan"),
            ("learning_rate", "0"),
            ("adam_beta1", "1.0"),
            ("adam_beta2", "-0.5"),
            ("adam_eps", "0"),
            ("adam_eps", "inf"),
        ],
    )
    def test_out_of_range_setting_exits_2_naming_its_key(self, tmp_path, capsys, key, raw):
        out = tmp_path / "run"
        text = f"{key}={raw}\niterations=1\nout_dir={out}\n"
        assert main(["train", "-c", write_config(tmp_path, text)]) == 2
        assert not (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} must" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_keys_exits_2_before_the_header(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        text = f"seed={seed}\niterations=1\nout_dir={out}\n"
        assert main(["train", "-c", write_config(tmp_path, text)]) == 2
        assert not (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and f"seed must lie in [0, 2**128)" in err

    def test_subset_keys_without_subset_reduction_exit_2_before_the_header(self, tmp_path, capsys):
        out = tmp_path / "run"
        text = f"subset_start=2\nsubset_stop=6\niterations=1\nout_dir={out}\n"
        assert main(["train", "-c", write_config(tmp_path, text)]) == 2
        assert not (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "only meaningful with reduction=subset" in err

    @pytest.mark.parametrize(
        "text, key",
        [("reward=count\nreward_target=0,1\n", "reward_target"), ("reward_value=3\nreward_count=2\n", "reward_value")],
    )
    def test_keys_of_the_other_reward_exit_2_before_the_header(self, tmp_path, capsys, text, key):
        out = tmp_path / "run"
        assert main(["train", "-c", write_config(tmp_path, f"{text}iterations=0\nout_dir={out}\n")]) == 2
        assert not (out / "metrics.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} " in err and "only meaningful with reward=" in err


class TestCmdSample:
    def test_rollouts_decode_on_the_sample_stream_tag(self, tmp_path):
        # bench/workloads.py mirrors the tag as _TAG_DECODE.
        assert grpo._TAG_DECODE == 4 << 56
        assert len({grpo._TAG_ROLLOUT, grpo._TAG_EVAL, grpo._TAG_DECODE}) == 3
        arch = PolicyArch(length=4, num_categories=3, hidden=8, embed=4)
        params = init_params(arch, 1)
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(params, str(ckpt))
        got = io.StringIO()
        assert cmd_sample(str(ckpt), "pattern:0,1,2,0", 2, steps=2, seed=3, out=got) == 0
        want = io.StringIO()
        for i in range(2):
            want.write(f"--- rollout {i} ---\n")
            traj = rollout(
                params,
                Prompt.pattern_match((0, 1, 2, 0), 3, 4),
                schedule_cosine(2, 4),
                TransitionKind.UNMASKED_ONLY,
                seed=3 ^ (grpo._TAG_DECODE | i),
            )
            dump_trajectory(traj, want)
        assert got.getvalue().startswith(want.getvalue())

    def test_frequency_summary_on_uniform_policy(self, tmp_path):
        arch = PolicyArch(length=2, num_categories=2, hidden=8, embed=4)
        params = init_params(arch, 0)
        params.params[:] = 0.0  # exactly uniform
        ckpt = tmp_path / "zero.ckpt"
        save_checkpoint(params, str(ckpt))
        buf = io.StringIO()
        assert cmd_sample(str(ckpt), "pattern:0,0", 4000, steps=2, seed=3, out=buf) == 0
        body = buf.getvalue()
        freq_lines = body.split("--- canvas frequencies")[1].strip().splitlines()[1:]
        assert len(freq_lines) == 4  # all of {0,1}^2 appear
        fractions = [float(line.split()[2]) for line in freq_lines]
        assert all(abs(f - 0.25) < 0.05 for f in fractions)
        assert sum(int(line.split()[1]) for line in freq_lines) == 4000

    def test_bad_prompt_spec(self, tmp_path):
        arch = PolicyArch(length=2, num_categories=2, hidden=8, embed=4)
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_params(arch, 0), str(ckpt))
        with pytest.raises(ConfigError):
            cmd_sample(str(ckpt), "pattern:0,1,2", 1, out=io.StringIO())

    @pytest.mark.parametrize("option", [{"schedule": "linear"}, {"kind": "magic"}])
    def test_unknown_schedule_or_kind(self, tmp_path, option):
        arch = PolicyArch(length=2, num_categories=2, hidden=8, embed=4)
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_params(arch, 0), str(ckpt))
        with pytest.raises(ConfigError, match="must be one of"):
            cmd_sample(str(ckpt), "pattern:0,1", 1, out=io.StringIO(), **option)


    @pytest.mark.parametrize("raw", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_nonpositive_temperature_exits_2(self, tmp_path, capsys, raw):
        arch = PolicyArch(length=2, num_categories=2, hidden=8, embed=4)
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_params(arch, 0), str(ckpt))
        assert main(["sample", "-k", str(ckpt), "-p", "pattern:0,1", "--temperature", raw]) == 2
        assert "error: temperature must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [
            (["-T", "9"], "cannot unmask at least one token per step"),
            (["-T", "-1"], "steps and length must be positive"),
            (["-p", "pattern:0,x,2,0"], "the values of prompt 'pattern:0,x,2,0' must be comma-separated integers, got '0,x,2,0'"),
            (["-p", "pattern:"], "the values of prompt 'pattern:' must be comma-separated integers, got ''"),
            (["-p", "count:1,x"], "the values of prompt 'count:1,x' must be comma-separated integers, got '1,x'"),
            (["-p", "count:5,2"], "target token out of range"),
            (["-p", "pattern:0,1,2,7"], "target token out of range"),
            (["-p", "count:1,9"], "target count out of range"),
            (["-n", "-3"], "count must be at least 1"),
            (["-n", "0"], "count must be at least 1"),
        ],
    )
    def test_options_the_checkpoint_cannot_run_exit_2(self, tmp_path, capsys, option, message):
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_params(PolicyArch(length=4, num_categories=4, hidden=8, embed=4), 0), str(ckpt))
        assert main(["sample", "-k", str(ckpt), "-p", "pattern:0,1,2,3", *option]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_keys_exits_2(self, tmp_path, capsys, seed):
        ckpt = tmp_path / "p.ckpt"
        save_checkpoint(init_params(PolicyArch(length=4, num_categories=4, hidden=8, embed=4), 0), str(ckpt))
        assert main(["sample", "-k", str(ckpt), "-p", "pattern:0,1,2,3", "-s", seed]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "seed must lie in [0, 2**128)" in captured.err
        assert captured.out == ""

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["sample", "-k", str(tmp_path / "missing.ckpt"), "-p", "pattern:0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err


class TestCmdVerify:
    def test_reports_reproducible(self):
        a, b = io.StringIO(), io.StringIO()
        assert cmd_verify(200, 7, out=a) == 0
        assert cmd_verify(200, 7, out=b) == 0
        assert a.getvalue() == b.getvalue()
        assert "PASS" in a.getvalue()

    def test_run_verify_passes(self):
        report = run_verify(200, seed=13)
        assert report.passed

    def test_confidence_ties_are_drawn_asserted_and_printed(self):
        report = run_verify(200, seed=13)
        tied = {label: value for label, value, _, _ in report.checks}["tied trials"]
        assert report.passed and tied > 0
        out = io.StringIO()
        assert cmd_verify(200, 13, out=out) == 0
        assert f"  {'tied trials':<48} = {tied}\n" in out.getvalue()


class TestGradcheck:
    def test_reports_its_absolute_margin(self):
        # The relative error zeroes differences of at most 1e-8; the absolute
        # difference still shows how close the agreement is.
        report = run_gradcheck(1, 0)
        assert report.passed
        values = {label: value for label, value, _, _ in report.checks}
        assert values["worst absolute difference (error 0 up to 1e-8)"] > 0.0


    @pytest.mark.parametrize(
        "command, bounded", [(["verify", "-n", "20"], 4), (["gradcheck", "-n", "1"], 1), (["d3pm"], 5)]
    )
    def test_each_checked_quantity_is_printed_with_its_bound(self, command, bounded, capsys):
        assert main(command) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if "(bound " in line]) == bounded
        assert lines[-1] == f"{command[0]}: PASS"


    @pytest.mark.parametrize("command", ["verify", "gradcheck"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_exits_2_instead_of_passing(self, capsys, command, trials):
        assert main([command, "-n", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: trials must be at least 1, got {trials}\n"


    @pytest.mark.parametrize("command", ["verify", "gradcheck"])
    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_seed_outside_philox_keys_exits_2(self, capsys, command, seed):
        assert main([command, "-n", "1", "-s", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: seed must lie in [0, 2**128)") and captured.err.endswith(
            f"got {seed}\n"
        )

    def test_largest_seed_runs(self):
        assert cmd_verify(1, 2**128 - 1, out=io.StringIO()) == 0


class TestMainEntry:
    def test_usage_error_exit_code(self, tmp_path):
        assert main(["train", "-c", str(tmp_path / "missing.cfg")]) == 2

    def test_d3pm_passes(self, capsys):
        assert main(["d3pm"]) == 0
        assert "d3pm: PASS" in capsys.readouterr().out

    def test_cli_process_roundtrip(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "iterations=1\ncanvas_n=4\ncanvas_k=2\nsteps=2\nhidden=8\nembed=4\ngroup_size=2\neval_rollouts=0\n",
        )
        out = tmp_path / "cli_run"
        proc = subprocess.run(
            [sys.executable, "-m", "maskgrpo.harness", "train", "-c", cfg, "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "metrics.csv").exists()

    def test_verify_cli_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maskgrpo.harness", "verify", "-n", "50", "-s", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verify: PASS" in proc.stdout
