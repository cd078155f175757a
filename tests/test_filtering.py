import numpy as np
import pytest

from maskgrpo import Decision, StdHistory, admit, threshold


class TestThreshold:
    def test_inactive_during_warmup(self):
        history = StdHistory(warmup_min=20)
        for value in range(19):
            history.push(float(value))
        assert threshold(history) is None
        history.push(19.0)
        assert threshold(history) is not None

    def test_linear_interpolation_percentile(self):
        # 100 buffered values 1.0..100.0 at the 10th percentile interpolate
        # between the 10th and 11th order statistics: 10 + 0.9 * (11 - 10).
        history = StdHistory(window=200, percentile=10.0, warmup_min=20)
        for value in range(1, 101):
            history.push(float(value))
        assert threshold(history) == pytest.approx(10.9, abs=1e-12)

    def test_constant_buffer(self):
        history = StdHistory(warmup_min=5)
        for _ in range(10):
            history.push(3.5)
        assert threshold(history) == 3.5

    def test_window_evicts_old_values(self):
        history = StdHistory(window=5, warmup_min=2, percentile=50.0)
        for value in [100.0] * 5 + [1.0] * 5:
            history.push(value)
        assert threshold(history) == 1.0

    def test_threshold_monotone_in_percentile(self):
        rng = np.random.default_rng(0)
        values = rng.random(100)
        cuts = []
        for q in (5.0, 10.0, 25.0, 50.0, 90.0):
            history = StdHistory(percentile=q, warmup_min=10)
            for value in values:
                history.push(value)
            cuts.append(threshold(history))
        assert cuts == sorted(cuts)

    def test_threshold_follows_every_push(self):
        # The cutoff is kept between pushes; each push must replace it.
        rng = np.random.default_rng(12)
        history = StdHistory(window=30, percentile=25.0, warmup_min=5)
        for value in rng.random(80):
            history.push(float(value))
            if len(history) >= 5:
                assert threshold(history) == np.percentile(list(history.values), 25.0)
                assert threshold(history) == np.percentile(list(history.values), 25.0)

    def test_settings_validated(self):
        with pytest.raises(ValueError):
            StdHistory(percentile=0.0)
        with pytest.raises(ValueError):
            StdHistory(window=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("window", 0),
            ("warmup_min", 0),
            ("warmup_min", 201),
            ("max_resamples", -1),
            ("percentile", 100.0),
            ("percentile", float("nan")),
        ],
    )
    def test_refusal_names_the_field_and_value(self, name, value):
        with pytest.raises(ValueError, match=rf"^filter {name} must .*, got {value!r}$"):
            StdHistory(**{name: value})


class TestAdmit:
    def warmed_history(self):
        history = StdHistory(window=50, percentile=10.0, warmup_min=10, max_resamples=5)
        for value in np.linspace(1.0, 10.0, 20):
            history.push(float(value))
        return history

    def test_above_threshold_accepts(self):
        history = self.warmed_history()
        assert admit(history, 50.0) is Decision.ACCEPT

    def test_below_threshold_resamples(self):
        history = self.warmed_history()
        assert admit(history, 0.0, resamples_used=0) is Decision.RESAMPLE

    def test_budget_exhaustion_falls_back_to_accept(self):
        history = self.warmed_history()
        assert admit(history, 0.0, resamples_used=5) is Decision.EXHAUSTED

    def test_every_generated_group_enters_history_once(self):
        history = self.warmed_history()
        before = len(history)
        admit(history, 0.0)
        admit(history, 99.0)
        assert len(history) == before + 2

    def test_rejected_groups_keep_threshold_stationary(self):
        # If rejected spreads were dropped, the threshold would ratchet up on
        # a stationary stream; recording them keeps it near the true decile.
        rng = np.random.default_rng(7)
        history = StdHistory(window=500, percentile=10.0, warmup_min=20, max_resamples=5)
        for _ in range(3000):
            admit(history, float(rng.random()))
        assert threshold(history) == pytest.approx(0.1, abs=0.05)

    def test_longrun_resample_rate_near_percentile(self):
        rng = np.random.default_rng(123)
        history = StdHistory(window=200, percentile=10.0, warmup_min=20, max_resamples=5)
        resampled = 0
        generated = 0
        retries = 0
        while generated < 5000:
            decision = admit(history, float(rng.normal(5.0, 1.0)), resamples_used=retries)
            generated += 1
            if decision is Decision.RESAMPLE:
                resampled += 1
                retries += 1
            else:
                retries = 0
        rate = resampled / generated
        assert abs(rate - 0.10) <= 0.03
