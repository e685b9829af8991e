import json

import numpy as np
import pytest

from gqn.scheduler import (
    EvalWindow,
    GrowthScheduler,
    adaptive_decide,
    growth_threshold,
    linear_level,
)


def full_window(values):
    win = EvalWindow(len(values))
    for v in values:
        win.push(v)
    return win


def adaptive_scheduler(window, num_levels=4, cooldown=0):
    return GrowthScheduler("adaptive", 100, num_levels, window, cooldown)


def window_with_stats(mean, std, size=10):
    """A full window whose population mean/std are exactly (mean, std)."""
    half = size // 2
    values = [mean - std] * half + [mean + std] * half
    win = full_window(values)
    assert win.mean() == pytest.approx(mean)
    assert win.std() == pytest.approx(std)
    return win


class TestLinearLevel:
    def test_four_level_boundaries(self):
        assert linear_level(0, 1000, 4) == 0
        assert linear_level(199, 1000, 4) == 0
        assert linear_level(200, 1000, 4) == 1
        assert linear_level(250, 1000, 4) == 1
        assert linear_level(400, 1000, 4) == 2
        assert linear_level(600, 1000, 4) == 3
        assert linear_level(999, 1000, 4) == 3  # final level holds two phases

    def test_single_level_static(self):
        assert all(linear_level(e, 50, 1) == 0 for e in range(50))

    def test_non_decreasing(self):
        levels = [linear_level(e, 777, 4) for e in range(777)]
        assert levels == sorted(levels)
        assert set(levels) == {0, 1, 2, 3}

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            linear_level(1000, 1000, 4)
        with pytest.raises(ValueError):
            linear_level(0, 10, 0)


class TestThreshold:
    def test_positive_mean(self):
        win = window_with_stats(100.0, 10.0)
        assert growth_threshold(win) == pytest.approx(104.0)

    def test_negative_mean(self):
        win = window_with_stats(-50.0, 5.0)
        assert growth_threshold(win) == pytest.approx(-48.0)

    def test_zero_degenerate(self):
        win = full_window([0.0] * 10)
        assert growth_threshold(win) == 0.0

    def test_requires_full_window(self):
        win = EvalWindow(10)
        win.push(1.0)
        with pytest.raises(ValueError):
            growth_threshold(win)


class TestAdaptiveDecide:
    def test_grows_below_threshold(self):
        win = window_with_stats(100.0, 10.0)  # threshold 104.0
        assert adaptive_decide(win, 100.0, evals_since_growth=5, cooldown=5)

    def test_holds_at_or_above_threshold(self):
        win = window_with_stats(100.0, 10.0)
        assert not adaptive_decide(win, 105.0, evals_since_growth=5, cooldown=5)

    def test_cooldown_gates(self):
        win = window_with_stats(100.0, 10.0)
        assert not adaptive_decide(win, 0.0, evals_since_growth=4, cooldown=5)

    def test_partial_window_never_grows(self):
        win = EvalWindow(10)
        for v in [0.0] * 9:
            win.push(v)
        assert not adaptive_decide(win, -1e9, evals_since_growth=99, cooldown=5)

    def test_requires_adaptive_mode(self):
        # Only adaptive mode grows after an evaluation, and only it keeps a window.
        for mode in ("linear", "none"):
            sched = GrowthScheduler(mode, 100, 4, 2, 0)
            assert not any(sched.after_eval(v, at_max=False) for v in [10.0, 10.0, -1e9])
            assert sched.window.values() == [] and sched.evals_since_growth == 0
        with pytest.raises(ValueError):
            GrowthScheduler("cosine", 100, 4, 2, 0)


class TestSchedulerInvariants:
    def test_monotone_improvement_never_grows(self):
        # returns improving faster than the window noise: mu_t stays at or
        # above the threshold at every check
        sched = adaptive_scheduler(5)
        value = 10.0
        for _ in range(100):
            win = sched.window
            if win.full:
                assert value >= growth_threshold(win)
            grew = sched.after_eval(value, at_max=False)
            assert not grew
            value *= 1.5

    def test_noisy_plateau_grows_at_first_eligible_check(self):
        # alternating plateau values give sigma > 0; the exact predicate
        # mu_t < 0.95 mu + 0.9 sigma holds as soon as the window is full
        sched = adaptive_scheduler(4)
        values = [90.0, 110.0, 90.0, 110.0, 90.0]
        grew_at = None
        for i, v in enumerate(values):
            if sched.window.full:
                assert v < growth_threshold(sched.window)
            if sched.after_eval(v, at_max=False):
                grew_at = i
                break
        assert grew_at == 4  # first check with a full window

    def test_window_cleared_on_growth(self):
        sched = adaptive_scheduler(3)
        for v in [100.0, 100.0, 120.0]:
            assert not sched.after_eval(v, at_max=False)
        assert sched.after_eval(80.0, at_max=False)
        assert sched.window.values() == []
        assert sched.evals_since_growth == 0

    def test_saturates_at_final_level(self):
        sched = adaptive_scheduler(2, num_levels=2)
        grew = 0
        at_max = False
        for i in range(50):
            if sched.after_eval(float(np.sin(i)), at_max=at_max):
                grew += 1
                at_max = True  # single growth exhausts a 2-level ladder
        assert grew <= 1

    def test_linear_target_tracks_schedule(self):
        sched = GrowthScheduler("linear", 100, 4, 10, 5)
        assert sched.before_episode(0, level=0) == 0
        assert sched.before_episode(20, level=0) == 1
        assert sched.before_episode(99, level=1) == 2
        assert sched.before_episode(99, level=3) == 0
        for mode in ("adaptive", "none"):
            assert GrowthScheduler(mode, 100, 4, 10, 5).before_episode(99, level=0) == 0

    def test_state_round_trip(self):
        sched = adaptive_scheduler(3, cooldown=1)
        for v in [100.0, 100.0, 120.0, 80.0, 50.0]:
            sched.after_eval(v, at_max=False)
        sched.record(500, 3, 2, 3, "adaptive")
        back = adaptive_scheduler(3, cooldown=1)
        back.load_state(json.loads(json.dumps(sched.state())))
        assert back.state() == sched.state()
        for v in [40.0, 90.0, 10.0]:
            assert back.after_eval(v, at_max=False) == sched.after_eval(v, at_max=False)

    def test_event_log_append(self):
        sched = GrowthScheduler("linear", 100, 4, 10, 5)
        sched.record(500, 10, 2, 3, "linear")
        sched.record(900, 20, 3, 5, "linear")
        assert [e.new_bins for e in sched.events] == [3, 5]
        assert [e.env_steps for e in sched.events] == [500, 900]


class TestEvalWindow:
    def test_ring_semantics(self):
        win = EvalWindow(3)
        for v in [1.0, 2.0, 3.0, 4.0]:
            win.push(v)
        assert win.values() == [2.0, 3.0, 4.0]

    def test_population_std(self):
        win = full_window([1.0, 3.0])
        assert win.std() == 1.0  # population form, not sample

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            EvalWindow(0)
