"""Growth schedules: when to widen the active action subspace.

Two modes: a linear schedule over episode phases, and an adaptive rule that
grows when the current evaluation mean drops below a confidence-style
threshold built from the moving window of past evaluation returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

import numpy as np


class EvalWindow:
    """Ring of the last `size` evaluation mean returns."""

    def __init__(self, size: int, values=()):
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = size
        self._values: deque[float] = deque(values, maxlen=size)

    def push(self, value: float) -> None:
        self._values.append(float(value))

    def clear(self) -> None:
        self._values.clear()

    @property
    def full(self) -> bool:
        return len(self._values) == self.size

    def values(self) -> list[float]:
        return list(self._values)

    def mean(self) -> float:
        return float(np.mean(self._values))

    def std(self) -> float:
        """Population standard deviation (well defined even for size 1)."""
        return float(np.std(self._values))


def linear_level(episode: int, total_episodes: int, num_levels: int) -> int:
    """Level index under the linear schedule: equal phases of length
    total/(num_levels + 1), with the final level holding for the remainder."""
    if not 0 <= episode < total_episodes:
        raise ValueError(f"episode {episode} outside [0, {total_episodes})")
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    phase = total_episodes / (num_levels + 1)
    return min(int(episode // phase), num_levels - 1)


def growth_threshold(window: EvalWindow) -> float:
    """Stagnation threshold: underestimate the window mean by 5% (toward
    zero) and add 0.9 window standard deviations."""
    if not window.full:
        raise ValueError("threshold is undefined until the window is full")
    mu = window.mean()
    sigma = window.std()
    return (1.00 - 0.05 * np.sign(mu)) * mu + 0.90 * sigma


def adaptive_decide(window: EvalWindow, current_eval_mean: float, evals_since_growth: int,
                    cooldown: int) -> bool:
    """True when the window is full, the cooldown has elapsed, and the
    current evaluation mean sits below the stagnation threshold."""
    if not window.full:
        return False
    if evals_since_growth < cooldown:
        return False
    return current_eval_mean < growth_threshold(window)


@dataclass
class GrowthEvent:
    env_steps: int
    episode: int
    old_bins: int
    new_bins: int
    trigger: str


class GrowthScheduler:
    """The one place that decides growth; the training loop asks it before
    every episode (linear mode) and after every evaluation (adaptive mode),
    and it logs each growth applied."""

    def __init__(self, mode: str, total_episodes: int, num_levels: int, window: int,
                 cooldown: int):
        if mode not in ("linear", "adaptive", "none"):
            raise ValueError(f"unknown growth mode {mode!r}")
        self.mode = mode
        self.total_episodes = total_episodes
        self.num_levels = num_levels
        self.cooldown = cooldown
        self.window = EvalWindow(window)
        self.evals_since_growth = 0
        self.events: list[GrowthEvent] = []

    def before_episode(self, episode: int, level: int) -> int:
        """Levels to grow before this episode: in linear mode, the gap from
        `level` up to the linear schedule's level; otherwise 0."""
        if self.mode != "linear":
            return 0
        return max(0, linear_level(episode, self.total_episodes, self.num_levels) - level)

    def after_eval(self, current_eval_mean: float, at_max: bool) -> bool:
        """Feed one evaluation mean; True when the ladder should grow
        (adaptive mode only).

        The decision uses the window as it stood before this evaluation; on
        growth the window is cleared, otherwise the new mean joins it.
        """
        if self.mode != "adaptive":
            return False
        self.evals_since_growth += 1
        if not at_max and adaptive_decide(self.window, current_eval_mean,
                                          self.evals_since_growth, self.cooldown):
            self.window.clear()
            self.evals_since_growth = 0
            return True
        self.window.push(current_eval_mean)
        return False

    def record(self, env_steps: int, episode: int, old_bins: int, new_bins: int, trigger: str) -> None:
        self.events.append(GrowthEvent(env_steps, episode, old_bins, new_bins, trigger))

    def state(self) -> dict:
        """JSON-ready window, cooldown count and event log, for exact resume."""
        return {"window_values": self.window.values(),
                "evals_since_growth": self.evals_since_growth,
                "events": [asdict(e) for e in self.events]}

    def load_state(self, state: dict) -> None:
        """Inverse of state(); keeps the identity of the events list."""
        self.window.clear()
        for v in state["window_values"]:
            self.window.push(v)
        self.evals_since_growth = int(state["evals_since_growth"])
        self.events[:] = [GrowthEvent(**e) for e in state["events"]]
