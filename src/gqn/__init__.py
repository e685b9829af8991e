"""Critic-only continuous control with decoupled Q-heads whose action
resolution grows from coarse to fine during training.

The package namespace holds the run-level API. Layer internals are imported
from their own modules: gqn.actions, gqn.agent, gqn.envs, gqn.metrics,
gqn.nets, gqn.replay and gqn.scheduler.
"""

from .agent import GqnAgent, Hyperparams
from .envs import make_env
from .harness import (RunConfig, RunRecord, derive_seed, evaluate, radar_report, sweep,
                      train)
from .metrics import EpisodeTrace, episode_metrics, fft_smoothness, normalize_radar
from .nets import DivergenceError

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "EpisodeTrace", "GqnAgent", "Hyperparams", "RunConfig", "RunRecord",
    "derive_seed", "episode_metrics", "evaluate", "fft_smoothness", "make_env",
    "normalize_radar", "radar_report", "sweep", "train",
]
