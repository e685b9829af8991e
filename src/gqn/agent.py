"""The growing Q-network agent.

A single dense net predicts one utility row per action dimension over the
full bin grid; the joint Q-value is the mean of the selected per-dimension
utilities. Action choice and bootstrap maxima are restricted to the bins
active at the ladder's current level. Targets use n-step rewards and,
by default, per-dimension double-Q: the online net picks the bootstrap
bins, the target net scores them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nets
from .actions import ResolutionLadder, active_indices, build_ladder, grow
from .blob import load_blob, save_blob
from .nets import DivergenceError
from .replay import Batch, PrioritizedReplay


@dataclass
class Hyperparams:
    discount: float = 0.99
    n_step: int = 3
    batch_size: int = 256
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    target_period: int = 100
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_frac: float = 0.1  # fraction of total env steps to anneal over
    per_alpha: float = 0.6
    per_beta_start: float = 0.4
    per_beta_end: float = 1.0
    per_eps: float = 1e-3
    huber_delta: float = 1.0
    hidden_dims: tuple[int, ...] = (512, 512)
    train_every: int = 1
    min_fill: int = 1000
    replay_capacity: int = 100_000
    pure_target_max: bool = False  # bootstrap argmax from the target net instead of online
    seed: int = 0

    def __post_init__(self):
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_step < 1:
            raise ValueError(f"n_step must be >= 1, got {self.n_step}")
        if self.train_every < 1:
            raise ValueError(f"train_every must be >= 1, got {self.train_every}")
        if not self.huber_delta > 0:
            raise ValueError(f"huber_delta must be positive, got {self.huber_delta}")
        if self.target_period < 1:
            raise ValueError(f"target_period must be >= 1, got {self.target_period}")
        if not self.learning_rate >= 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.replay_capacity < max(self.batch_size, self.min_fill):
            raise ValueError(
                f"replay_capacity {self.replay_capacity} is below max(batch_size, min_fill) = "
                f"{max(self.batch_size, self.min_fill)}, so training would never start")


def epsilon_schedule(env_steps: int, total_env_steps: int, hyper: Hyperparams) -> float:
    """Linear anneal from epsilon_start to epsilon_end over the first
    epsilon_decay_frac of the run, then constant."""
    decay_steps = max(1.0, hyper.epsilon_decay_frac * total_env_steps)
    frac = min(1.0, env_steps / decay_steps)
    return hyper.epsilon_start + (hyper.epsilon_end - hyper.epsilon_start) * frac


def beta_schedule(env_steps: int, total_env_steps: int, hyper: Hyperparams) -> float:
    """Linear anneal of the importance-sampling exponent over the whole run."""
    frac = min(1.0, env_steps / max(1, total_env_steps))
    return hyper.per_beta_start + (hyper.per_beta_end - hyper.per_beta_start) * frac


def q_value(utilities: np.ndarray, bin_indices) -> float:
    """Joint Q from one (M, full_bins) utility table: mean of the selected
    per-dimension entries."""
    utilities = np.asarray(utilities)
    idx = np.asarray(bin_indices, dtype=np.int64)
    m, n_full = utilities.shape
    if idx.shape != (m,):
        raise IndexError(f"need {m} bin indices, got shape {idx.shape}")
    if np.any(idx < 0) or np.any(idx >= n_full):
        raise IndexError(f"bin indices {idx.tolist()} out of range [0, {n_full})")
    return float(np.sum(utilities[np.arange(m), idx]) / m)


class GqnAgent:
    def __init__(self, obs_dim: int, ladder: ResolutionLadder, hyper: Hyperparams):
        self.obs_dim = int(obs_dim)
        self.ladder = ladder
        self.hyper = hyper
        m, n_full = ladder.action_dim, ladder.full_bins
        dims = (self.obs_dim, *hyper.hidden_dims, m * n_full)
        seeds = np.random.SeedSequence(hyper.seed).generate_state(3)
        self.online_net = nets.init_net(dims, seed=int(seeds[0]))
        self.target_net = self.online_net.clone()
        self.adam = nets.init_adam(self.online_net, hyper.learning_rate,
                                   hyper.adam_beta1, hyper.adam_beta2, hyper.adam_epsilon)
        self._grads = nets.NetGrads.zeros_like(self.online_net)  # train_step's backward buffer
        self.explore_rng = np.random.default_rng(int(seeds[1]))
        self.replay = PrioritizedReplay(hyper.replay_capacity, alpha=hyper.per_alpha,
                                        eps_priority=hyper.per_eps, seed=int(seeds[2]))
        self.env_steps = 0
        self.grad_steps = 0

    # -- forward surfaces ---------------------------------------------------

    def utilities(self, net: nets.DenseNet, observations: np.ndarray) -> np.ndarray:
        """(B, M, full_bins) utility tables for a batch of observations."""
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim == 1:
            obs = obs[None, :]
        out, _ = nets.forward(net, obs)
        return out.reshape(obs.shape[0], self.ladder.action_dim, self.ladder.full_bins)

    def select_action(self, observation, epsilon: float) -> np.ndarray:
        """Per-dimension epsilon-greedy over the active bins only.

        Each dimension independently explores with probability epsilon
        (uniform over active bins); otherwise it takes the active-bin argmax
        of the online utilities, ties to the lowest index. Greedy calls
        (epsilon == 0) draw nothing from the exploration stream.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        util = self.utilities(self.online_net, observation)[0]
        active = active_indices(self.ladder)
        greedy = active[np.argmax(util[:, active], axis=1)]
        if epsilon == 0.0:
            return greedy
        m = self.ladder.action_dim
        explore = self.explore_rng.random(m) < epsilon
        if np.any(explore):
            draws = active[self.explore_rng.integers(0, active.shape[0], size=m)]
            return np.where(explore, draws, greedy)
        return greedy

    # -- targets and updates ------------------------------------------------

    def _targets(self, batch: Batch, online_boot: np.ndarray) -> np.ndarray:
        """td_target, given the online net's output at the bootstrap states.

        Its per-dimension argmax over the active bins picks the bootstrap
        bins (double-Q) unless pure_target_max is set; the target net
        scores them.
        """
        b, m = batch.action_bins.shape
        active = active_indices(self.ladder)
        target_util = self.utilities(self.target_net, batch.bootstrap_states)
        chooser = target_util if self.hyper.pure_target_max else \
            online_boot.reshape(target_util.shape)
        bins = active[np.argmax(chooser[:, :, active], axis=2)]
        selected = target_util[np.arange(b)[:, None], np.arange(m)[None, :], bins]
        boot_value = selected.sum(axis=1) / m
        return batch.n_step_rewards + batch.bootstrap_discounts * boot_value

    def td_target(self, batch: Batch) -> np.ndarray:
        """n-step targets: reward sum plus discounted masked bootstrap value."""
        if len(batch) == 0:
            raise ValueError("empty batch")
        online_boot, _ = nets.forward(self.online_net, batch.bootstrap_states)
        return self._targets(batch, online_boot)

    def train_step(self, beta: float | None = None) -> dict[str, float]:
        """One PER-weighted gradient step; returns loss/TD diagnostics.

        Gradient flows only through the M selected utility entries per
        sample, each carrying 1/M of the sample's loss gradient. Hard
        target sync every target_period gradient steps. One online forward
        over [states; bootstrap states] serves both the prediction and the
        double-Q bin choice.
        """
        hyper = self.hyper
        if beta is None:
            beta = hyper.per_beta_start
        batch, handles, weights = self.replay.sample(hyper.batch_size, beta)
        b, m = batch.action_bins.shape
        out, cache = nets.forward(self.online_net,
                                  np.concatenate([batch.states, batch.bootstrap_states]))
        targets = self._targets(batch, out[b:])
        flat_idx = batch.action_bins + np.arange(m)[None, :] * self.ladder.full_bins
        rows = np.arange(b)[:, None]
        pred = out[rows, flat_idx].sum(axis=1) / m
        loss, dloss_dpred = nets.huber_loss_and_grad(pred, targets, hyper.huber_delta, weights)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss diverged (value {loss})")
        out_grads = np.zeros((b, out.shape[1]))
        out_grads[rows, flat_idx] = (dloss_dpred / m)[:, None]
        nets.backward(self.online_net, cache.head(b), out_grads, out=self._grads)
        nets.adam_step(self.online_net, self._grads, self.adam)
        abs_td = np.abs(targets - pred)
        self.replay.update_priorities(handles, abs_td)
        self.grad_steps += 1
        if self.grad_steps % hyper.target_period == 0:
            nets.copy_params(self.online_net, self.target_net)
        return {"loss": loss, "mean_td_error": float(abs_td.mean()), "mean_q": float(pred.mean())}

    def on_growth(self, new_ladder: ResolutionLadder) -> None:
        """Adopt the grown ladder. Heads for every bin have existed since
        init, so no parameters change; only the mask widens."""
        if new_ladder.active_level < self.ladder.active_level:
            raise ValueError("ladder level may only increase")
        self.ladder = new_ladder

    # -- persistence ----------------------------------------------------------

    def checkpoint_state(self, extra_meta: dict | None = None):
        """(meta, arrays) capturing nets, optimizer, ladder, counters, rng."""
        meta_online, arrays = nets.net_state(self.online_net, self.adam, prefix="online_")
        meta_target, arrays_t = nets.net_state(self.target_net, prefix="target_")
        arrays.update(arrays_t)
        hyper = asdict(self.hyper)
        hyper["hidden_dims"] = list(self.hyper.hidden_dims)
        meta = {
            "obs_dim": self.obs_dim,
            "online": meta_online,
            "target": meta_target,
            "hyper": hyper,
            "ladder": {
                "action_dim": self.ladder.action_dim,
                "min_bins": self.ladder.level_bins[0],
                "max_bins": self.ladder.level_bins[-1],
                "active_level": self.ladder.active_level,
                "bounds_lo": list(self.ladder.bounds_lo),
                "bounds_hi": list(self.ladder.bounds_hi),
            },
            "env_steps": self.env_steps,
            "grad_steps": self.grad_steps,
            "explore_rng": self.explore_rng.bit_generator.state,
        }
        if extra_meta:
            meta["extra"] = extra_meta
        return meta, arrays

    def save(self, path: str | Path, extra_meta: dict | None = None) -> None:
        meta, arrays = self.checkpoint_state(extra_meta)
        save_blob(path, meta, arrays)

    @classmethod
    def _from_state(cls, meta: dict, arrays: dict) -> "GqnAgent":
        hyper_dict = dict(meta["hyper"])
        hyper_dict["hidden_dims"] = tuple(hyper_dict["hidden_dims"])
        hyper = Hyperparams(**hyper_dict)
        lad = meta["ladder"]
        bounds = np.stack([lad["bounds_lo"], lad["bounds_hi"]], axis=1)
        ladder = build_ladder(lad["min_bins"], lad["max_bins"], lad["action_dim"], bounds)
        for _ in range(lad["active_level"]):
            ladder, _ = grow(ladder)
        agent = cls(meta["obs_dim"], ladder, hyper)
        agent.online_net, agent.adam = nets.net_from_state(meta["online"], arrays, prefix="online_")
        agent.target_net, _ = nets.net_from_state(meta["target"], arrays, prefix="target_")
        agent.env_steps = int(meta["env_steps"])
        agent.grad_steps = int(meta["grad_steps"])
        agent.explore_rng.bit_generator.state = meta["explore_rng"]
        return agent

    @classmethod
    def load(cls, path: str | Path) -> tuple["GqnAgent", dict]:
        """Returns (agent, extra_meta). Replay contents are not part of the
        agent checkpoint; the harness snapshots them separately for resume."""
        meta, arrays = load_blob(path)
        return cls._from_state(meta, arrays), meta.get("extra", {})
