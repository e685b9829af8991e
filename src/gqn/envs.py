"""Deterministic desk-scale continuous-control tasks.

All tasks integrate with semi-implicit Euler, emit dense rewards in [0, 1],
and terminate only at the horizon. Given a reset seed and an action
sequence, trajectories are bitwise reproducible. The penalty wrapper
subtracts a quadratic action cost from the task reward.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvSpec:
    obs_dim: int
    action_dim: int
    dt: float
    horizon: int
    level: str  # "torque" | "velocity"
    control_scale: tuple[float, ...]


class Environment:
    """Base contract: reset(seed) -> obs, step(action) -> (obs, r_task, terminal)."""

    spec: EnvSpec

    def __init__(self):
        self._t = -1  # -1 = needs reset

    def reset(self, seed: int) -> np.ndarray:
        self._t = 0
        self._reset_state(np.random.default_rng(seed))
        return self._observe()

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        if self._t < 0:
            raise RuntimeError("step() before reset(), or after the episode ended")
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (self.spec.action_dim,):
            raise ValueError(f"action must have shape ({self.spec.action_dim},), got {action.shape}")
        if not abs(action).max() <= 1.0 + 1e-12:  # written so that NaN fails too
            raise ValueError(f"action {action.tolist()} outside [-1, 1] bounds")
        r_task = self._advance(action)
        self._t += 1
        terminal = self._t >= self.spec.horizon
        if terminal:
            self._t = -1
        return self._observe(), r_task, terminal

    # subclasses implement:
    def _reset_state(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def _advance(self, action: np.ndarray) -> float:
        raise NotImplementedError

    def _observe(self) -> np.ndarray:
        raise NotImplementedError


class PendulumSwingup(Environment):
    """Torque-limited pendulum; hanging at theta = pi, upright at 0.

    The torque bound (2.0) is well below the gravity torque, so the only
    route upright is energy pumping.
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    TORQUE_SCALE = 2.0
    MAX_SPEED = 8.0

    def __init__(self):
        super().__init__()
        self.spec = EnvSpec(obs_dim=3, action_dim=1, dt=0.05, horizon=500,
                            level="torque", control_scale=(self.TORQUE_SCALE,))
        self.theta = math.pi
        self.theta_dot = 0.0

    def _reset_state(self, rng) -> None:
        self.theta = math.pi + rng.uniform(-0.05, 0.05)
        self.theta_dot = rng.uniform(-0.05, 0.05)

    def _advance(self, action) -> float:
        u = self.TORQUE_SCALE * float(action[0])
        g, m, length, dt = self.GRAVITY, self.MASS, self.LENGTH, self.spec.dt
        # -(3g/2l) sin(theta + pi) written as +(3g/2l) sin(theta) so the
        # upright equilibrium is exact in floating point.
        accel = (3.0 * g / (2.0 * length)) * math.sin(self.theta) \
            + 3.0 * u / (m * length * length)
        self.theta_dot += accel * dt
        if self.theta_dot > self.MAX_SPEED:
            self.theta_dot = self.MAX_SPEED
        elif self.theta_dot < -self.MAX_SPEED:
            self.theta_dot = -self.MAX_SPEED
        self.theta += self.theta_dot * dt
        return (1.0 + math.cos(self.theta)) / 2.0

    def _observe(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta), self.theta_dot])

    def mechanical_energy(self) -> float:
        """Rod kinetic + potential energy, zero at the hanging rest state."""
        m, length, g = self.MASS, self.LENGTH, self.GRAVITY
        kinetic = 0.5 * (m * length * length / 3.0) * self.theta_dot**2
        potential = m * g * (length / 2.0) * (1.0 + math.cos(self.theta))
        return kinetic + potential


class CartpoleSwingup(Environment):
    """Cart-pole with the pole starting down; no early termination, the cart
    is clipped at +/-2.4 with its velocity zeroed on contact."""

    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    HALF_LENGTH = 0.5
    FORCE_SCALE = 10.0
    X_LIMIT = 2.4

    def __init__(self):
        super().__init__()
        self.spec = EnvSpec(obs_dim=5, action_dim=1, dt=0.02, horizon=500,
                            level="torque", control_scale=(self.FORCE_SCALE,))
        self.x = 0.0
        self.x_dot = 0.0
        self.theta = math.pi  # measured from upright
        self.theta_dot = 0.0

    def _reset_state(self, rng) -> None:
        self.x = rng.uniform(-0.05, 0.05)
        self.x_dot = rng.uniform(-0.05, 0.05)
        self.theta = math.pi + rng.uniform(-0.05, 0.05)
        self.theta_dot = rng.uniform(-0.05, 0.05)

    def _advance(self, action) -> float:
        force = self.FORCE_SCALE * float(action[0])
        g = self.GRAVITY
        m_p, m_total, half_len = self.POLE_MASS, self.CART_MASS + self.POLE_MASS, self.HALF_LENGTH
        dt = self.spec.dt
        sin_t, cos_t = math.sin(self.theta), math.cos(self.theta)
        temp = (force + m_p * half_len * self.theta_dot**2 * sin_t) / m_total
        theta_acc = (g * sin_t - cos_t * temp) / (
            half_len * (4.0 / 3.0 - m_p * cos_t * cos_t / m_total)
        )
        x_acc = temp - m_p * half_len * theta_acc * cos_t / m_total
        self.theta_dot += theta_acc * dt
        self.x_dot += x_acc * dt
        self.theta += self.theta_dot * dt
        self.x += self.x_dot * dt
        if self.x > self.X_LIMIT:
            self.x, self.x_dot = self.X_LIMIT, 0.0
        elif self.x < -self.X_LIMIT:
            self.x, self.x_dot = -self.X_LIMIT, 0.0
        in_bounds = abs(self.x) < self.X_LIMIT
        return (1.0 + math.cos(self.theta)) / 2.0 * (1.0 if in_bounds else 0.0)

    def _observe(self) -> np.ndarray:
        return np.array([self.x, self.x_dot, math.cos(self.theta),
                         math.sin(self.theta), self.theta_dot])


class PointMassND(Environment):
    """M-dimensional double integrator chasing a per-episode random target.

    torque mode: the action is an acceleration (scale 1.0). velocity mode:
    the action sets the velocity directly (scale 0.5), which makes coarse
    bins oscillate around interior targets.
    """

    def __init__(self, action_dim: int, level: str):
        super().__init__()
        if action_dim < 1:
            raise ValueError(f"action_dim must be >= 1, got {action_dim}")
        if level not in ("torque", "velocity"):
            raise ValueError(f"level must be 'torque' or 'velocity', got {level!r}")
        scale = 1.0 if level == "torque" else 0.5
        self.spec = EnvSpec(obs_dim=3 * action_dim, action_dim=action_dim, dt=0.05,
                            horizon=300, level=level, control_scale=(scale,) * action_dim)
        self.pos = np.zeros(action_dim)
        self.vel = np.zeros(action_dim)
        self.target = np.zeros(action_dim)

    def _reset_state(self, rng) -> None:
        m = self.spec.action_dim
        self.target = rng.uniform(-1.0, 1.0, size=m)
        self.pos = rng.uniform(-0.05, 0.05, size=m)
        self.vel = np.zeros(m)

    def _advance(self, action) -> float:
        dt = self.spec.dt
        if self.spec.level == "torque":
            self.vel = self.vel + action * dt
        else:
            self.vel = 0.5 * action
        self.pos = self.pos + self.vel * dt
        err = self.pos - self.target
        return math.exp(-4.0 * float(err @ err))

    def _observe(self) -> np.ndarray:
        return np.concatenate([self.pos, self.vel, self.target - self.pos])


class PenaltyWrapper:
    """Subtracts c_a * sum_j a_j^2 from the task reward; keeps both rewards.

    The only step that returns (obs, reward, r_task, terminal).
    """

    def __init__(self, env: Environment, c_a: float):
        if not c_a >= 0:
            raise ValueError(f"penalty coefficient must be >= 0, got {c_a}")
        self.env = env
        self.c_a = float(c_a)

    @property
    def spec(self) -> EnvSpec:
        return self.env.spec

    def reset(self, seed: int) -> np.ndarray:
        return self.env.reset(seed)

    def step(self, action) -> tuple[np.ndarray, float, float, bool]:
        action = np.asarray(action, dtype=np.float64)
        obs, r_task, terminal = self.env.step(action)
        reward = r_task - self.c_a * float(action @ action)
        return obs, reward, r_task, terminal


_POINTMASS_RE = re.compile(r"^pointmass_nd(\d+)_(torque|velocity)$")


def make_env(env_id: str, c_a: float = 0.0):
    """Environment from its string id, wrapped with the action penalty."""
    if env_id == "pendulum_swingup":
        env: Environment = PendulumSwingup()
    elif env_id == "cartpole_swingup":
        env = CartpoleSwingup()
    else:
        m = _POINTMASS_RE.match(env_id)
        if m is None:
            raise ValueError(
                f"unknown env id {env_id!r}; expected pendulum_swingup, cartpole_swingup, "
                f"or pointmass_nd<M>_<torque|velocity>"
            )
        env = PointMassND(int(m.group(1)), m.group(2))
    return PenaltyWrapper(env, c_a)
