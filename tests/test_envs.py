import math

import numpy as np
import pytest

from gqn.envs import CartpoleSwingup, PendulumSwingup, PointMassND, make_env


def rollout(env, seed, actions):
    obs = [env.reset(seed)]
    rewards, originals = [], []
    for a in actions:
        o, r, r_o, terminal = env.step(a)
        obs.append(o)
        rewards.append(r)
        originals.append(r_o)
        if terminal:
            break
    return np.array(obs), np.array(rewards), np.array(originals)


class TestMakeEnv:
    def test_ids(self):
        assert make_env("pendulum_swingup").spec.action_dim == 1
        assert make_env("cartpole_swingup").spec.obs_dim == 5
        env = make_env("pointmass_nd3_velocity")
        assert env.spec.action_dim == 3 and env.spec.obs_dim == 9
        assert env.spec.level == "velocity"

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            make_env("walker_walk")
        with pytest.raises(ValueError):
            make_env("pointmass_nd2_position")

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            make_env("pendulum_swingup", c_a=-0.1)

    def test_nan_penalty_rejected(self):
        with pytest.raises(ValueError):
            make_env("pendulum_swingup", c_a=float("nan"))


class TestPendulum:
    def test_upright_equilibrium(self):
        env = PendulumSwingup()
        env.reset(0)
        env.theta, env.theta_dot = 0.0, 0.0
        obs, r_task, _ = env.step(np.zeros(1))
        assert env.theta == 0.0 and env.theta_dot == 0.0
        assert r_task == 1.0
        assert np.allclose(obs, [1.0, 0.0, 0.0])

    def test_hanging_reward_near_zero(self):
        env = PendulumSwingup()
        env.reset(3)
        _, r_task, _ = env.step(np.zeros(1))
        assert r_task < 0.01

    def test_torque_deficit(self):
        # max torque 2 cannot counter gravity torque m*g*(l/2)*sin(pi/2) = 5,
        # so holding horizontal is impossible and swing-up needs pumping
        env = PendulumSwingup()
        env.reset(0)
        env.theta, env.theta_dot = math.pi / 2, 0.0
        env.step(np.array([-1.0]))  # push toward upright as hard as possible
        assert env.theta > math.pi / 2  # still falls away from upright

    def test_deterministic_trajectory(self):
        actions = np.sin(np.linspace(0, 5, 40))[:, None]
        a = rollout(make_env("pendulum_swingup"), 7, actions)
        b = rollout(make_env("pendulum_swingup"), 7, actions)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_energy_drift_bounded(self):
        # free swing: symplectic integration keeps the secular energy trend
        # flat; compare windowed means at the start and end of 500 steps
        for theta0 in (math.pi - 0.3, math.pi - 1.0, math.pi - 2.0):
            env = PendulumSwingup()
            env.reset(0)
            env.theta, env.theta_dot = theta0, 0.0
            energies = [env.mechanical_energy()]
            for _ in range(500):
                env.step(np.zeros(1))
                env._t = max(env._t, 0)  # keep integrating past the horizon
                energies.append(env.mechanical_energy())
                assert abs(env.theta_dot) < env.MAX_SPEED  # clip-free start
            e = np.array(energies)
            drift = abs(e[-50:].mean() - e[:50].mean()) / e[0]
            assert drift < 0.01

    def test_speed_clip(self):
        env = PendulumSwingup()
        env.reset(0)
        for _ in range(200):
            env.step(np.array([1.0]))
            env._t = max(env._t, 0)
            assert abs(env.theta_dot) <= 8.0

    def test_reset_distribution(self):
        thetas = set()
        env = PendulumSwingup()
        for seed in range(100):
            env.reset(seed)
            assert abs(env.theta - math.pi) <= 0.05
            assert abs(env.theta_dot) <= 0.05
            thetas.add(env.theta)
        assert len(thetas) == 100

    def test_horizon_and_reset_required(self):
        env = PendulumSwingup()
        env.reset(0)
        for t in range(500):
            _, _, terminal = env.step(np.zeros(1))
        assert terminal
        with pytest.raises(RuntimeError):
            env.step(np.zeros(1))


class TestCartpole:
    def test_upright_centered_reward_one(self):
        env = CartpoleSwingup()
        env.reset(0)
        env.x = env.x_dot = env.theta = env.theta_dot = 0.0
        _, r_task, _ = env.step(np.zeros(1))
        assert r_task == pytest.approx(1.0, abs=1e-6)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        actions = rng.uniform(-1, 1, size=(200, 1))
        a = CartpoleSwingup()
        b = CartpoleSwingup()
        a.reset(5)
        b.reset(5)
        b.x, b.x_dot, b.theta, b.theta_dot = -a.x, -a.x_dot, -a.theta, -a.theta_dot
        for act in actions:
            a.step(act)
            b.step(-act)
            a._t = max(a._t, 0)
            b._t = max(b._t, 0)
            assert b.x == -a.x and b.x_dot == -a.x_dot
            assert b.theta == -a.theta and b.theta_dot == -a.theta_dot

    def test_wall_clip_zeroes_velocity(self):
        env = CartpoleSwingup()
        env.reset(0)
        for _ in range(500):
            _, _, terminal = env.step(np.array([1.0]))
            if terminal:
                break
            assert abs(env.x) <= 2.4
        assert env.x == 2.4 or abs(env.x) < 2.4
        # at the wall the in-bounds factor kills the reward
        env.reset(0)
        env.x, env.x_dot = 2.39, 10.0
        _, r_task, _ = env.step(np.zeros(1))
        assert env.x == 2.4 and env.x_dot == 0.0
        assert r_task == 0.0

    def test_deterministic(self):
        actions = np.cos(np.linspace(0, 3, 50))[:, None]
        a = rollout(make_env("cartpole_swingup"), 11, actions)
        b = rollout(make_env("cartpole_swingup"), 11, actions)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestPointMass:
    def test_on_target_velocity_mode(self):
        env = PointMassND(2, "velocity")
        env.reset(0)
        env.pos = env.target.copy()
        _, r_task, _ = env.step(np.zeros(2))
        assert r_task == 1.0

    def test_torque_mode_is_double_integrator(self):
        env = PointMassND(1, "torque")
        env.reset(0)
        env.pos = np.zeros(1)
        env.vel = np.zeros(1)
        env.step(np.array([1.0]))
        assert env.vel[0] == pytest.approx(0.05)  # vel += a*dt
        assert env.pos[0] == pytest.approx(0.0025)  # pos += vel*dt (semi-implicit)

    def test_bang_bang_velocity_oscillates(self):
        # greedy 2-bin control: each step moves exactly 0.5*dt per dimension,
        # so the tail oscillates with peak-to-peak >= 0.5*dt and mean reward
        # stays below what fine-grained control achieves
        env = PointMassND(1, "velocity")
        env.reset(42)
        target = env.target.copy()
        tail_pos, tail_r = [], []
        for t in range(300):
            a = np.sign(target - env.pos)
            a[a == 0] = 1.0
            _, r_task, terminal = env.step(a)
            if t >= 100:
                tail_pos.append(env.pos[0])
                tail_r.append(r_task)
            if terminal:
                break
        tail_pos = np.array(tail_pos)
        step_size = 0.5 * env.spec.dt
        assert tail_pos.max() - tail_pos.min() >= step_size
        assert np.all(np.abs(np.diff(tail_pos)) == pytest.approx(step_size))

        # fine-grained reference: set velocity proportional to the error
        env2 = PointMassND(1, "velocity")
        env2.reset(42)
        fine_r = []
        for t in range(300):
            a = np.clip((env2.target - env2.pos) / (0.5 * env2.spec.dt) / 2, -1, 1)
            _, r_task, terminal = env2.step(a)
            if t >= 100:
                fine_r.append(r_task)
            if terminal:
                break
        assert np.mean(tail_r) < np.mean(fine_r)
        assert np.mean(fine_r) > 0.999

    def test_target_in_unit_box(self):
        env = PointMassND(4, "velocity")
        for seed in range(20):
            env.reset(seed)
            assert np.all(np.abs(env.target) <= 1.0)

    def test_deterministic(self):
        actions = np.tile(np.sin(np.linspace(0, 2, 30))[:, None], (1, 2))
        a = rollout(make_env("pointmass_nd2_torque"), 3, actions)
        b = rollout(make_env("pointmass_nd2_torque"), 3, actions)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestStepContract:
    def test_penalty_formula(self):
        env = make_env("pointmass_nd2_velocity", c_a=0.5)
        env.reset(0)
        a = np.array([1.0, 1.0])
        _, r, r_o, _ = env.step(a)
        assert r == pytest.approx(r_o - 0.5 * 2.0, rel=1e-12)

    def test_zero_penalty_identity(self):
        env = make_env("pendulum_swingup", c_a=0.0)
        env.reset(0)
        for a in np.linspace(-1, 1, 9):
            _, r, r_o, _ = env.step(np.array([a]))
            assert r == r_o

    def test_zero_action_identity(self):
        env = make_env("pendulum_swingup", c_a=0.5)
        env.reset(0)
        _, r, r_o, _ = env.step(np.zeros(1))
        assert r == r_o

    def test_out_of_bounds_action_rejected(self):
        env = make_env("pendulum_swingup")
        env.reset(0)
        with pytest.raises(ValueError):
            env.step(np.array([1.5]))

    def test_nan_action_rejected(self):
        env = make_env("pointmass_nd2_velocity")
        env.reset(0)
        with pytest.raises(ValueError, match="outside"):
            env.step(np.array([0.5, np.nan]))

    def test_reward_bounds(self):
        rng = np.random.default_rng(0)
        for env_id in ("pendulum_swingup", "cartpole_swingup", "pointmass_nd2_velocity"):
            c_a = 0.5
            env = make_env(env_id, c_a=c_a)
            env.reset(9)
            m = env.spec.action_dim
            for _ in range(100):
                a = rng.uniform(-1, 1, size=m)
                _, r, r_o, terminal = env.step(a)
                assert 0.0 <= r_o <= 1.0
                assert r >= -c_a * m
                if terminal:
                    env.reset(10)

    def test_same_seed_same_reset(self):
        for env_id in ("pendulum_swingup", "cartpole_swingup", "pointmass_nd2_velocity"):
            env = make_env(env_id)
            assert np.array_equal(env.reset(123), env.reset(123))

    def test_obs_dims_match_spec(self):
        for env_id in ("pendulum_swingup", "cartpole_swingup", "pointmass_nd5_torque"):
            env = make_env(env_id)
            assert env.reset(0).shape == (env.spec.obs_dim,)
