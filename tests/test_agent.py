import numpy as np
import pytest
from helpers import joint_argmax, make_table_agent, single_batch

from gqn import nets
from gqn.actions import active_indices, build_ladder, decode, grow
from gqn.agent import GqnAgent, Hyperparams, beta_schedule, epsilon_schedule
from gqn.nets import DivergenceError, forward
from gqn.replay import Batch, Transition


class TestUtilities:
    def test_shape_contract(self):
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(4, ladder, Hyperparams(hidden_dims=(8,), seed=0))
        assert agent.online_net.layer_dims[-1] == 18
        util = agent.utilities(agent.online_net, np.zeros((3, 4)))
        assert util.shape == (3, 2, 9)

    def test_zero_net_zero_utilities(self):
        agent = make_table_agent(np.zeros((2, 9)), 2, 9)
        util = agent.utilities(agent.online_net, np.ones((2, 2)))
        assert np.array_equal(util, np.zeros((2, 2, 9)))

    def test_deterministic(self):
        ladder = build_ladder(2, 5, action_dim=1)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(16,), seed=1))
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(agent.utilities(agent.online_net, x),
                              agent.utilities(agent.online_net, x))


class TestSelectAction:
    def test_greedy_masked_argmax(self):
        table = np.array([[0.0, 9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5]])
        # level 1 of 2->9: active {0, 4, 8}; the 9.0 at masked index 1 must lose
        agent = make_table_agent(table, 2, 9, level=1)
        assert agent.select_action(np.zeros(2), 0.0).tolist() == [4]

    def test_tie_breaks_to_first_active(self):
        agent = make_table_agent(np.zeros((2, 9)), 2, 9, level=1)
        assert agent.select_action(np.zeros(2), 0.0).tolist() == [0, 0]

    def test_full_exploration_frequencies(self):
        agent = make_table_agent(np.zeros((1, 9)), 2, 9, level=1)  # active {0,4,8}
        counts = {}
        draws = 10_000
        for _ in range(draws):
            (b,) = agent.select_action(np.zeros(2), 1.0)
            counts[int(b)] = counts.get(int(b), 0) + 1
        assert set(counts) == {0, 4, 8}  # masked bins never sampled
        for c in counts.values():
            assert abs(c / draws - 1 / 3) < 0.02

    def test_never_masked_across_levels(self):
        rng = np.random.default_rng(0)
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=3))
        while True:
            allowed = set(active_indices(agent.ladder).tolist())
            for _ in range(300):
                bins = agent.select_action(rng.normal(size=3), 0.3)
                assert all(int(b) in allowed for b in bins)
                decode(agent.ladder, bins)  # the tripwire agrees
            new_ladder, grew = grow(agent.ladder)
            if not grew:
                break
            agent.on_growth(new_ladder)

    def test_epsilon_validated(self):
        agent = make_table_agent(np.zeros((1, 2)), 2, 2)
        with pytest.raises(ValueError):
            agent.select_action(np.zeros(2), 1.5)


class TestTdTarget:
    def test_terminal_is_pure_reward(self):
        agent = make_table_agent(np.full((1, 9), 123.0), 2, 9)
        y = agent.td_target(single_batch(reward=2.5, discount=0.0))
        assert y.tolist() == [2.5]

    def test_direct_substitution(self):
        # n=1, r=1, gamma=0.9, M=2, per-dimension active maxima (2.0, 4.0)
        table = np.array([[2.0, 1.0], [4.0, 3.0]])
        agent = make_table_agent(table, 2, 2)
        y = agent.td_target(single_batch(reward=1.0, discount=0.9, m=2))
        assert y[0] == pytest.approx(1.0 + 0.9 * 3.0)

    def test_decoupled_argmax_matches_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            min_bins, max_bins = [(2, 2), (3, 3), (2, 3), (2, 5), (3, 5)][int(rng.integers(0, 5))]
            ladder = build_ladder(min_bins, max_bins, m)
            level = int(rng.integers(0, ladder.num_levels))
            table = rng.normal(size=(m, ladder.full_bins))
            agent = make_table_agent(table, min_bins, max_bins, level=level)
            active = active_indices(agent.ladder)
            oracle_bins, oracle_q = joint_argmax(table, active)
            greedy = agent.select_action(np.zeros(2), 0.0)
            assert np.array_equal(greedy, oracle_bins)
            reward, discount = float(rng.normal()), float(rng.uniform(0.1, 1.0))
            y = agent.td_target(single_batch(reward=reward, discount=discount, m=m))
            assert y[0] == reward + discount * oracle_q  # bitwise-equal composition

    def test_double_q_uses_online_argmax_target_eval(self):
        online = np.array([[0.0, 10.0]])  # online prefers bin 1
        target = np.array([[5.0, 1.0]])  # target scores bin 1 as 1.0
        agent = make_table_agent(online, 2, 2, target_table=target)
        y = agent.td_target(single_batch(reward=0.0, discount=1.0))
        assert y[0] == 1.0
        agent_pure = make_table_agent(online, 2, 2, target_table=target,
                                      pure_target_max=True)
        y_pure = agent_pure.td_target(single_batch(reward=0.0, discount=1.0))
        assert y_pure[0] == 5.0  # literal target-net max

    def test_pure_target_max_td_target_forwards_target_net_only(self, monkeypatch):
        agent = make_table_agent(np.array([[0.0, 10.0]]), 2, 2,
                                 target_table=np.array([[5.0, 1.0]]), pure_target_max=True)
        real_forward, calls = nets.forward, []

        def spy_forward(net, inputs):
            calls.append("online" if net is agent.online_net else "target")
            return real_forward(net, inputs)

        monkeypatch.setattr(nets, "forward", spy_forward)
        y = agent.td_target(single_batch(reward=0.0, discount=1.0))
        assert calls == ["target"]
        assert y[0] == 5.0

    def test_target_stationarity(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(2, 5)) * 10
        agent = make_table_agent(table, 5, 5)
        batch = Batch(
            states=rng.normal(size=(4, 2)),
            action_bins=np.zeros((4, 2), dtype=np.int64),
            n_step_rewards=rng.normal(size=4),
            bootstrap_states=rng.normal(size=(4, 2)),
            bootstrap_discounts=rng.uniform(0, 1, size=4),
        )
        y_before = agent.td_target(batch)
        # a perturbation too small to flip any online argmax leaves y unchanged
        agent.online_net.biases[0][:] += 1e-9
        assert np.array_equal(agent.td_target(batch), y_before)


class TestTrainStep:
    def push_transition(self, agent, reward=1.0, bins=None, discount=0.0):
        m = agent.ladder.action_dim
        agent.replay.push(Transition(
            state=np.ones(agent.obs_dim),
            action_bins=np.zeros(m, dtype=np.int64) if bins is None else np.asarray(bins),
            n_step_reward=reward,
            bootstrap_state=np.ones(agent.obs_dim),
            bootstrap_discount=discount,
        ))

    def test_zero_learning_rate_is_noop(self):
        def run():
            agent = make_table_agent(np.zeros((1, 9)), 2, 9, learning_rate=0.0)
            self.push_transition(agent, reward=2.0)
            before = [w.copy() for w in agent.online_net.weights + agent.online_net.biases]
            diag = agent.train_step()
            after = agent.online_net.weights + agent.online_net.biases
            for a, b in zip(after, before):
                assert np.array_equal(a, b)
            return diag["loss"]

        assert run() == run()

    def test_gradient_touches_only_selected_output_entries(self):
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), batch_size=1,
                                                min_fill=1, learning_rate=0.1, seed=2))
        bins = np.array([4, 8])
        agent.replay.push(Transition(
            state=np.ones(3), action_bins=bins, n_step_reward=5.0,
            bootstrap_state=np.ones(3), bootstrap_discount=0.0))
        out_bias_before = agent.online_net.biases[-1].copy()
        out_weights_before = agent.online_net.weights[-1].copy()
        agent.train_step()
        selected_flat = {4, 9 + 8}  # dim 0 bin 4, dim 1 bin 8
        for flat in range(18):
            bias_changed = agent.online_net.biases[-1][flat] != out_bias_before[flat]
            row_changed = not np.array_equal(agent.online_net.weights[-1][flat],
                                             out_weights_before[flat])
            if flat in selected_flat:
                assert bias_changed
            else:
                assert not bias_changed and not row_changed

    def test_overfits_single_transition(self):
        agent = make_table_agent(np.zeros((1, 9)), 2, 9, learning_rate=0.02,
                                 target_period=10)
        self.push_transition(agent, reward=1.7)
        for _ in range(500):
            diag = agent.train_step()
        assert diag["mean_td_error"] < 1e-2

    def test_target_sync_period(self):
        agent = make_table_agent(np.zeros((1, 9)), 2, 9, learning_rate=0.05,
                                 target_period=3)
        self.push_transition(agent, reward=1.0)
        for step in range(1, 7):
            agent.train_step()
            online_out = forward(agent.online_net, np.ones((1, 2)))[0]
            target_out = forward(agent.target_net, np.ones((1, 2)))[0]
            if step % 3 == 0:
                assert np.array_equal(online_out, target_out)
            else:
                assert not np.array_equal(online_out, target_out)

    def test_divergent_loss_raises(self):
        agent = make_table_agent(np.zeros((1, 9)), 2, 9)
        self.push_transition(agent)
        agent.online_net.biases[0][0] = np.nan
        with pytest.raises(DivergenceError):
            agent.train_step()

    def test_pure_target_max_forwards_states_only(self, monkeypatch):
        """With pure_target_max the online net runs over the B sampled states
        only, and the step's targets equal td_target's."""
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), batch_size=4, min_fill=4,
                                                pure_target_max=True, seed=5))
        rng = np.random.default_rng(0)
        for _ in range(8):
            agent.replay.push(Transition(
                state=rng.normal(size=3), action_bins=np.array([0, 8]),
                n_step_reward=float(rng.normal()), bootstrap_state=rng.normal(size=3),
                bootstrap_discount=0.9))
        calls, seen = [], {}
        real_forward, real_loss = nets.forward, nets.huber_loss_and_grad
        real_sample = agent.replay.sample

        def spy_forward(net, inputs):
            calls.append(("online" if net is agent.online_net else "target", len(inputs)))
            return real_forward(net, inputs)

        def spy_sample(*args):
            out = real_sample(*args)
            seen["batch"] = out[0]
            return out

        def spy_loss(pred, targets, *rest):
            seen["targets"] = targets.copy()
            return real_loss(pred, targets, *rest)

        monkeypatch.setattr(nets, "forward", spy_forward)
        monkeypatch.setattr(nets, "huber_loss_and_grad", spy_loss)
        monkeypatch.setattr(agent.replay, "sample", spy_sample)
        agent.train_step()
        monkeypatch.undo()
        assert calls == [("online", 4), ("target", 4)]
        # the target net has not synced yet, so td_target sees the same scorer
        assert np.array_equal(seen["targets"], agent.td_target(seen["batch"]))

    def test_priorities_updated_from_td_error(self):
        agent = make_table_agent(np.zeros((1, 9)), 2, 9, learning_rate=0.0)
        self.push_transition(agent, reward=3.0)  # |delta| = 3 with zero net
        agent.train_step()
        expected = (3.0 + agent.hyper.per_eps) ** agent.hyper.per_alpha
        assert agent.replay.tree.leaf_priorities()[0] == pytest.approx(expected, rel=1e-12)


class TestOnGrowth:
    def test_parameters_bitwise_unchanged(self):
        ladder = build_ladder(2, 9, action_dim=1)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=5))
        before = [p.copy() for p in agent.online_net.weights + agent.online_net.biases]
        new_ladder, _ = grow(agent.ladder)
        agent.on_growth(new_ladder)
        after = agent.online_net.weights + agent.online_net.biases
        for a, b in zip(after, before):
            assert np.array_equal(a, b)

    def test_previous_greedy_action_stays_available(self):
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=6))
        obs = np.ones(3)
        before = agent.select_action(obs, 0.0)
        new_ladder, _ = grow(agent.ladder)
        agent.on_growth(new_ladder)
        allowed = set(active_indices(agent.ladder).tolist())
        assert all(int(b) in allowed for b in before)

    def test_new_bins_finite(self):
        ladder = build_ladder(2, 9, action_dim=1)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=7))
        new_ladder, _ = grow(agent.ladder)
        agent.on_growth(new_ladder)
        util = agent.utilities(agent.online_net, np.ones(3))
        assert np.all(np.isfinite(util))

    def test_shrinking_rejected(self):
        ladder = build_ladder(2, 9, action_dim=1)
        grown, _ = grow(ladder)
        agent = GqnAgent(3, grown, Hyperparams(hidden_dims=(8,), seed=0))
        with pytest.raises(ValueError):
            agent.on_growth(ladder)


class TestStaticDegenerate:
    def test_bang_bang_ladder(self):
        agent = make_table_agent(np.array([[1.0, 2.0]]), 2, 2)
        for _ in range(20):
            bins = agent.select_action(np.zeros(2), 0.5)
            action = decode(agent.ladder, bins)
            assert action[0] in (-1.0, 1.0)

    def test_static_nine(self):
        ladder = build_ladder(9, 9, action_dim=1)
        assert ladder.at_max and ladder.active_bins == 9
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=1))
        assert active_indices(agent.ladder).tolist() == list(range(9))


class TestSchedules:
    def test_epsilon_endpoints(self):
        hyper = Hyperparams()
        assert epsilon_schedule(0, 10_000, hyper) == 1.0
        assert epsilon_schedule(1000, 10_000, hyper) == pytest.approx(0.05)
        assert epsilon_schedule(9000, 10_000, hyper) == pytest.approx(0.05)

    def test_beta_anneals_to_one(self):
        hyper = Hyperparams()
        assert beta_schedule(0, 1000, hyper) == pytest.approx(0.4)
        assert beta_schedule(500, 1000, hyper) == pytest.approx(0.7)
        assert beta_schedule(1000, 1000, hyper) == 1.0


class TestCheckpoint:
    def test_round_trip_behavior(self, tmp_path):
        ladder = build_ladder(2, 9, action_dim=2)
        agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(16,), batch_size=4,
                                                min_fill=4, learning_rate=1e-3, seed=9))
        rng = np.random.default_rng(0)
        for _ in range(8):
            agent.replay.push(Transition(
                state=rng.normal(size=3),
                action_bins=np.zeros(2, dtype=np.int64),
                n_step_reward=float(rng.normal()),
                bootstrap_state=rng.normal(size=3),
                bootstrap_discount=0.9,
            ))
        for _ in range(5):
            agent.train_step()
        new_ladder, _ = grow(agent.ladder)
        agent.on_growth(new_ladder)
        path = tmp_path / "agent.bin"
        agent.save(path, extra_meta={"env": "pendulum_swingup", "c_a": 0.1})
        loaded, extra = GqnAgent.load(path)
        assert extra == {"env": "pendulum_swingup", "c_a": 0.1}
        assert loaded.ladder == agent.ladder
        assert loaded.env_steps == agent.env_steps
        assert loaded.grad_steps == agent.grad_steps
        x = rng.normal(size=(5, 3))
        assert np.array_equal(loaded.utilities(loaded.online_net, x),
                              agent.utilities(agent.online_net, x))
        assert np.array_equal(loaded.utilities(loaded.target_net, x),
                              agent.utilities(agent.target_net, x))
        obs = rng.normal(size=3)
        seq_a = [agent.select_action(obs, 0.4).tolist() for _ in range(20)]
        seq_b = [loaded.select_action(obs, 0.4).tolist() for _ in range(20)]
        assert seq_a == seq_b  # exploration rng state restored exactly


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(discount=1.0)
        with pytest.raises(ValueError):
            Hyperparams(batch_size=0)
        with pytest.raises(ValueError):
            Hyperparams(huber_delta=0.0)
        with pytest.raises(ValueError):
            Hyperparams(n_step=0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"target_period": 0}, "target_period"),
        ({"learning_rate": -1e-4}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"epsilon_start": 3.0}, "epsilon_start"),
        ({"epsilon_start": -0.1}, "epsilon_start"),
        ({"epsilon_end": 1.5}, "epsilon_end"),
        ({"epsilon_end": -0.01}, "epsilon_end"),
        ({"replay_capacity": 128, "batch_size": 256, "min_fill": 1}, "never start"),
        ({"replay_capacity": 500, "min_fill": 1000}, "never start"),
        ({"per_eps": -0.5}, "per_eps"),
        ({"per_eps": float("nan")}, "per_eps"),
        ({"per_alpha": -1.0}, "per_alpha"),
        ({"per_alpha": float("nan")}, "per_alpha"),
        ({"adam_beta1": 1.0}, "adam_beta1"),
        ({"adam_beta1": -0.1}, "adam_beta1"),
        ({"adam_beta2": 1.0}, "adam_beta2"),
        ({"adam_beta2": float("nan")}, "adam_beta2"),
        ({"adam_epsilon": -1e-8}, "adam_epsilon"),
        ({"adam_epsilon": float("nan")}, "adam_epsilon"),
        ({"per_beta_start": float("nan")}, "per_beta_start"),
        ({"per_beta_end": -2.0}, "per_beta_end"),
        ({"epsilon_decay_frac": float("nan")}, "epsilon_decay_frac"),
    ])
    def test_invalid_values_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Hyperparams(**kwargs)

    def test_boundary_values_accepted(self):
        Hyperparams(learning_rate=0.0, target_period=1, epsilon_start=0.0, epsilon_end=1.0)
        Hyperparams(per_eps=0.0, per_alpha=0.0, adam_beta1=0.0, adam_beta2=0.0)
        Hyperparams(per_beta_start=0.0, per_beta_end=1.0, epsilon_decay_frac=0.0)
        Hyperparams(replay_capacity=1000, batch_size=1000, min_fill=1000)
