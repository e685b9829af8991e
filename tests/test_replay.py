import numpy as np
import pytest

from gqn.replay import NStepAccumulator, PrioritizedReplay, SumTree, Transition


def make_transition(value: float, obs_dim=2, act_dim=1):
    return Transition(
        state=np.full(obs_dim, value),
        action_bins=np.zeros(act_dim, dtype=np.int64),
        n_step_reward=float(value),
        bootstrap_state=np.full(obs_dim, -value),
        bootstrap_discount=0.9,
    )


class TestSumTree:
    def test_capacity_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SumTree(3)

    def test_prefix_walk(self):
        tree = SumTree(4)
        for i, p in enumerate([1.0, 2.0, 3.0, 4.0]):
            tree.set(i, p)
        # cumulative boundaries 1, 3, 6, 10
        assert tree.find_prefix(0.5) == 0
        assert tree.find_prefix(3.5) == 2
        assert tree.find_prefix(3.0) == 2  # half-open ranges
        assert tree.find_prefix(9.99) == 3
        assert tree.total == 10.0

    def test_prefix_walk_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        tree = SumTree(16)
        priorities = rng.uniform(0.1, 5.0, size=16)
        tree.set_batch(np.arange(16), priorities)
        values = rng.uniform(0, tree.total, size=200)
        batch = tree.find_prefix_batch(values)
        scalar = np.array([tree.find_prefix(v) for v in values])
        assert np.array_equal(batch, scalar)

    def test_internal_nodes_exact_on_integer_workload(self):
        rng = np.random.default_rng(1)
        tree = SumTree(8)
        for _ in range(100):
            tree.set(int(rng.integers(0, 8)), float(rng.integers(0, 10)))
        nodes = tree.nodes
        for i in range(1, 8):
            assert nodes[i] == nodes[2 * i] + nodes[2 * i + 1]

    def test_root_matches_naive_sum_after_float_workload(self):
        rng = np.random.default_rng(2)
        tree = SumTree(64)
        naive = np.zeros(64)
        for _ in range(2000):
            slot = int(rng.integers(0, 64))
            p = float(rng.uniform(0, 3))
            tree.set(slot, p)
            naive[slot] = p
        assert tree.total == pytest.approx(naive.sum(), rel=1e-9)


class TestNStepAccumulator:
    def test_three_step_geometric_sum(self):
        acc = NStepAccumulator(n=3, gamma=0.9)
        out = []
        for t, r in enumerate([1.0, 2.0, 3.0]):
            out += acc.accumulate(np.array([float(t)]), np.array([0]), r, terminal=False)
        assert out == []  # bootstrap state arrives with the next step
        out += acc.accumulate(np.array([3.0]), np.array([0]), 0.0, terminal=False)
        assert len(out) == 1
        tr = out[0]
        assert tr.n_step_reward == pytest.approx(1 + 0.9 * 2 + 0.81 * 3)
        assert tr.bootstrap_discount == pytest.approx(0.9**3)
        assert tr.state[0] == 0.0
        assert tr.bootstrap_state[0] == 3.0

    def test_one_step_degenerate(self):
        acc = NStepAccumulator(n=1, gamma=0.5)
        assert acc.accumulate(np.array([0.0]), np.array([0]), 1.0, terminal=False) == []
        out = acc.accumulate(np.array([1.0]), np.array([0]), 2.0, terminal=False)
        assert len(out) == 1
        assert out[0].n_step_reward == 1.0
        assert out[0].bootstrap_discount == 0.5
        assert out[0].bootstrap_state[0] == 1.0

    def test_terminal_truncation(self):
        acc = NStepAccumulator(n=3, gamma=0.9)
        acc.accumulate(np.array([0.0]), np.array([0]), 1.0, terminal=False)
        out = acc.accumulate(np.array([1.0]), np.array([0]), 2.0, terminal=True)
        assert len(out) == 2
        first, second = out
        assert first.n_step_reward == pytest.approx(1 + 0.9 * 2)
        assert first.bootstrap_discount == 0.0
        assert second.n_step_reward == 2.0
        assert second.bootstrap_discount == 0.0
        assert len(acc) == 0  # fully flushed

    def test_episode_against_naive_recomputation(self):
        rng = np.random.default_rng(3)
        for episode in range(100):
            n = int(rng.integers(1, 6))
            gamma = float(rng.uniform(0.5, 0.99))
            length = int(rng.integers(1, 40))
            rewards = rng.normal(size=length)
            acc = NStepAccumulator(n=n, gamma=gamma)
            got = []
            for t in range(length):
                got += acc.accumulate(np.array([float(t)]), np.array([t]), rewards[t],
                                      terminal=t == length - 1)
            assert len(got) == length
            for t, tr in enumerate(got):
                horizon = min(n, length - t)
                expected = 0.0
                scale = 1.0
                for j in range(horizon):
                    expected += scale * float(rewards[t + j])
                    scale *= gamma
                assert tr.n_step_reward == expected  # exact, not approximate
                expected_discount = gamma**n if t + n < length else 0.0
                assert tr.bootstrap_discount == expected_discount
                assert tr.state[0] == float(t)
                if expected_discount > 0:
                    assert tr.bootstrap_state[0] == float(t + n)


class TestPrioritizedReplay:
    def test_first_push_priority_one(self):
        buf = PrioritizedReplay(capacity=8)
        buf.push(make_transition(1.0))
        assert buf.tree.leaf_priorities()[0] == 1.0

    def test_push_inherits_max_priority(self):
        buf = PrioritizedReplay(capacity=8, alpha=1.0, eps_priority=0.0)
        buf.push(make_transition(1.0))
        _, handles, _ = buf.sample(1, beta=1.0)
        buf.update_priorities(handles, np.array([5.0]))
        before = buf.tree.total
        buf.push(make_transition(2.0))
        assert buf.tree.total == pytest.approx(before + 5.0)

    def test_ring_overwrites_oldest(self):
        buf = PrioritizedReplay(capacity=4)
        for i in range(5):
            buf.push(make_transition(float(i)))
        assert buf.size == 4
        stored = sorted(buf._rewards.tolist())
        assert stored == [1.0, 2.0, 3.0, 4.0]

    def test_uniform_priorities_give_unit_weights(self):
        buf = PrioritizedReplay(capacity=8)
        for i in range(8):
            buf.push(make_transition(float(i)))
        _, _, weights = buf.sample(4, beta=1.0)
        assert np.allclose(weights, 1.0, rtol=0, atol=0)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(0)
        buf = PrioritizedReplay(capacity=16, seed=1)
        for i in range(16):
            buf.push(make_transition(float(i)))
        _, handles, _ = buf.sample(8, beta=0.5)
        buf.update_priorities(handles, rng.uniform(0, 2, size=8))
        _, _, weights = buf.sample(8, beta=0.5)
        assert np.all(weights > 0) and np.all(weights <= 1.0)

    def test_empirical_frequencies_match_priorities(self):
        # alpha=1 so the stored priorities are exactly the given proportions
        buf = PrioritizedReplay(capacity=4, alpha=1.0, eps_priority=0.0, seed=7)
        for i in range(4):
            buf.push(make_transition(float(i)))
        _, handles, _ = buf.sample(4, beta=1.0)
        order = np.argsort(buf._rewards[handles % 4])
        buf.update_priorities(handles[order], np.array([1.0, 2.0, 3.0, 4.0]))
        counts = np.zeros(4)
        draws = 0
        for _ in range(2500):
            batch, _, _ = buf.sample(4, beta=1.0)
            idx = batch.n_step_rewards.astype(int)
            counts += np.bincount(idx, minlength=4)
            draws += 4
        freqs = counts / draws
        assert np.all(np.abs(freqs - np.array([0.1, 0.2, 0.3, 0.4])) < 0.02)

    def test_update_priority_floor(self):
        buf = PrioritizedReplay(capacity=4, alpha=0.6, eps_priority=1e-3)
        buf.push(make_transition(0.0))
        _, handles, _ = buf.sample(1, beta=1.0)
        buf.update_priorities(handles, np.array([0.0]))
        assert buf.tree.leaf_priorities()[0] == pytest.approx(1e-3**0.6)
        assert buf.tree.leaf_priorities()[0] > 0

    def test_update_priority_exponent(self):
        buf = PrioritizedReplay(capacity=4, alpha=0.6, eps_priority=1e-3)
        buf.push(make_transition(0.0))
        _, handles, _ = buf.sample(1, beta=1.0)
        buf.update_priorities(handles, np.array([0.5]))
        assert buf.tree.leaf_priorities()[0] == pytest.approx(0.501**0.6, rel=1e-12)

    def test_root_matches_brute_force_after_updates(self):
        rng = np.random.default_rng(4)
        buf = PrioritizedReplay(capacity=32, seed=2)
        for i in range(32):
            buf.push(make_transition(float(i)))
        for _ in range(50):
            _, handles, _ = buf.sample(8, beta=0.6)
            buf.update_priorities(handles, rng.uniform(0, 3, size=8))
        leaves = buf.tree.leaf_priorities()
        assert buf.tree.total == pytest.approx(leaves.sum(), rel=1e-9)

    def test_stale_handles_skipped_and_counted(self):
        buf = PrioritizedReplay(capacity=4, seed=0)
        for i in range(4):
            buf.push(make_transition(float(i)))
        _, handles, _ = buf.sample(4, beta=1.0)
        for i in range(4, 8):  # overwrite every slot
            buf.push(make_transition(float(i)))
        total_before = buf.tree.total
        buf.update_priorities(handles, np.full(4, 100.0))
        assert buf.stale_update_count == 4
        assert buf.tree.total == total_before

    def test_sample_requires_enough_items(self):
        buf = PrioritizedReplay(capacity=8)
        buf.push(make_transition(0.0))
        with pytest.raises(ValueError):
            buf.sample(2, beta=1.0)

    def test_sample_never_returns_empty_slot(self):
        buf = PrioritizedReplay(capacity=64, seed=3)
        for i in range(5):  # mostly-empty tree
            buf.push(make_transition(float(i)))
        for _ in range(200):
            batch, handles, _ = buf.sample(5, beta=0.4)
            assert np.all(handles % 64 < buf.size)
            assert np.all(batch.n_step_rewards < 5)

    def test_sampling_deterministic_given_seed(self):
        def run():
            buf = PrioritizedReplay(capacity=16, seed=11)
            for i in range(16):
                buf.push(make_transition(float(i)))
            picks = []
            for _ in range(10):
                batch, handles, _ = buf.sample(4, beta=0.7)
                buf.update_priorities(handles, np.abs(batch.n_step_rewards) * 0.1)
                picks.append(handles.tolist())
            return picks

        assert run() == run()

    def test_tree_consistency_against_naive_oracle(self):
        # 10k mixed push / update / sample operations vs an array of priorities
        rng = np.random.default_rng(9)
        capacity = 128
        buf = PrioritizedReplay(capacity=capacity, alpha=1.0, eps_priority=0.0, seed=5)
        naive = np.zeros(capacity)
        count = 0
        for _ in range(10_000):
            op = rng.random()
            if op < 0.4 or count == 0:
                buf.push(make_transition(rng.normal()))
                naive[(count) % capacity] = buf.max_priority
                count += 1
            elif op < 0.7 and min(count, capacity) >= 4:
                batch_size = int(rng.integers(1, 5))
                _, handles, _ = buf.sample(batch_size, beta=0.5)
                errs = rng.uniform(0, 4, size=batch_size)
                buf.update_priorities(handles, errs)
                naive[handles % capacity] = np.abs(errs)  # alpha=1, eps=0
            else:
                assert buf.tree.total == pytest.approx(naive[: min(count, capacity)].sum(), rel=1e-9)
        leaves = buf.tree.leaf_priorities()[: min(count, capacity)]
        assert np.allclose(leaves, naive[: min(count, capacity)], rtol=1e-9)

    def test_state_round_trip_preserves_sampling(self):
        buf = PrioritizedReplay(capacity=16, seed=21)
        for i in range(10):
            buf.push(make_transition(float(i)))
        _, handles, _ = buf.sample(4, beta=0.5)
        buf.update_priorities(handles, np.linspace(0.1, 2.0, 4))
        meta, arrays = buf.state()
        clone = PrioritizedReplay.from_state(meta, arrays)
        b1, h1, w1 = buf.sample(4, beta=0.5)
        b2, h2, w2 = clone.sample(4, beta=0.5)
        assert np.array_equal(h1, h2)
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1.states, b2.states)
