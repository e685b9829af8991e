"""Property tests of the exact oracles: sum tree, Adam, and the acting path
(decode, greedy and exploring bin choice, bootstrap targets)."""

import numpy as np
import pytest
from helpers import make_table_agent
from hypothesis import given, settings
from hypothesis import strategies as st

from gqn.actions import MaskViolationError, active_indices, bin_values, build_ladder, decode, grow
from gqn.agent import GqnAgent, Hyperparams
from gqn.nets import NetGrads, adam_step, init_adam, init_net
from gqn.replay import Batch, SumTree

priority = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def naive_nodes(leaves: np.ndarray) -> np.ndarray:
    """Bottom-up rebuild: every internal node is the sum of its two children."""
    cap = leaves.shape[0]
    nodes = np.zeros(2 * cap)
    nodes[cap:] = leaves
    for i in range(cap - 1, 0, -1):
        nodes[i] = nodes[2 * i] + nodes[2 * i + 1]
    return nodes


@st.composite
def tree_writes(draw):
    """A tree capacity and a sequence of set_batch calls whose slots repeat,
    each repeated slot carrying one priority per call."""
    cap = 2 ** draw(st.integers(0, 6))
    writes = []
    for _ in range(draw(st.integers(1, 5))):
        slots = draw(st.lists(st.integers(0, cap - 1), min_size=1, max_size=3 * cap))
        value = {s: draw(priority) for s in sorted(set(slots))}
        writes.append((slots, [value[s] for s in slots]))
    return cap, writes


@given(tree_writes())
@settings(max_examples=200, deadline=None)
def test_set_batch_with_duplicates_matches_naive_rebuild(case):
    cap, writes = case
    tree = SumTree(cap)
    for slots, priorities in writes:
        tree.set_batch(np.array(slots), np.array(priorities))
        assert tree.nodes[1:].tobytes() == naive_nodes(tree.leaf_priorities())[1:].tobytes()


@given(tree_writes(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_find_prefix_batch_matches_scalar(case, fractions):
    cap, writes = case
    tree = SumTree(cap)
    for slots, priorities in writes:
        tree.set_batch(np.array(slots), np.array(priorities))
    values = np.array(fractions) * tree.total
    assert tree.find_prefix_batch(values).tolist() == [tree.find_prefix(v) for v in values]


def reference_adam(params, grads, ms, vs, t, lr, b1, b2, eps):
    """Per-array Adam with the bias corrections folded into the step size."""
    corr = np.sqrt(1.0 - b2**t)
    lr_t = lr * corr / (1.0 - b1**t)
    eps_t = eps * corr
    for p, g, m, v in zip(params, grads, ms, vs):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr_t * m / (np.sqrt(v) + eps_t)


@given(st.lists(st.integers(1, 7), min_size=2, max_size=4), st.integers(0, 2**32 - 1),
       st.integers(1, 4), st.floats(1e-5, 1.0))
@settings(max_examples=100, deadline=None)
def test_flat_adam_matches_per_array_reference(dims, seed, steps, lr):
    net = init_net(dims, seed=seed)
    state = init_adam(net, learning_rate=lr)
    params = [a.copy() for a in net.weights + net.biases]
    ms = [np.zeros_like(a) for a in params]
    vs = [np.zeros_like(a) for a in params]
    rng = np.random.default_rng(seed)
    for t in range(1, steps + 1):
        grads = NetGrads([rng.normal(size=w.shape) for w in net.weights],
                         [rng.normal(size=b.shape) for b in net.biases])
        adam_step(net, grads, state)
        reference_adam(params, grads.weights + grads.biases, ms, vs, t, lr,
                       state.beta1, state.beta2, state.epsilon)
    for got, want in zip(net.weights + net.biases, params):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(state.m_weights + state.m_biases + state.v_weights + state.v_biases,
                         ms + vs):
        assert got.tobytes() == want.tobytes()


# (min_bins, max_bins) ladders the acting-path properties draw from.
LADDERS = ((2, 2), (2, 3), (2, 9), (3, 17), (9, 65))


@st.composite
def ladders(draw, max_dim=4):
    """A ladder at a drawn level, with drawn per-dimension bounds."""
    lo_bins, hi_bins = draw(st.sampled_from(LADDERS))
    m = draw(st.integers(1, max_dim))
    lows = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    widths = draw(st.lists(st.floats(1e-3, 5.0), min_size=m, max_size=m))
    ladder = build_ladder(lo_bins, hi_bins, m, [(lo, lo + w) for lo, w in zip(lows, widths)])
    for _ in range(draw(st.integers(0, ladder.num_levels - 1))):
        ladder, _ = grow(ladder)
    return ladder


def reference_decode(ladder, idx):
    """Values by the definition, or None where some index is not active."""
    active = set(active_indices(ladder).tolist())
    if len(idx) != ladder.action_dim or not all(i in active for i in idx):
        return None
    return np.array([bin_values(ladder)[d, i] for d, i in enumerate(idx)])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference(data):
    ladder = data.draw(ladders())
    n = ladder.full_bins
    length = data.draw(st.sampled_from([ladder.action_dim] * 4 + [ladder.action_dim - 1,
                                                                  ladder.action_dim + 1]))
    index = st.one_of(st.sampled_from(active_indices(ladder).tolist()), st.integers(-3, n + 3))
    idx = data.draw(st.lists(index, min_size=length, max_size=length))
    want = reference_decode(ladder, idx)
    if want is None:
        with pytest.raises(MaskViolationError):
            decode(ladder, idx)
    else:
        assert decode(ladder, idx).tobytes() == want.tobytes()


@given(ladders(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_greedy_bins_match_active_argmax_ties_included(ladder, seed):
    # Utilities from {0, 1, 2} tie often; both sides must pick the lowest bin.
    table = np.random.default_rng(seed).integers(0, 3, size=(ladder.action_dim, ladder.full_bins))
    agent = make_table_agent(table.astype(np.float64), ladder.level_bins[0],
                             ladder.full_bins, level=ladder.active_level)
    active = active_indices(agent.ladder)
    want = active[np.argmax(table[:, active], axis=1)]
    got = agent.select_action(np.zeros(2), 0.0)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@given(ladders(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_exploration_draws_are_active_and_keep_the_stream(ladder, seed, epsilon):
    table = np.random.default_rng(seed).normal(size=(ladder.action_dim, ladder.full_bins))
    agent = make_table_agent(table, ladder.level_bins[0], ladder.full_bins,
                             level=ladder.active_level, seed=seed % 1000)
    active = active_indices(agent.ladder)
    replica = np.random.default_rng()
    replica.bit_generator.state = agent.explore_rng.bit_generator.state
    for _ in range(5):
        got = agent.select_action(np.zeros(2), epsilon)
        assert set(got.tolist()) <= set(active.tolist())
        # the old formula, active[integers(0, len(active))], on a replica
        # stream; a greedy call (epsilon 0) draws nothing
        want = active[np.argmax(table[:, active], axis=1)]
        explore = replica.random(ladder.action_dim) < epsilon if epsilon > 0 \
            else np.zeros(ladder.action_dim, dtype=bool)
        if explore.any():
            draws = active[replica.integers(0, active.shape[0], size=ladder.action_dim)]
            want = np.where(explore, draws, want)
        assert got.tolist() == want.tolist()
    assert replica.bit_generator.state == agent.explore_rng.bit_generator.state


@given(ladders(max_dim=3), st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_targets_match_active_indices_reference(ladder, seed, b, pure_target_max):
    agent = GqnAgent(3, ladder, Hyperparams(hidden_dims=(8,), seed=seed,
                                            pure_target_max=pure_target_max))
    agent.target_net = init_net(agent.online_net.layer_dims, seed=seed + 1)
    rng = np.random.default_rng(seed)
    m = ladder.action_dim
    batch = Batch(states=rng.normal(size=(b, 3)), action_bins=np.zeros((b, m), dtype=np.int64),
                  n_step_rewards=rng.normal(size=b), bootstrap_states=rng.normal(size=(b, 3)),
                  bootstrap_discounts=rng.uniform(0.0, 1.0, size=b))
    active = active_indices(ladder)
    target_util = agent.utilities(agent.target_net, batch.bootstrap_states)
    chooser = target_util if pure_target_max else \
        agent.utilities(agent.online_net, batch.bootstrap_states)
    bins = active[np.argmax(chooser[:, :, active], axis=2)]
    boot = np.array([sum(target_util[i, d, bins[i, d]] for d in range(m)) for i in range(b)])
    want = batch.n_step_rewards + batch.bootstrap_discounts * (boot / m)
    assert agent.td_target(batch).tobytes() == want.tobytes()
