"""Property tests of the learner's exact oracles (sum tree, Adam)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gqn.nets import NetGrads, adam_step, init_adam, init_net
from gqn.replay import SumTree

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
