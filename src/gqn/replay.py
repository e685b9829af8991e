"""n-step transition accumulation and proportional prioritized replay.

Priorities live in a power-of-two sum tree. Internal nodes are always
recomputed as the sum of their children, so tree totals track a naive
priority array to float rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    state: np.ndarray
    action_bins: np.ndarray
    n_step_reward: float
    bootstrap_state: np.ndarray
    bootstrap_discount: float  # gamma**k for realized horizon k, or 0 on termination


@dataclass
class Batch:
    """Stacked transitions as sampled for one gradient step."""

    states: np.ndarray
    action_bins: np.ndarray
    n_step_rewards: np.ndarray
    bootstrap_states: np.ndarray
    bootstrap_discounts: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


class SumTree:
    """Fixed-capacity (power of two) sum tree over leaf priorities."""

    def __init__(self, capacity: int):
        if capacity < 1 or capacity & (capacity - 1) != 0:
            raise ValueError(f"capacity must be a positive power of two, got {capacity}")
        self.capacity = capacity
        self.nodes = np.zeros(2 * capacity)
        self.depth = int(np.log2(capacity))

    @property
    def total(self) -> float:
        return float(self.nodes[1])

    def leaf_priorities(self) -> np.ndarray:
        return self.nodes[self.capacity :].copy()

    def set(self, slot: int, priority: float) -> None:
        nodes = self.nodes
        idx = self.capacity + slot
        nodes[idx] = priority
        idx >>= 1
        while idx >= 1:
            nodes[idx] = nodes.item(2 * idx) + nodes.item(2 * idx + 1)
            idx >>= 1

    def set_batch(self, slots: np.ndarray, priorities: np.ndarray) -> None:
        idx = np.asarray(slots, dtype=np.int64) + self.capacity
        self.nodes[idx] = priorities
        # Climb one level per row: row j holds each leaf's ancestor j + 1
        # levels up, and node p's children are pairs[p]. A parent listed
        # twice is written twice with the same sum, so duplicate slots need
        # no np.unique.
        pairs = self.nodes.reshape(-1, 2)
        for parents in idx >> np.arange(1, self.depth + 1)[:, None]:
            children = pairs.take(parents, axis=0)
            self.nodes.put(parents, children[:, 0] + children[:, 1])

    def find_prefix(self, value: float) -> int:
        """Leaf slot whose cumulative range contains value (half-open)."""
        idx = 1
        while idx < self.capacity:
            left = 2 * idx
            if value < self.nodes[left]:
                idx = left
            else:
                value -= self.nodes[left]
                idx = left + 1
        return idx - self.capacity

    def find_prefix_batch(self, values: np.ndarray) -> np.ndarray:
        idx = np.ones(values.shape[0], dtype=np.int64)
        vals = values.astype(np.float64, copy=True)
        for _ in range(self.depth):
            idx <<= 1
            left_sums = self.nodes[idx]
            go_right = vals >= left_sums
            np.subtract(vals, left_sums, out=vals, where=go_right)
            idx += go_right
        return idx - self.capacity


class NStepAccumulator:
    """Rolls per-step (state, action, reward) entries into n-step transitions.

    A transition is emitted once its n rewards exist; the state arriving with
    the call that completes them is its bootstrap state. On a terminal step
    every pending entry is flushed with a truncated reward sum and bootstrap
    discount 0.
    """

    def __init__(self, n: int, gamma: float):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 <= gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        self.n = n
        self.gamma = gamma
        self._states: list[np.ndarray] = []
        self._actions: list[np.ndarray] = []
        self._rewards: list[float] = []

    def __len__(self) -> int:
        return len(self._states)

    def _make(self, start: int, horizon: int, bootstrap_state, discount: float) -> Transition:
        # sequential accumulation so a naive recomputation reproduces the
        # stored sum bit for bit
        total = 0.0
        scale = 1.0
        for j in range(horizon):
            total += scale * self._rewards[start + j]
            scale *= self.gamma
        return Transition(
            state=self._states[start],
            action_bins=self._actions[start],
            n_step_reward=total,
            bootstrap_state=bootstrap_state,
            bootstrap_discount=discount,
        )

    def accumulate(self, state, action_bins, reward, terminal: bool) -> list[Transition]:
        state = np.asarray(state, dtype=np.float64)
        action_bins = np.asarray(action_bins, dtype=np.int64)
        out: list[Transition] = []
        if len(self._states) == self.n:
            out.append(self._make(0, self.n, state, self.gamma**self.n))
            del self._states[0], self._actions[0], self._rewards[0]
        self._states.append(state)
        self._actions.append(action_bins)
        self._rewards.append(float(reward))
        if terminal:
            pending = len(self._states)
            for start in range(pending):
                out.append(self._make(start, pending - start, state, 0.0))
            self._states.clear()
            self._actions.clear()
            self._rewards.clear()
        return out


class PrioritizedReplay:
    """Ring buffer with proportional prioritized sampling.

    New items enter at the running max priority; updates store
    (|td_error| + eps_priority) ** alpha. Sample handles are insertion
    indices, so updates for slots that have since been overwritten are
    detected and skipped.
    """

    def __init__(self, capacity: int, alpha: float = 0.6, eps_priority: float = 1e-3, seed: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.alpha = float(alpha)
        self.eps_priority = float(eps_priority)
        tree_capacity = 1
        while tree_capacity < capacity:
            tree_capacity *= 2
        self.tree = SumTree(tree_capacity)
        self.rng = np.random.default_rng(seed)
        self.insert_count = 0
        self.max_priority = 1.0
        self.stale_update_count = 0
        self._states: np.ndarray | None = None
        self._actions: np.ndarray | None = None
        self._rewards = np.zeros(capacity)
        self._boot_states: np.ndarray | None = None
        self._discounts = np.zeros(capacity)

    @property
    def size(self) -> int:
        return min(self.insert_count, self.capacity)

    def __len__(self) -> int:
        return self.size

    def _ensure_storage(self, t: Transition) -> None:
        if self._states is None:
            obs_dim = t.state.shape[0]
            act_dim = t.action_bins.shape[0]
            self._states = np.zeros((self.capacity, obs_dim))
            self._boot_states = np.zeros((self.capacity, obs_dim))
            self._actions = np.zeros((self.capacity, act_dim), dtype=np.int64)

    def push(self, t: Transition) -> None:
        self._ensure_storage(t)
        slot = self.insert_count % self.capacity
        self._states[slot] = t.state
        self._actions[slot] = t.action_bins
        self._rewards[slot] = t.n_step_reward
        self._boot_states[slot] = t.bootstrap_state
        self._discounts[slot] = t.bootstrap_discount
        self.tree.set(slot, self.max_priority)
        self.insert_count += 1

    def sample(self, batch_size: int, beta: float, rng=None):
        """Stratified proportional sample.

        Returns (Batch, handles, importance_weights); weights are
        (size * P(i)) ** -beta, normalized to max 1.
        """
        if self.size < batch_size:
            raise ValueError(f"need at least {batch_size} stored transitions, have {self.size}")
        rng = self.rng if rng is None else rng
        total = self.tree.total
        segment = total / batch_size
        values = (np.arange(batch_size) + rng.random(batch_size)) * segment
        slots = self.tree.find_prefix_batch(values)
        # Float edge at segment boundaries can land one past the last live slot.
        np.minimum(slots, self.size - 1, out=slots)
        priorities = self.tree.nodes[self.tree.capacity + slots]
        probs = priorities / total
        weights = (self.size * probs) ** (-beta)
        weights /= weights.max()
        handles = self._slot_to_handle(slots)
        batch = Batch(
            states=self._states[slots],
            action_bins=self._actions[slots],
            n_step_rewards=self._rewards[slots],
            bootstrap_states=self._boot_states[slots],
            bootstrap_discounts=self._discounts[slots],
        )
        return batch, handles, weights

    def _slot_to_handle(self, slots: np.ndarray) -> np.ndarray:
        if self.insert_count <= self.capacity:
            return slots.astype(np.int64)
        cursor = self.insert_count % self.capacity
        base = self.insert_count - self.capacity
        return np.where(
            slots >= cursor,
            base + (slots - cursor),
            self.insert_count - cursor + slots,
        ).astype(np.int64)

    def update_priorities(self, handles, td_errors) -> None:
        """Set priority (|delta| + eps_priority) ** alpha for each sampled item.

        Handles whose slot has been overwritten since sampling are skipped
        and counted in stale_update_count.
        """
        handles = np.asarray(handles, dtype=np.int64)
        td_errors = np.asarray(td_errors, dtype=np.float64)
        if handles.shape != td_errors.shape:
            raise ValueError("handles and td_errors must have equal length")
        live = (handles >= self.insert_count - self.capacity) & (handles < self.insert_count)
        if not live.all():
            self.stale_update_count += int(np.count_nonzero(~live))
            handles, td_errors = handles[live], td_errors[live]
            if handles.size == 0:
                return
        priorities = (np.abs(td_errors) + self.eps_priority) ** self.alpha
        self.tree.set_batch(handles % self.capacity, priorities)
        self.max_priority = max(self.max_priority, float(priorities.max()))

    def state(self):
        """(meta, arrays) snapshot for exact resume: the live rows only."""
        if self._states is None:
            raise ValueError("cannot snapshot an empty, never-pushed buffer")
        meta = {
            "capacity": self.capacity,
            "alpha": self.alpha,
            "eps_priority": self.eps_priority,
            "insert_count": self.insert_count,
            "max_priority": self.max_priority,
            "stale_update_count": self.stale_update_count,
            "rng_state": self.rng.bit_generator.state,
        }
        live = self.size
        leaves = self.tree.capacity
        arrays = {
            "states": self._states[:live],
            "actions": self._actions[:live],
            "rewards": self._rewards[:live],
            "boot_states": self._boot_states[:live],
            "discounts": self._discounts[:live],
            "tree_leaves": self.tree.nodes[leaves:leaves + live],
        }
        return meta, arrays

    @classmethod
    def from_state(cls, meta, arrays) -> "PrioritizedReplay":
        buf = cls(meta["capacity"], alpha=meta["alpha"], eps_priority=meta["eps_priority"])
        buf.insert_count = int(meta["insert_count"])
        buf.max_priority = float(meta["max_priority"])
        buf.stale_update_count = int(meta["stale_update_count"])
        buf.rng.bit_generator.state = meta["rng_state"]

        def storage(rows, dtype=np.float64):
            # Rows past the live ones are zero, as in a buffer that never wrapped.
            out = np.zeros((buf.capacity, *rows.shape[1:]), dtype=dtype)
            out[:rows.shape[0]] = rows
            return out

        buf._states = storage(arrays["states"])
        buf._actions = storage(arrays["actions"], np.int64)
        buf._rewards = storage(arrays["rewards"])
        buf._boot_states = storage(arrays["boot_states"])
        buf._discounts = storage(arrays["discounts"])
        leaves = arrays["tree_leaves"]
        buf.tree.set_batch(np.arange(leaves.shape[0]), leaves)
        return buf
