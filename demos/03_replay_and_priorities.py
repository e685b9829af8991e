"""n-step accumulation and prioritized replay.

Feeds a short episode through the accumulator, then shows how priorities
shift sampling toward high-TD-error transitions.
"""

import numpy as np

from gqn.replay import NStepAccumulator, PrioritizedReplay, Transition

# --- n-step rewards -------------------------------------------------------
acc = NStepAccumulator(n=3, gamma=0.9)
rewards = [1.0, 2.0, 3.0, 0.0, 0.0]
emitted = []
for t, r in enumerate(rewards):
    emitted += acc.accumulate(np.array([float(t)]), np.array([0]), r,
                              terminal=t == len(rewards) - 1)
for tr in emitted:
    print(f"t={tr.state[0]:.0f}: n-step reward {tr.n_step_reward:+.3f}, "
          f"bootstrap discount {tr.bootstrap_discount:.3f}")

# --- prioritized sampling --------------------------------------------------
buf = PrioritizedReplay(capacity=64, alpha=0.6, seed=0)
for i in range(32):
    buf.push(Transition(state=np.array([float(i)]), action_bins=np.array([0]),
                        n_step_reward=float(i), bootstrap_state=np.array([0.0]),
                        bootstrap_discount=0.9))

# mark transition 7 as very surprising
batch, handles, _ = buf.sample(32, beta=0.4)
errors = np.where(batch.n_step_rewards == 7.0, 10.0, 0.01)
buf.update_priorities(handles, errors)

hits = 0
for _ in range(500):
    batch, handles, weights = buf.sample(8, beta=0.4)
    hits += int(np.sum(batch.n_step_rewards == 7.0))
print(f"\ntransition 7 sampled {hits}/4000 times "
      f"({hits / 4000:.1%} vs 3.1% uniform); importance weights correct for the skew")
