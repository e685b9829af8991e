"""When to grow: the linear episode schedule vs the adaptive threshold.

The adaptive rule grows when the current evaluation mean falls below
(1 - 0.05 sgn mu) * mu + 0.9 sigma of the recent evaluation window:
stagnation relative to recent noise, not absolute performance.
"""

import numpy as np

from gqn.scheduler import (EvalWindow, GrowthScheduler, adaptive_decide, growth_threshold,
                           linear_level)

# --- linear schedule: 4 levels over 1000 episodes --------------------------
print("linear schedule (T=1000, 4 levels):")
for episode in (0, 199, 200, 450, 600, 999):
    print(f"  episode {episode:4d} -> level {linear_level(episode, 1000, 4)}")

# --- adaptive threshold -----------------------------------------------------
window = EvalWindow(10)
for value in [90.0] * 5 + [110.0] * 5:  # mean 100, std 10
    window.push(value)
threshold = growth_threshold(window)
print(f"\nwindow mean 100, std 10 -> threshold {threshold:.1f}")

for current in (105.0, 100.0):
    grow = adaptive_decide(window, current, evals_since_growth=5, cooldown=5)
    print(f"  current eval mean {current:.0f}: {'grow' if grow else 'hold'}")

# an improving run never triggers; a noisy plateau does
print("\nsimulated traces (window 5, cooldown 0):")
for name, trace in (("steady improvement", np.linspace(0, 200, 30)),
                    ("noisy plateau", 100 + 10 * np.sin(np.arange(30)))):
    scheduler = GrowthScheduler("adaptive", total_episodes=30, num_levels=4, window=5,
                                cooldown=0)
    grew_at = next((i for i, value in enumerate(trace)
                    if scheduler.after_eval(float(value), at_max=False)), None)
    print(f"  {name}: {'grew at eval ' + str(grew_at) if grew_at is not None else 'never grew'}")
