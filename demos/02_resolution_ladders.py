"""Resolution ladders: nested bin grids and the active-subspace mask.

Bin counts double their resolution per level (n -> 2n - 1), so every
coarse grid is an exact value subset of every finer one. The mask decides
which full-grid bins are currently selectable; decode() enforces it.
"""

from gqn.actions import (MaskViolationError, active_indices, bin_values, build_ladder, decode,
                         grow)

ladder = build_ladder(min_bins=2, max_bins=9, action_dim=1)
print(f"ladder levels: {ladder.level_bins}")
grid = bin_values(ladder)[0]
print(f"full 9-bin grid: {grid.tolist()}\n")

while True:
    active = set(active_indices(ladder).tolist())
    cells = [f"{v:+.2f}" if i in active else "  x  " for i, v in enumerate(grid)]
    print(f"level {ladder.active_level} ({ladder.active_bins} bins): {' '.join(cells)}")
    ladder, grew = grow(ladder)
    if not grew:
        break

# decode() maps active bin indices to actions and trips on masked ones.
ladder = build_ladder(2, 9, action_dim=2)
print(f"\ndecode bins (0, 8) at 2-bin level -> {decode(ladder, [0, 8])}")
try:
    decode(ladder, [4, 8])  # bin 4 is masked at the 2-bin level
except MaskViolationError as err:
    print(f"decode bins (4, 8) at 2-bin level -> MaskViolationError: {err}")
