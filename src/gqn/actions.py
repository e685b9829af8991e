"""Per-dimension action discretization grids and the nested resolution ladder.

Bin counts follow the interval-doubling rule n -> 2n - 1, so every coarser
grid is an exact value subset of every finer one. The network always sees
the full grid; coarser levels only mask which bins are selectable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np


class MaskViolationError(ValueError):
    """A bin index outside the currently active subspace was used."""


def doubling_sequence(min_bins: int, limit: int) -> list[int]:
    """Bin counts reachable from min_bins by n -> 2n - 1, up to limit."""
    seq = [min_bins]
    while seq[-1] < limit:
        seq.append(2 * seq[-1] - 1)
    return seq


@dataclass(frozen=True)
class ResolutionLadder:
    action_dim: int
    level_bins: tuple[int, ...]
    bounds_lo: tuple[float, ...]
    bounds_hi: tuple[float, ...]
    active_level: int = 0

    @property
    def full_bins(self) -> int:
        return self.level_bins[-1]

    @property
    def num_levels(self) -> int:
        return len(self.level_bins)

    @property
    def active_bins(self) -> int:
        return self.level_bins[self.active_level]

    @property
    def at_max(self) -> bool:
        return self.active_level == self.num_levels - 1

    # Built once per ladder (growth makes a new instance), not on every step.
    @cached_property
    def stride(self) -> int:
        """Full-grid distance between active bins; the active set is 0::stride.
        Exact by the doubling rule: full_bins - 1 is a power-of-two multiple
        of active_bins - 1."""
        return (self.full_bins - 1) // (self.active_bins - 1)

    @cached_property
    def values(self) -> np.ndarray:
        """Full-resolution grid values, shape (action_dim, full_bins), read-only;
        endpoints hit the bounds exactly."""
        lo = np.asarray(self.bounds_lo)[:, None]
        hi = np.asarray(self.bounds_hi)[:, None]
        n = self.full_bins
        idx = np.arange(n, dtype=np.float64)[None, :]
        values = lo + idx * (hi - lo) / (n - 1)
        values[:, 0] = self.bounds_lo
        values[:, -1] = self.bounds_hi
        values.setflags(write=False)
        return values

    @cached_property
    def dims(self) -> np.ndarray:
        """Dimension index 0..action_dim-1, read-only."""
        dims = np.arange(self.action_dim)
        dims.setflags(write=False)
        return dims


def build_ladder(min_bins: int, max_bins: int, action_dim: int, bounds=(-1.0, 1.0)) -> ResolutionLadder:
    """Ladder from min_bins to max_bins via the doubling rule, starting coarse.

    bounds is either one (lo, hi) pair shared by all dimensions or a sequence
    of per-dimension pairs.
    """
    if min_bins < 2:
        raise ValueError(f"min_bins must be >= 2, got {min_bins}")
    if action_dim < 1:
        raise ValueError(f"action_dim must be >= 1, got {action_dim}")
    seq = doubling_sequence(min_bins, max_bins)
    if seq[-1] != max_bins:
        reachable = ", ".join(str(n) for n in seq)
        raise ValueError(
            f"max_bins {max_bins} not reachable from min_bins {min_bins} by "
            f"n -> 2n - 1; valid values: {reachable}"
        )
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.shape == (2,):
        lo = np.full(action_dim, bounds[0])
        hi = np.full(action_dim, bounds[1])
    elif bounds.shape == (action_dim, 2):
        lo, hi = bounds[:, 0], bounds[:, 1]
    else:
        raise ValueError(f"bounds must be (lo, hi) or ({action_dim}, 2), got shape {bounds.shape}")
    if not (lo < hi).all():  # written so that NaN fails too
        raise ValueError("each bound interval must satisfy lo < hi")
    if not np.isfinite(bounds).all():
        raise ValueError(f"bounds must be finite, got {bounds.tolist()}")
    return ResolutionLadder(
        action_dim=action_dim,
        level_bins=tuple(seq),
        bounds_lo=tuple(float(v) for v in lo),
        bounds_hi=tuple(float(v) for v in hi),
    )


def bin_values(ladder: ResolutionLadder) -> np.ndarray:
    """Full-resolution grid values, shape (action_dim, full_bins), read-only."""
    return ladder.values


def active_indices(ladder: ResolutionLadder) -> np.ndarray:
    """Full-grid indices selectable at the current level (same for every dim)."""
    return np.arange(ladder.active_bins, dtype=np.int64) * ladder.stride


def grow(ladder: ResolutionLadder) -> tuple[ResolutionLadder, bool]:
    """Advance one level; no-op at the finest level."""
    if ladder.at_max:
        return ladder, False
    return replace(ladder, active_level=ladder.active_level + 1), True


def decode(ladder: ResolutionLadder, bin_indices) -> np.ndarray:
    """Map per-dimension full-grid bin indices to the continuous action.

    Rejects masked or out-of-range indices; this is the mask-safety tripwire
    for the whole training loop.
    """
    idx = np.asarray(bin_indices, dtype=np.int64)
    if idx.shape != (ladder.action_dim,):
        raise MaskViolationError(
            f"expected {ladder.action_dim} bin indices, got shape {idx.shape}"
        )
    # The checks run on a Python list: for a handful of ints, min/max/any
    # cost less than numpy reductions.
    bins = idx.tolist()
    if min(bins) < 0 or max(bins) >= ladder.full_bins:
        raise MaskViolationError(f"bin indices {bins} out of range [0, {ladder.full_bins})")
    stride = ladder.stride
    if any(i % stride for i in bins):
        raise MaskViolationError(
            f"bin indices {bins} include masked bins at level "
            f"{ladder.active_level} ({ladder.active_bins} active of {ladder.full_bins})"
        )
    return ladder.values[ladder.dims, idx]
