import numpy as np
import pytest

from gqn.actions import (
    MaskViolationError,
    active_indices,
    build_ladder,
    decode,
    grow,
)


class TestBuildLadder:
    def test_two_to_nine(self):
        ladder = build_ladder(2, 9, action_dim=3)
        assert ladder.level_bins == (2, 3, 5, 9)
        assert ladder.active_level == 0

    def test_nine_to_sixty_five(self):
        ladder = build_ladder(9, 65, action_dim=2)
        assert ladder.level_bins == (9, 17, 33, 65)

    def test_single_level(self):
        ladder = build_ladder(2, 2, action_dim=1)
        assert ladder.level_bins == (2,)
        assert ladder.at_max

    def test_unreachable_max_rejected_with_suggestions(self):
        with pytest.raises(ValueError, match=r"2, 3, 5, 9"):
            build_ladder(2, 8, action_dim=1)

    def test_min_bins_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_ladder(1, 9, action_dim=1)

    def test_per_dimension_bounds(self):
        ladder = build_ladder(2, 3, action_dim=2, bounds=[[-1.0, 1.0], [0.0, 4.0]])
        grid = ladder.values
        assert grid[0].tolist() == [-1.0, 0.0, 1.0]
        assert grid[1].tolist() == [0.0, 2.0, 4.0]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            build_ladder(2, 3, action_dim=1, bounds=(1.0, -1.0))

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            build_ladder(2, 3, action_dim=1, bounds=(1.0, float("nan")))

    @pytest.mark.parametrize("bounds, dim", [((-np.inf, np.inf), 1), ((0.0, np.inf), 1),
                                             ([(-1.0, 1.0), (-np.inf, 0.0)], 2)])
    def test_infinite_bound_rejected(self, bounds, dim):
        # an infinite interval would make its interior grid values nan
        with pytest.raises(ValueError, match="bounds must be finite"):
            build_ladder(2, 3, action_dim=dim, bounds=bounds)


class TestBinValue:
    def test_three_bins(self):
        ladder = build_ladder(3, 3, action_dim=1)
        assert ladder.values[0].tolist() == [-1.0, 0.0, 1.0]

    def test_five_bins(self):
        ladder = build_ladder(5, 5, action_dim=1)
        assert ladder.values[0].tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_bang_bang(self):
        ladder = build_ladder(2, 2, action_dim=1)
        assert ladder.values[0].tolist() == [-1.0, 1.0]

    def test_endpoints_exact(self):
        ladder = build_ladder(2, 65, action_dim=1, bounds=(-0.3, 0.7))
        assert ladder.values[0, 0] == -0.3
        assert ladder.values[0, 64] == 0.7

    def test_out_of_range(self):
        ladder = build_ladder(2, 9, action_dim=1)
        with pytest.raises(IndexError):
            ladder.values[0, 9]
        with pytest.raises(IndexError):
            ladder.values[1, 0]
        with pytest.raises(ValueError):  # the cached grid is shared, so read-only
            ladder.values[0, 0] = 0.0


class TestActiveMask:
    def test_three_of_nine(self):
        ladder, _ = grow(build_ladder(2, 9, action_dim=2))  # level 1 -> 3 bins
        assert active_indices(ladder).tolist() == [0, 4, 8]
        assert decode(ladder, [4, 8]).tolist() == [0.0, 1.0]  # same bins in every dim

    def test_full_resolution_all_active(self):
        ladder = build_ladder(2, 9, action_dim=1)
        while not ladder.at_max:
            ladder, _ = grow(ladder)
        assert active_indices(ladder).tolist() == list(range(9))

    def test_two_of_five(self):
        ladder = build_ladder(2, 5, action_dim=1)
        assert active_indices(ladder).tolist() == [0, 4]

    def test_three_of_five(self):
        ladder, _ = grow(build_ladder(2, 5, action_dim=1))
        assert active_indices(ladder).tolist() == [0, 2, 4]

    def test_active_count_matches_level(self):
        ladder = build_ladder(2, 9, action_dim=3)
        while True:
            assert len(active_indices(ladder)) == ladder.active_bins
            ladder, grew = grow(ladder)
            if not grew:
                break


class TestGrow:
    def test_grow_advances(self):
        ladder = build_ladder(2, 9, action_dim=1)
        grown, grew = grow(ladder)
        assert grew and grown.active_bins == 3
        assert ladder.active_bins == 2  # original snapshot untouched

    def test_idempotent_at_max(self):
        ladder = build_ladder(2, 2, action_dim=1)
        same, grew = grow(ladder)
        assert not grew and same == ladder

    def test_masks_nest_across_growth(self):
        ladder = build_ladder(2, 9, action_dim=1)
        previous = set(active_indices(ladder).tolist())
        while True:
            ladder, grew = grow(ladder)
            if not grew:
                break
            current = set(active_indices(ladder).tolist())
            assert previous <= current
            previous = current


class TestDecode:
    def test_endpoints(self):
        ladder = build_ladder(9, 9, action_dim=2)
        assert decode(ladder, [0, 8]).tolist() == [-1.0, 1.0]

    def test_midpoint(self):
        ladder = build_ladder(9, 9, action_dim=2)
        assert decode(ladder, [4, 4]).tolist() == [0.0, 0.0]

    def test_masked_index_rejected(self):
        ladder, _ = grow(build_ladder(2, 9, action_dim=1))  # 3 active: {0, 4, 8}
        with pytest.raises(MaskViolationError):
            decode(ladder, [1])

    def test_out_of_range_rejected(self):
        ladder = build_ladder(2, 9, action_dim=1)
        with pytest.raises(MaskViolationError):
            decode(ladder, [9])
        with pytest.raises(MaskViolationError):
            decode(ladder, [-1])

    def test_wrong_arity_rejected(self):
        ladder = build_ladder(2, 9, action_dim=2)
        with pytest.raises(MaskViolationError):
            decode(ladder, [0])

    def test_result_within_bounds(self):
        ladder = build_ladder(2, 9, action_dim=2, bounds=(-0.5, 0.25))
        while True:
            for idx in active_indices(ladder):
                action = decode(ladder, [idx, idx])
                assert np.all(action >= -0.5) and np.all(action <= 0.25)
            ladder, grew = grow(ladder)
            if not grew:
                break


class TestNestingInvariants:
    def test_values_nest_exactly(self):
        ladder = build_ladder(2, 65, action_dim=1)
        grid = ladder.values[0]
        previous = {grid[i] for i in active_indices(ladder)}
        while True:
            ladder, grew = grow(ladder)
            if not grew:
                break
            current = {grid[i] for i in active_indices(ladder)}
            assert previous <= current  # exact float equality via shared indices
            previous = current

    def test_active_bins_never_decrease(self):
        ladder = build_ladder(2, 9, action_dim=1)
        counts = [ladder.active_bins]
        while True:
            ladder, grew = grow(ladder)
            if not grew:
                break
            counts.append(ladder.active_bins)
        assert counts == sorted(counts)

    def test_mask_safety_fuzz(self):
        rng = np.random.default_rng(0)
        ladder = build_ladder(2, 9, action_dim=2)
        while True:
            allowed = set(active_indices(ladder).tolist())
            for _ in range(200):
                idx = rng.integers(0, ladder.full_bins, size=2)
                should_pass = all(int(i) in allowed for i in idx)
                if should_pass:
                    decode(ladder, idx)
                else:
                    with pytest.raises(MaskViolationError):
                        decode(ladder, idx)
            ladder, grew = grow(ladder)
            if not grew:
                break
