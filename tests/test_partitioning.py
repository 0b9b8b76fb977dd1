"""Tests for the partition space and ND-range splitting."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning import (
    DEFAULT_STEP_PERCENT,
    Partitioning,
    neighborhood,
    partition_space,
    split_items,
)


class TestPartitioning:
    def test_shares_must_sum_to_100(self):
        with pytest.raises(ValueError):
            Partitioning((50, 40))

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            Partitioning((-10, 110, 0))

    def test_share_above_100_rejected(self):
        with pytest.raises(ValueError):
            Partitioning((110, -10, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Partitioning(())

    def test_single_device(self):
        p = Partitioning.single_device(1, 3)
        assert p.shares == (0, 100, 0)
        assert p.active_devices == (1,)

    def test_single_device_out_of_range(self):
        with pytest.raises(ValueError):
            Partitioning.single_device(3, 3)

    def test_even_three_devices(self):
        p = Partitioning.even(3)
        assert sum(p.shares) == 100
        assert max(p.shares) - min(p.shares) <= DEFAULT_STEP_PERCENT

    def test_even_two_devices(self):
        assert Partitioning.even(2).shares == (50, 50)

    def test_even_rejects_step_not_dividing_100(self):
        # Regression: even(2, step=30) used to overshoot the 100% sum
        # and die with a confusing "shares must sum to 100" from
        # __post_init__; the step is now validated up front.
        with pytest.raises(ValueError, match="step"):
            Partitioning.even(2, step=30)
        with pytest.raises(ValueError, match="step"):
            Partitioning.even(3, step=0)
        with pytest.raises(ValueError, match="step"):
            Partitioning.even(3, step=150)

    def test_even_rejects_nonpositive_device_count(self):
        with pytest.raises(ValueError, match="num_devices"):
            Partitioning.even(0)

    def test_even_coarse_steps_terminate_on_grid(self):
        assert Partitioning.even(3, step=50).shares == (50, 50, 0)
        assert Partitioning.even(4, step=20).shares == (40, 20, 20, 20)
        assert Partitioning.even(2, step=100).shares == (100, 0)

    @given(
        num_devices=st.integers(min_value=1, max_value=8),
        step=st.sampled_from([1, 2, 4, 5, 10, 20, 25, 50, 100]),
    )
    @settings(max_examples=100)
    def test_even_always_sums_to_100_on_grid(self, num_devices, step):
        p = Partitioning.even(num_devices, step=step)
        assert sum(p.shares) == 100
        assert all(s % step == 0 for s in p.shares)
        assert max(p.shares) - min(p.shares) <= step

    def test_fraction(self):
        p = Partitioning((70, 20, 10))
        assert p.fraction(0) == pytest.approx(0.7)
        assert p.fraction(2) == pytest.approx(0.1)

    def test_label_round_trip(self):
        p = Partitioning((50, 30, 20))
        assert Partitioning.from_label(p.label) == p
        assert str(p) == "50/30/20"

    def test_active_devices(self):
        assert Partitioning((0, 100, 0)).active_devices == (1,)
        assert Partitioning((10, 0, 90)).active_devices == (0, 2)

    def test_ordering_is_stable(self):
        assert Partitioning((0, 0, 100)) < Partitioning((100, 0, 0))


class TestDerivedAttributeMemo:
    """``label`` and ``active_devices`` are memoized, never fields."""

    @staticmethod
    def _read(shares):
        p = Partitioning(shares)
        assert p.label == "/".join(map(str, shares))
        assert p.active_devices == tuple(i for i, s in enumerate(shares) if s)
        return p

    @pytest.mark.parametrize("shares", [(50, 30, 20), (0, 100, 0), (10, 0, 90)])
    def test_memo_does_not_leak(self, shares):
        read, fresh = self._read(shares), Partitioning(shares)
        assert read == fresh
        assert hash(read) == hash(fresh)
        assert read <= fresh and read >= fresh
        assert not read < fresh and not read > fresh
        assert repr(read) == repr(fresh) == f"Partitioning(shares={shares!r})"
        assert dataclasses.asdict(read) == dataclasses.asdict(fresh)
        assert dataclasses.asdict(read) == {"shares": shares}
        assert dataclasses.astuple(read) == (shares,)
        assert dataclasses.replace(read) == dataclasses.replace(fresh) == fresh
        assert [f.name for f in dataclasses.fields(read)] == ["shares"]

    def test_ordering_and_sets_ignore_the_memo(self):
        space = partition_space(3, 10)
        read = [self._read(p.shares) for p in reversed(space)]
        fresh = [Partitioning(p.shares) for p in reversed(space)]
        assert sorted(read) == sorted(fresh) == list(space)
        assert set(read) == set(fresh)

    def test_replace_recomputes_for_new_shares(self):
        read = self._read((50, 30, 20))
        moved = dataclasses.replace(read, shares=(0, 100, 0))
        assert moved.label == "0/100/0"
        assert moved.active_devices == (1,)

    def test_memo_cannot_be_assigned(self):
        read = self._read((50, 30, 20))
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.label = "0/100/0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.active_devices = (1,)
        assert read.label == "50/30/20"


class TestPartitionSpace:
    def test_three_devices_ten_percent_has_66_points(self):
        # C(12, 2) = 66: the paper's discretized space.
        assert len(partition_space(3, 10)) == 66

    def test_two_devices_ten_percent_has_11_points(self):
        assert len(partition_space(2, 10)) == 11

    def test_one_device(self):
        space = partition_space(1, 10)
        assert space == (Partitioning((100,)),)

    def test_includes_single_device_corners(self):
        space = partition_space(3, 10)
        for i in range(3):
            assert Partitioning.single_device(i, 3) in space

    def test_all_points_unique_and_valid(self):
        space = partition_space(3, 10)
        assert len(set(space)) == len(space)
        for p in space:
            assert sum(p.shares) == 100
            assert all(s % 10 == 0 for s in p.shares)

    def test_coarser_step_is_subset(self):
        fine = set(partition_space(3, 10))
        coarse = set(partition_space(3, 20))
        assert coarse <= fine

    def test_step_25(self):
        # C(4+2, 2) = 15 compositions of 4 quarters over 3 devices.
        assert len(partition_space(3, 25)) == 15

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            partition_space(3, 7)

    def test_zero_devices_rejected(self):
        with pytest.raises(ValueError):
            partition_space(0, 10)

    def test_deterministic_order(self):
        assert partition_space(3, 10) == partition_space(3, 10)


class TestSplitItems:
    def test_exact_cover_simple(self):
        chunks = split_items(100, Partitioning((50, 30, 20)))
        assert chunks == ((0, 50), (50, 30), (80, 20))

    def test_zero_share_gets_zero_items(self):
        chunks = split_items(1000, Partitioning((100, 0, 0)), granularity=8)
        assert chunks[0] == (0, 1000)
        assert chunks[1][1] == 0 and chunks[2][1] == 0

    def test_remainder_goes_to_last_active(self):
        chunks = split_items(7, Partitioning((0, 50, 50)), granularity=4)
        assert sum(c for _, c in chunks) == 7
        assert chunks[0][1] == 0

    def test_granularity_alignment(self):
        chunks = split_items(1024, Partitioning((30, 30, 40)), granularity=64)
        # All boundaries except the final end must be multiples of 64.
        for off, cnt in chunks[:-1]:
            assert off % 64 == 0
        assert sum(c for _, c in chunks) == 1024

    def test_zero_items(self):
        chunks = split_items(0, Partitioning((50, 50, 0)))
        assert all(c == 0 for _, c in chunks)

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            split_items(-1, Partitioning((100, 0, 0)))

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            split_items(10, Partitioning((100, 0, 0)), granularity=0)

    @given(
        total=st.integers(min_value=0, max_value=100_000),
        shares_idx=st.integers(min_value=0, max_value=65),
        granularity=st.sampled_from([1, 2, 8, 16, 64, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_disjoint_exact_cover(self, total, shares_idx, granularity):
        """Chunks are contiguous, disjoint and cover the range exactly."""
        space = partition_space(3, 10)
        p = space[shares_idx]
        chunks = split_items(total, p, granularity)
        cursor = 0
        for off, cnt in chunks:
            assert cnt >= 0
            assert off == cursor
            cursor += cnt
        assert cursor == total

    @given(
        total=st.integers(min_value=1, max_value=50_000),
        shares_idx=st.integers(min_value=0, max_value=65),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_share_proportionality(self, total, shares_idx):
        """Without granularity pressure, counts track shares closely."""
        p = partition_space(3, 10)[shares_idx]
        chunks = split_items(total, p, granularity=1)
        for i, (off, cnt) in enumerate(chunks):
            ideal = total * p.shares[i] / 100
            assert abs(cnt - ideal) <= 2.0

    @given(total=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_property_single_device_takes_all(self, total):
        for i in range(3):
            chunks = split_items(total, Partitioning.single_device(i, 3))
            assert chunks[i][1] == total


class TestSplitItemsGranuleHandout:
    """Regressions for the granule hand-out under skewed shares.

    The old hand-out gave the first zero-count active device *all*
    remaining whole granules at once, starving the other active devices
    even when several granules were available.
    """

    def test_two_leftover_granules_reach_two_devices(self):
        # ideal = [51.2, 38.4, 38.4]; two whole 64-granules remain after
        # flooring and must go to the two largest remainders — not both
        # to device 0.
        chunks = split_items(128, Partitioning((40, 30, 30)), granularity=64)
        assert chunks == ((0, 64), (64, 64), (128, 0))

    def test_zero_count_device_takes_one_granule_not_all(self):
        # ideal = [76.8, 57.6, 57.6] → counts [64, 0, 0], leftover 128.
        # Device 1 (largest remainder, zero count) must take one granule
        # and leave the second to device 2.
        chunks = split_items(192, Partitioning((40, 30, 30)), granularity=64)
        assert chunks == ((0, 64), (64, 64), (128, 64))

    def test_skewed_share_keeps_majority_device_on_top(self):
        chunks = split_items(128, Partitioning((30, 30, 40)), granularity=64)
        counts = [c for _, c in chunks]
        assert sum(counts) == 128
        assert counts[2] == 64  # largest share keeps its granule
        assert max(counts) == 64  # nobody hogs both granules

    @given(
        total=st.integers(min_value=0, max_value=100_000),
        shares_idx=st.integers(min_value=0, max_value=65),
        granularity=st.sampled_from([16, 64, 256, 1024]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_no_device_exceeds_ideal_by_a_spare_granule(
        self, total, shares_idx, granularity
    ):
        """Every non-final device stays within one granule of its ideal
        share; the last active device may additionally absorb the
        sub-granule remainder."""
        p = partition_space(3, 10)[shares_idx]
        chunks = split_items(total, p, granularity)
        last_active = p.active_devices[-1]
        for i, (_off, cnt) in enumerate(chunks):
            ideal = total * p.shares[i] / 100.0
            slack = 2 * granularity if i == last_active else granularity
            assert cnt < ideal + slack, (p.label, total, granularity, i)

    @given(
        total=st.integers(min_value=0, max_value=100_000),
        shares_idx=st.integers(min_value=0, max_value=65),
        granularity=st.sampled_from([1, 16, 64, 256]),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_active_devices_share_whole_granules(
        self, total, shares_idx, granularity
    ):
        """While whole granules remain unassigned, no active device may
        hold two spare granules (the starvation symptom)."""
        p = partition_space(3, 10)[shares_idx]
        chunks = split_items(total, p, granularity)
        zero_count_active = [
            i
            for i in p.active_devices
            if chunks[i][1] == 0 and i != p.active_devices[-1]
        ]
        for i in zero_count_active:
            floor_granules = int(total * p.shares[i] / 100.0) // granularity
            # A starved device is only acceptable when its ideal share
            # did not reach a whole granule by itself.
            assert floor_granules == 0, (p.label, total, granularity, i)


class TestNeighborhood:
    def test_moves_one_step_between_device_pairs(self):
        n = neighborhood(Partitioning((50, 30, 20)), 10)
        assert Partitioning((40, 40, 20)) in n
        assert Partitioning((60, 20, 20)) in n
        assert Partitioning((50, 20, 30)) in n
        assert len(n) == 6  # all ordered pairs are feasible here

    def test_respects_bounds(self):
        n = neighborhood(Partitioning((100, 0, 0)), 10)
        # Only moves away from the full device are possible.
        assert n == (Partitioning((90, 0, 10)), Partitioning((90, 10, 0)))

    def test_neighbours_are_valid_grid_points(self):
        space = set(partition_space(3, 10))
        for p in partition_space(3, 10):
            for q in neighborhood(p, 10):
                assert q in space
                assert q != p

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            neighborhood(Partitioning((100, 0, 0)), 0)

    def test_single_device_frontier_is_the_point_itself(self):
        # Regression: a 1-device machine has nowhere to move a step, and
        # the frontier used to come back empty — the adaptation path
        # would then min() over nothing.  The degenerate frontier is the
        # input point, never ().
        assert neighborhood(Partitioning((100,)), 10) == (Partitioning((100,)),)

    def test_blocked_moves_return_the_point_not_empty(self):
        # A step too coarse to move (no device holds >= step) also
        # degenerates to the input point.
        p = Partitioning((50, 50))
        assert neighborhood(p, 60) == (p,)

    def test_adaptation_consumes_degenerate_frontier(self, monkeypatch):
        # The serving-side consumer: _adapt must still pick a winner
        # (the predicted point itself) instead of crashing on min(()).
        from repro.benchsuite import get_benchmark
        from repro.core import TrainingConfig, train_system
        from repro.machines import MC2
        from repro.serving import PartitioningService, ServiceConfig, ServingRequest

        system = train_system(
            MC2,
            (get_benchmark("vec_add"),),
            config=TrainingConfig(repetitions=1, max_sizes=1),
        )
        # A 100% step cannot move anything off a mixed split, so the
        # frontier degenerates; cold keys are validated, so the
        # degenerate local search runs on the very first request.
        import repro.serving.service as service_module

        monkeypatch.setattr(service_module, "DEFAULT_STEP_PERCENT", 100)
        service = PartitioningService(
            system, ServiceConfig(validate_cold_keys=True)
        )
        mixed = Partitioning((40, 30, 30))
        service.system.predictor.predict_features = lambda _features: mixed
        size = get_benchmark("vec_add").problem_sizes()[0]
        response = service.submit(ServingRequest(0, "vec_add", size))
        assert response.measured_s > 0.0
        # The bad prediction regressed against the trained estimate, so
        # the local search DID run — and its only candidate was the
        # predicted point itself, which it must survive, not crash on.
        assert service.stats.regressions == 1
        assert response.partitioning == mixed
        assert not response.adapted
