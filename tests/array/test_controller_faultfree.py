"""Fault-free striping driver behaviour: access counts and data flow.

The paper's driver issues exactly one access per user read and four
per user write (two pre-reads, two writes), three for G=3 stripes,
and G writes with no pre-reads for full-stripe aligned writes.
"""

import pytest

from repro.array.datastore import initial_data_pattern
from repro.layout.base import UnitAddress
from tests.conftest import build_array, total_disk_accesses


class TestReads:
    def test_read_costs_one_access(self, small_array):
        controller = small_array.controller
        small_array.run_op(controller.read(0))
        assert total_disk_accesses(controller) == 1
        assert controller.stats.by_path == {"read": 1}

    def test_read_returns_initial_pattern(self, small_array):
        controller = small_array.controller
        address = small_array.addressing.logical_unit_address(5)
        request = small_array.run_op(controller.read(5))
        assert request.read_values == [
            initial_data_pattern(address.disk, address.offset)
        ]

    def test_multi_unit_read(self, small_array):
        controller = small_array.controller
        request = small_array.run_op(controller.read(0, num_units=3))
        assert len(request.read_values) == 3
        assert total_disk_accesses(controller) == 3

    def test_out_of_range_rejected(self, small_array):
        controller = small_array.controller
        with pytest.raises(ValueError):
            controller.read(small_array.addressing.num_data_units)


class TestWrites:
    def test_write_costs_four_accesses(self, small_array):
        controller = small_array.controller
        small_array.run_op(controller.write(0, values=[0x1111]))
        assert total_disk_accesses(controller) == 4
        assert controller.stats.by_path == {"rmw-write": 1}

    def test_write_updates_data_and_parity(self, small_array):
        controller = small_array.controller
        layout = small_array.layout
        small_array.run_op(controller.write(0, values=[0x2222]))
        stripe = layout.stripe_of_logical(0)
        assert controller.datastore.stripe_is_consistent(stripe)
        request = small_array.run_op(controller.read(0))
        assert request.read_values == [0x2222]

    def test_write_read_write_read_sequence(self, small_array):
        controller = small_array.controller
        for value in (0xA, 0xB, 0xC):
            small_array.run_op(controller.write(7, values=[value]))
            request = small_array.run_op(controller.read(7))
            assert request.read_values == [value]

    def test_every_stripe_stays_consistent_under_random_writes(self, small_array):
        import random

        controller = small_array.controller
        rng = random.Random(5)
        for _ in range(50):
            unit = rng.randrange(small_array.addressing.num_data_units)
            small_array.run_op(controller.write(unit, values=[rng.getrandbits(64)]))
        for stripe in range(small_array.addressing.num_stripes):
            assert controller.datastore.stripe_is_consistent(stripe)


class TestSmallStripeOptimization:
    def test_g3_write_costs_three_accesses(self):
        array = build_array(stripe_size=3)
        controller = array.controller
        array.run_op(controller.write(0, values=[0x5555]))
        assert total_disk_accesses(controller) == 3
        assert controller.stats.by_path == {"small-stripe-write": 1}

    def test_g3_write_is_correct(self):
        array = build_array(stripe_size=3)
        controller = array.controller
        array.run_op(controller.write(0, values=[0x7777]))
        stripe = array.layout.stripe_of_logical(0)
        assert controller.datastore.stripe_is_consistent(stripe)
        request = array.run_op(controller.read(0))
        assert request.read_values == [0x7777]


class TestLargeWriteOptimization:
    def test_full_stripe_write_costs_g_accesses(self, small_array):
        controller = small_array.controller
        g_data = small_array.layout.data_units_per_stripe
        small_array.run_op(controller.write(0, values=[1, 2, 3][:g_data]))
        assert total_disk_accesses(controller) == small_array.layout.stripe_size
        assert controller.stats.by_path == {"large-write": 1}

    def test_full_stripe_write_is_correct(self, small_array):
        controller = small_array.controller
        small_array.run_op(controller.write(0, values=[10, 20, 30]))
        assert controller.datastore.stripe_is_consistent(0)
        request = small_array.run_op(controller.read(0, num_units=3))
        assert request.read_values == [10, 20, 30]

    def test_unaligned_write_falls_back_to_rmw(self, small_array):
        controller = small_array.controller
        small_array.run_op(controller.write(1, values=[5, 6, 7]))  # offset 1: unaligned
        assert "large-write" not in controller.stats.by_path
        assert controller.stats.by_path["rmw-write"] == 3

    def test_mixed_large_and_small_spans(self, small_array):
        controller = small_array.controller
        # Units 0..4: one aligned full stripe (0,1,2) + two RMWs (3,4).
        small_array.run_op(controller.write(0, values=[1, 2, 3, 4, 5]))
        assert controller.stats.by_path["large-write"] == 1
        assert controller.stats.by_path["rmw-write"] == 2
        request = small_array.run_op(controller.read(0, num_units=5))
        assert request.read_values == [1, 2, 3, 4, 5]


class TestAccounting:
    def test_user_counters(self, small_array):
        controller = small_array.controller
        small_array.run_op(controller.read(0))
        small_array.run_op(controller.write(1, values=[9]))
        assert controller.stats.user_reads == 1
        assert controller.stats.user_writes == 1

    def test_response_time_recorded(self, small_array):
        controller = small_array.controller
        request = small_array.run_op(controller.read(0))
        assert request.response_ms > 0
        assert request.complete_ms == small_array.env.now


class TestDiskAccessBounds:
    def test_offset_past_mapped_capacity_rejected(self, small_array):
        controller = small_array.controller
        mapped = small_array.addressing.mapped_units_per_disk
        for offset in (mapped, mapped + 1):
            with pytest.raises(ValueError, match="beyond mapped capacity"):
                controller._disk_access(UnitAddress(disk=0, offset=offset), is_write=False)
        assert total_disk_accesses(controller) == 0

    def test_last_mapped_offset_accepted(self, small_array):
        controller = small_array.controller
        addressing = small_array.addressing
        last = UnitAddress(disk=1, offset=addressing.mapped_units_per_disk - 1)
        request = small_array.run_op(controller._disk_access(last, is_write=True))
        assert request.start_sector == addressing.unit_to_sector(last)
        assert request.sector_count == addressing.sectors_per_unit
        assert request.is_write
