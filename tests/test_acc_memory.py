"""Device memory: allocation, addressing, tensor round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.accelerator import ALIGNMENT, DeviceMemory
from repro.errors import AddressError, AllocationError
from repro.units import KiB, MiB


class TestAllocation:
    def test_regions_aligned(self, device_memory):
        a = device_memory.alloc("a", 100)
        b = device_memory.alloc("b", 100)
        assert a.addr % ALIGNMENT == 0
        assert b.addr % ALIGNMENT == 0
        assert b.addr >= a.end

    def test_duplicate_name_rejected(self, device_memory):
        device_memory.alloc("x", 64)
        with pytest.raises(AllocationError):
            device_memory.alloc("x", 64)

    def test_overflow_rejected(self):
        mem = DeviceMemory(1 * KiB)
        with pytest.raises(AllocationError):
            mem.alloc("big", 2 * KiB)

    def test_zero_size_rejected(self, device_memory):
        with pytest.raises(AllocationError):
            device_memory.alloc("z", 0)

    def test_region_lookup(self, device_memory):
        region = device_memory.alloc("named", 128)
        assert device_memory.region("named") == region
        with pytest.raises(AddressError):
            device_memory.region("missing")

    def test_capacity_must_be_positive(self):
        with pytest.raises(AllocationError):
            DeviceMemory(0)


class TestTensorIO:
    def test_roundtrip(self, device_memory):
        data = np.arange(24, dtype=np.float32).reshape(4, 6)
        region = device_memory.store_named("t", data)
        np.testing.assert_array_equal(
            device_memory.read_tensor(region.addr, (4, 6)), data)

    def test_read_returns_copy(self, device_memory):
        data = np.ones((2, 2), dtype=np.float32)
        region = device_memory.store_named("t", data)
        out = device_memory.read_tensor(region.addr, (2, 2))
        out[0, 0] = 99.0
        again = device_memory.read_tensor(region.addr, (2, 2))
        assert again[0, 0] == 1.0

    def test_view_shares_device_memory(self, device_memory):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        region = device_memory.store_named("t", data)
        view = device_memory.view_tensor(region.addr, (2, 3))
        assert view.dtype == np.float32
        assert np.shares_memory(view, device_memory._buffer)
        np.testing.assert_array_equal(view, data)
        device_memory.write_tensor(region.addr, data * 2)
        np.testing.assert_array_equal(view, data * 2)

    def test_view_is_read_only(self, device_memory):
        region = device_memory.store_named(
            "t", np.ones(4, dtype=np.float32))
        view = device_memory.view_tensor(region.addr, (4,))
        with pytest.raises(ValueError):
            view[0] = 5.0
        assert device_memory.read_tensor(region.addr, (4,))[0] == 1.0

    def test_out_of_range_view(self, device_memory):
        with pytest.raises(AddressError):
            device_memory.view_tensor(device_memory.capacity - 4, (4,))

    def test_write_casts_to_float32(self, device_memory):
        region = device_memory.alloc_tensor("t", (3,))
        device_memory.write_tensor(region.addr,
                                   np.array([1, 2, 3], dtype=np.int64))
        out = device_memory.read_tensor(region.addr, (3,))
        assert out.dtype == np.float32

    def test_out_of_range_read(self, device_memory):
        with pytest.raises(AddressError):
            device_memory.read_tensor(device_memory.capacity - 4, (4,))

    def test_row_access_matches_full_read(self, device_memory):
        table = np.random.default_rng(0).standard_normal((10, 8)).astype(
            np.float32)
        region = device_memory.store_named("table", table)
        np.testing.assert_array_equal(
            device_memory.read_row(region.addr, 3, 8), table[3])

    def test_negative_row_rejected(self, device_memory):
        region = device_memory.store_named(
            "t2", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(AddressError):
            device_memory.read_row(region.addr, -1, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1,
                    max_size=64))
    def test_roundtrip_property(self, values):
        mem = DeviceMemory(1 * MiB)
        data = np.array(values, dtype=np.float32)
        region = mem.store_named("v", data)
        np.testing.assert_array_equal(mem.read_tensor(region.addr,
                                                      data.shape), data)
