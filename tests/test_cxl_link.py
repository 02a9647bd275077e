"""CXL link model: bandwidth, flits, latency."""

import pytest

from repro.cxl import FLIT_PAYLOAD_BYTES, GEN5_X16, CXLLink
from repro.errors import ConfigurationError
from repro.units import GB


class TestBandwidth:
    def test_gen5_x16_raw_near_63_gb_s(self):
        assert GEN5_X16.raw_bandwidth / GB == pytest.approx(63.0, abs=1.0)

    def test_effective_below_raw(self):
        assert GEN5_X16.effective_bandwidth < GEN5_X16.raw_bandwidth

    def test_gen4_half_of_gen5(self):
        assert CXLLink(gt_per_s=16.0).raw_bandwidth == pytest.approx(
            GEN5_X16.raw_bandwidth / 2)

    def test_lane_scaling(self):
        x8 = CXLLink(lanes=8)
        assert x8.raw_bandwidth == pytest.approx(GEN5_X16.raw_bandwidth / 2)

    def test_invalid_lane_count(self):
        with pytest.raises(ConfigurationError):
            CXLLink(lanes=12)


class TestLatencyAndFlits:
    def test_read_latency_in_cxl_range(self):
        # Loaded CXL.mem reads measure ~150-400 ns in real systems.
        assert 100e-9 < GEN5_X16.read_latency_s < 500e-9

    def test_num_flits_rounds_up(self):
        assert GEN5_X16.num_flits(0) == 0
        assert GEN5_X16.num_flits(1) == 1
        assert GEN5_X16.num_flits(FLIT_PAYLOAD_BYTES) == 1
        assert GEN5_X16.num_flits(FLIT_PAYLOAD_BYTES + 1) == 2

    def test_negative_payload_rejected(self):
        from repro.errors import ProtocolError
        with pytest.raises(ProtocolError):
            GEN5_X16.num_flits(-1)


class TestTransferTime:
    def test_zero_bytes_is_free(self):
        assert GEN5_X16.transfer_time(0) == 0.0

    def test_pipelined_pays_latency_once(self):
        small = GEN5_X16.transfer_time(64)
        big = GEN5_X16.transfer_time(64 * 1000)
        assert big < 1000 * small

    def test_nonpipelined_pays_latency_per_line(self):
        pipelined = GEN5_X16.transfer_time(64 * 100, pipelined=True)
        dependent = GEN5_X16.transfer_time(64 * 100, pipelined=False)
        assert dependent > 10 * pipelined

    def test_large_transfer_approaches_effective_bandwidth(self):
        size = 1e9
        t = GEN5_X16.transfer_time(size)
        assert size / t == pytest.approx(GEN5_X16.effective_bandwidth,
                                         rel=0.01)

    def test_negative_transfer_rejected(self):
        with pytest.raises(ConfigurationError):
            GEN5_X16.transfer_time(-5)
