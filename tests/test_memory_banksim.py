"""Trace-driven bank simulator: hit rates, balance, pattern validation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.memory import MODULE_LOCAL_INTERLEAVE, SEQUENTIAL_STREAM
from repro.memory.banksim import (
    BankGeometry,
    BankSimulator,
    random_trace,
    sequential_trace,
    strided_trace,
)
from repro.memory.interleave import InterleaveScheme


@pytest.fixture(scope="module")
def sim():
    return BankSimulator(MODULE_LOCAL_INTERLEAVE)


class TestGeometry:
    def test_decode_rotates_banks_per_row(self):
        geo = BankGeometry(num_banks=4, row_bytes=1024)
        assert geo.decode(0) == (0, 0)
        assert geo.decode(1024) == (1, 0)
        assert geo.decode(4 * 1024) == (0, 1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BankGeometry(num_banks=0)
        with pytest.raises(ConfigurationError):
            BankGeometry(t_rc_cycles=0)


class TestTraces:
    def test_sequential_trace_shape(self):
        trace = sequential_trace(0, 1024, step=64)
        assert len(trace) == 16
        assert trace[1] - trace[0] == 64

    def test_trace_validation(self):
        with pytest.raises(ConfigurationError):
            sequential_trace(0, 0)
        with pytest.raises(ConfigurationError):
            strided_trace(0, 5, 0)
        with pytest.raises(ConfigurationError):
            random_trace(32, 10)


class TestStreamingBehaviour:
    def test_sequential_stream_is_page_friendly(self, sim):
        """Derives the analytical SEQUENTIAL_STREAM row-hit rate: a long
        weight stream hits the row buffer 31 times in 32 (one activate
        per 2 KiB row of 64 B accesses), 0.96875, which the constant's
        0.97 must match within 0.005 either way."""
        trace = sequential_trace(0, 8 << 20)
        result = sim.run(trace)
        assert abs(result.row_hit_rate - SEQUENTIAL_STREAM.row_hit_rate) \
            <= 0.005

    def test_sequential_stream_balances_channels(self, sim):
        result = sim.run(sequential_trace(0, 16 << 20))
        assert result.channel_balance() > 0.95

    def test_random_traffic_hits_less(self, sim):
        seq = sim.run(sequential_trace(0, 4 << 20))
        rand = sim.run(random_trace(1 << 30, 50_000, seed=1))
        assert rand.row_hit_rate < seq.row_hit_rate

    def test_pathological_stride_conflicts(self, sim):
        """A stride equal to (channels x banks x row) hammers one row
        position of one bank set -- near-zero hits."""
        geo = sim.geometry
        stride = sim.scheme.num_channels * sim.scheme.granule_bytes \
            * geo.num_banks
        result = sim.run(strided_trace(0, 2_000, stride))
        assert result.row_hit_rate < 0.2

    def test_cycles_track_hits(self, sim):
        seq = sim.run(sequential_trace(0, 4 << 20))
        rand = sim.run(random_trace(1 << 30, 50_000, seed=2))
        assert seq.cycles_per_access < rand.cycles_per_access

    @settings(max_examples=15, deadline=None)
    @given(base=st.integers(0, 1 << 24))
    def test_hit_rate_independent_of_base(self, base):
        sim = BankSimulator(InterleaveScheme(num_channels=8,
                                             granule_bytes=4096))
        result = sim.run(sequential_trace(base, 1 << 20))
        assert result.row_hit_rate > 0.9

    def test_empty_trace(self, sim):
        result = sim.run([])
        assert result.accesses == 0
        assert result.row_hit_rate == 0.0
        assert result.channel_balance() == 0.0
