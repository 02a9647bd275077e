"""Module power model and effective-bandwidth timing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.memory import (
    AccessPattern,
    ChannelTimingModel,
    SEQUENTIAL_STREAM,
    build_module,
    lpddr5x_module,
)


class TestPowerModel:
    def test_idle_power_is_background_only(self):
        model = lpddr5x_module().power_model
        assert model.power_watts(0.0) == pytest.approx(
            model.background_watts)

    def test_power_monotone_in_utilization(self):
        model = lpddr5x_module().power_model
        powers = [model.power_watts(u) for u in (0.0, 0.25, 0.5, 1.0)]
        assert powers == sorted(powers)

    def test_lpddr_module_near_40w_operating(self):
        # Table II: "DRAM total power ~40 W".
        model = lpddr5x_module().power_model
        assert model.reference_power_watts() == pytest.approx(40.0, rel=0.2)

    def test_bandwidth_beyond_peak_rejected(self):
        model = lpddr5x_module().power_model
        with pytest.raises(ConfigurationError):
            model.dynamic_watts(lpddr5x_module().peak_bandwidth * 1.5)

    def test_bad_utilization_rejected(self):
        with pytest.raises(ConfigurationError):
            lpddr5x_module().power_model.power_watts(1.5)

    def test_energy_combines_background_and_dynamic(self):
        module = lpddr5x_module()
        model = module.power_model
        energy = model.energy_joules(bytes_moved=1e9, elapsed_s=0.5)
        assert energy == pytest.approx(
            model.background_watts * 0.5
            + module.technology.access_energy_joules(1e9))

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ConfigurationError):
            lpddr5x_module().power_model.energy_joules(1.0, -1.0)


class TestTimingModel:
    def test_sequential_stream_near_peak(self):
        timing = ChannelTimingModel(lpddr5x_module())
        eff = timing.efficiency(SEQUENTIAL_STREAM)
        assert 0.90 < eff <= 1.0

    def test_pattern_ordering(self):
        """Shorter bursts, more row misses and mixed reads/writes each
        cost efficiency."""
        timing = ChannelTimingModel(lpddr5x_module())
        seq = timing.efficiency(SEQUENTIAL_STREAM)
        gather = timing.efficiency(AccessPattern(
            avg_burst_bytes=512, row_hit_rate=0.85, read_fraction=0.9))
        rand = timing.efficiency(AccessPattern(
            avg_burst_bytes=64, row_hit_rate=0.5, read_fraction=0.7))
        assert seq > gather > rand > 0.0

    def test_transfer_time_inverse_of_bandwidth(self):
        timing = ChannelTimingModel(lpddr5x_module())
        bw = timing.effective_bandwidth(SEQUENTIAL_STREAM)
        assert timing.transfer_time(bw, SEQUENTIAL_STREAM) \
            == pytest.approx(1.0)

    def test_negative_transfer_rejected(self):
        timing = ChannelTimingModel(lpddr5x_module())
        with pytest.raises(ConfigurationError):
            timing.transfer_time(-1, SEQUENTIAL_STREAM)

    def test_applies_to_all_technologies(self):
        for tech in ("DDR5", "GDDR6", "HBM3"):
            timing = ChannelTimingModel(build_module(tech))
            assert 0 < timing.efficiency(SEQUENTIAL_STREAM) <= 1.0

    @given(burst=st.floats(64, 1e6), hit=st.floats(0, 1),
           reads=st.floats(0, 1))
    def test_efficiency_always_in_unit_interval(self, burst, hit, reads):
        pattern = AccessPattern(avg_burst_bytes=burst, row_hit_rate=hit,
                                read_fraction=reads)
        timing = ChannelTimingModel(lpddr5x_module())
        assert 0.0 < timing.efficiency(pattern) <= 1.0


class TestAccessPatternValidation:
    def test_rejects_bad_burst(self):
        with pytest.raises(ConfigurationError):
            AccessPattern(avg_burst_bytes=0)

    def test_rejects_bad_hit_rate(self):
        with pytest.raises(ConfigurationError):
            AccessPattern(avg_burst_bytes=64, row_hit_rate=1.2)

    def test_rejects_bad_read_fraction(self):
        with pytest.raises(ConfigurationError):
            AccessPattern(avg_burst_bytes=64, read_fraction=-0.1)
