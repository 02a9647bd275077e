"""Unit-conversion helpers."""

import pytest

from repro import units


def test_decimal_units_scale_by_thousand():
    assert units.KB * 1000 == units.MB
    assert units.MB * 1000 == units.GB
    assert units.GB * 1000 == units.TB


def test_binary_units_scale_by_1024():
    assert units.KiB * 1024 == units.MiB
    assert units.MiB * 1024 == units.GiB
    assert units.GiB * 1024 == units.TiB


def test_gib_larger_than_gb():
    assert units.GiB > units.GB


def test_gbps_to_bytes_per_s():
    assert units.gbps_to_bytes_per_s(8.0) == pytest.approx(1e9)


def test_bytes_to_gib_roundtrip():
    assert units.bytes_to_gib(units.GiB) == pytest.approx(1.0)
    assert units.bytes_to_gb(units.GB) == pytest.approx(1.0)


def test_bandwidth_formatting_helpers():
    assert units.bytes_per_s_to_gb_per_s(2.5e9) == pytest.approx(2.5)
    assert units.bytes_per_s_to_tb_per_s(1.1e12) == pytest.approx(1.1)


def test_joules_to_kwh():
    assert units.joules_to_kwh(units.KILOWATT_HOUR) == pytest.approx(1.0)
    assert units.joules_to_kwh(3.6e6 * 24) == pytest.approx(24.0)


def test_seconds_per_day():
    assert units.SECONDS_PER_DAY == 86_400.0


def test_si_prefixes_are_exact_ints():
    # Dimensionless scaling prefixes: exact integer powers of ten so
    # multiplying/dividing by them is bit-exact against the 1eN float
    # spellings they replace (10**3 == float(1e3) exactly).
    assert units.KILO == 10**3 == 1e3
    assert units.MEGA == 10**6 == 1e6
    assert units.GIGA == 10**9 == 1e9
    assert units.TERA == 10**12 == 1e12
    for value in (units.KILO, units.MEGA, units.GIGA, units.TERA):
        assert isinstance(value, int)


def test_decimal_byte_units_exact_values():
    assert units.KB == 10**3
    assert units.MB == 10**6
    assert units.GB == 10**9
    assert units.TB == 10**12


def test_binary_byte_units_exact_values():
    assert units.KiB == 2**10
    assert units.MiB == 2**20
    assert units.GiB == 2**30
    assert units.TiB == 2**40


def test_bit_rate_units():
    assert units.Kbps == 10**3
    assert units.Mbps == 10**6
    assert units.Gbps == 10**9


def test_time_constants_are_reciprocal_magnitudes():
    assert units.MILLISECOND == 1e-3
    assert units.MICROSECOND == 1e-6
    assert units.NANOSECOND == 1e-9
    # The pairs the dimensional lint normalizes through: scaling down
    # then up is exact for powers of ten within float range.
    assert units.NANOSECOND * units.GIGA == 1.0
    assert units.MICROSECOND * units.MEGA == 1.0
    assert units.MILLISECOND * units.KILO == 1.0


def test_frequency_units():
    assert units.MHZ == 10**6
    assert units.GHZ == 10**9


def test_power_energy_units():
    assert units.WATT == 1.0
    assert units.KILOWATT == 10**3
    assert units.JOULE == 1.0
    assert units.KILOWATT_HOUR == 3.6e6


def test_sub_second_conversions():
    assert units.ns_to_s(25.0) == pytest.approx(25e-9)
    assert units.us_to_s(3.0) == pytest.approx(3e-6)
    assert units.ms_to_s(7.0) == pytest.approx(7e-3)


def test_scaled_readout_conversions_are_exact():
    # s_to_* multiply by exact integer powers of ten, so they are
    # bit-identical to the `* 1eN` spellings they replaced.
    assert units.s_to_ns(2.5e-9) == 2.5e-9 * 1e9
    assert units.s_to_us(1.25e-3) == 1.25e-3 * 1e6
    assert units.s_to_ms(0.125) == 0.125 * 1e3


def test_sub_second_round_trips():
    assert units.s_to_ns(units.ns_to_s(123.0)) == pytest.approx(123.0)
    assert units.s_to_us(units.us_to_s(9.5)) == pytest.approx(9.5)
    assert units.s_to_ms(units.ms_to_s(42.0)) == pytest.approx(42.0)


def test_tokens_per_s():
    assert units.tokens_per_s(100.0, 4.0) == pytest.approx(25.0)
    assert units.tokens_per_s(0.0, 4.0) == 0.0


def test_tokens_per_s_idle_interval_is_zero():
    # Zero elapsed time reports zero rate, matching ContinuousBatchStats'
    # empty-window convention, instead of raising ZeroDivisionError.
    assert units.tokens_per_s(100.0, 0.0) == 0.0


def test_gbps_to_bytes_per_s_pin_rates():
    # LPDDR5X per-pin rate from the paper: 8.533 Gbit/s -> bytes/s.
    assert units.gbps_to_bytes_per_s(8.533) \
        == pytest.approx(8.533e9 / 8.0)
