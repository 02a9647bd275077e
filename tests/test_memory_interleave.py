"""Address interleaving and the (D4) contiguity analysis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError, ConfigurationError
from repro.memory import (
    HOST_INTERLEAVE,
    MODULE_LOCAL_INTERLEAVE,
    InterleaveScheme,
    accelerator_visible_fraction,
    streaming_bandwidth_fraction,
)


class TestSchemeValidation:
    def test_channels_must_be_pow2(self):
        with pytest.raises(ConfigurationError):
            InterleaveScheme(num_channels=6, granule_bytes=256)

    def test_granule_must_be_pow2(self):
        with pytest.raises(ConfigurationError):
            InterleaveScheme(num_channels=4, granule_bytes=100)

    def test_negative_address_rejected(self):
        with pytest.raises(AddressError):
            HOST_INTERLEAVE.channel_of(-1)


class TestMapping:
    def test_channels_rotate_every_granule(self):
        scheme = InterleaveScheme(num_channels=4, granule_bytes=64)
        assert [scheme.channel_of(i * 64) for i in range(5)] == \
            [0, 1, 2, 3, 0]

    def test_local_offset_compacts_channel_space(self):
        scheme = InterleaveScheme(num_channels=4, granule_bytes=64)
        # Second granule on channel 0 (global addr 256) lands at local 64.
        assert scheme.local_offset(256) == 64
        assert scheme.local_offset(256 + 10) == 74

    def test_channel_slices_partition_region(self):
        scheme = InterleaveScheme(num_channels=8, granule_bytes=256)
        slices = scheme.channel_slices(base=128, length=10_000)
        total = sum(size for per_ch in slices for _, size in per_ch)
        assert total == 10_000

    @settings(max_examples=30, deadline=None)
    @given(base=st.integers(0, 1 << 20), length=st.integers(1, 1 << 16),
           channels=st.sampled_from([2, 4, 8]),
           granule=st.sampled_from([64, 256, 4096]))
    def test_partition_property(self, base, length, channels, granule):
        """Every byte of a region lands in exactly one channel slice."""
        scheme = InterleaveScheme(num_channels=channels,
                                  granule_bytes=granule)
        per_channel = [scheme.bytes_in_channel(base, length, ch)
                       for ch in range(channels)]
        assert sum(per_channel) == length


class TestD4Analysis:
    def test_host_interleave_shatters_large_regions(self):
        """D4: a bank/DIMM-local accelerator sees ~1/N of a big region."""
        region = 64 * 2**20
        frac = accelerator_visible_fraction(HOST_INTERLEAVE, 0, region, 0)
        assert frac == pytest.approx(1.0 / HOST_INTERLEAVE.num_channels,
                                     rel=0.01)

    def test_max_contiguous_fragment_is_one_granule(self):
        frag = HOST_INTERLEAVE.max_contiguous_fragment(0, 1 << 20)
        assert frag == HOST_INTERLEAVE.granule_bytes

    def test_module_local_interleave_streams_at_full_bandwidth(self):
        """The CXL controller's own interleaving restores full-module
        streaming for large regions (the resolution of D4)."""
        region = 512 * 2**20
        frac = streaming_bandwidth_fraction(MODULE_LOCAL_INTERLEAVE, 0,
                                            region)
        assert frac > 0.99

    def test_small_region_limited_to_touched_channels(self):
        scheme = InterleaveScheme(num_channels=8, granule_bytes=4096)
        # One granule touches one channel: 1/8 of aggregate bandwidth.
        frac = streaming_bandwidth_fraction(scheme, 0, 4096)
        assert frac == pytest.approx(1.0 / 8)

    def test_empty_region_rejected(self):
        with pytest.raises(AddressError):
            streaming_bandwidth_fraction(HOST_INTERLEAVE, 0, 0)

    def test_bad_channel_rejected(self):
        with pytest.raises(AddressError):
            HOST_INTERLEAVE.bytes_in_channel(0, 100, 99)


SCHEMES = [HOST_INTERLEAVE, MODULE_LOCAL_INTERLEAVE,
           InterleaveScheme(num_channels=1, granule_bytes=1),
           InterleaveScheme(num_channels=2, granule_bytes=8),
           InterleaveScheme(num_channels=4, granule_bytes=2),
           InterleaveScheme(num_channels=8, granule_bytes=16)]


class TestBytesInChannelClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), data=st.data())
    def test_matches_channel_slices(self, scheme, data):
        rotation = scheme.num_channels * scheme.granule_bytes
        base = data.draw(st.integers(0, 4 * rotation), label="base")
        length = data.draw(st.integers(0, 6 * rotation + 3),
                           label="length")
        channel = data.draw(st.integers(0, scheme.num_channels - 1),
                            label="channel")
        expected = sum(size for _, size in
                       scheme.channel_slices(base, length)[channel])
        assert scheme.bytes_in_channel(base, length, channel) == expected

    def test_errors_match_the_walk(self):
        with pytest.raises(AddressError, match="out of range"):
            HOST_INTERLEAVE.bytes_in_channel(0, 64, 8)
        with pytest.raises(AddressError, match="negative region length"):
            HOST_INTERLEAVE.bytes_in_channel(0, -1, 0)
        with pytest.raises(AddressError, match="negative address"):
            HOST_INTERLEAVE.bytes_in_channel(-1, 64, 0)
        assert HOST_INTERLEAVE.bytes_in_channel(-1, 0, 0) == 0
