"""Address-interleaving schemes and the contiguity analysis behind (D4).

Paper §V-A (D4): host CPUs interleave physical addresses across channels,
DIMMs, and banks for memory-level parallelism, which shatters a contiguous
region into per-channel fragments — crippling a DIMM- or bank-local PIM/PNM
accelerator that can only reach its own slice.  A CXL module's controller,
by contrast, owns *all* packages behind one device and applies its own
local interleaving, so the accelerator sees the whole region at full module
bandwidth while the host still sees one contiguous NUMA range.

This module implements bit-sliced interleave mappings and functions that
quantify both effects: the fragment size visible to a fixed-channel
accelerator, and the aggregate bandwidth a region's access can draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import AddressError, ConfigurationError


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class InterleaveScheme:
    """Bit-sliced physical-address interleaving.

    Addresses are split as ``| upper | channel bits | granule offset |``:
    consecutive ``granule_bytes`` runs rotate across ``num_channels``.

    Attributes:
        num_channels: Interleave ways (host channels, or module-local
            LPDDR channels).
        granule_bytes: Bytes mapped to one channel before rotating
            (host systems use 64-256 B; module controllers use larger).
    """

    num_channels: int
    granule_bytes: int

    def __post_init__(self) -> None:
        if not _is_pow2(self.num_channels):
            raise ConfigurationError(
                f"num_channels={self.num_channels} must be a power of two")
        if not _is_pow2(self.granule_bytes):
            raise ConfigurationError(
                f"granule_bytes={self.granule_bytes} must be a power of two")

    def channel_of(self, addr: int) -> int:
        """Channel that owns physical address ``addr``."""
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        return (addr // self.granule_bytes) % self.num_channels

    def local_offset(self, addr: int) -> int:
        """Offset of ``addr`` within its channel's linear space."""
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        granule_idx = addr // self.granule_bytes
        return ((granule_idx // self.num_channels) * self.granule_bytes
                + addr % self.granule_bytes)

    def channel_slices(self, base: int, length: int
                       ) -> List[List[Tuple[int, int]]]:
        """Per-channel (offset, size) fragments of region [base, base+length).

        Fragments are granule-aligned pieces; the list index is the channel.
        """
        if length < 0:
            raise AddressError("negative region length")
        slices: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.num_channels)]
        addr = base
        end = base + length
        while addr < end:
            granule_end = (addr // self.granule_bytes + 1) * self.granule_bytes
            piece = min(end, granule_end) - addr
            slices[self.channel_of(addr)].append(
                (self.local_offset(addr), piece))
            addr += piece
        return slices

    def bytes_in_channel(self, base: int, length: int, channel: int) -> int:
        """Bytes of the region that land in one channel.

        Closed form, equal to summing the channel's
        :meth:`channel_slices`: below address ``x`` the channel owns
        ``G`` bytes of every full ``G * C`` rotation plus its share of
        the partial one, and the region is the difference at its ends.
        """
        if not 0 <= channel < self.num_channels:
            raise AddressError(f"channel {channel} out of range")
        if length < 0:
            raise AddressError("negative region length")
        if length and base < 0:
            raise AddressError(f"negative address {base:#x}")
        granule = self.granule_bytes
        rotation = granule * self.num_channels
        first = channel * granule

        def below(x: int) -> int:
            full, rest = divmod(x, rotation)
            return full * granule + min(max(rest - first, 0), granule)

        return below(base + length) - below(base)

    def max_contiguous_fragment(self, base: int, length: int) -> int:
        """Largest contiguous run a single-channel accelerator can see.

        For a region much larger than one granule this is just the granule
        size — the quantitative core of disadvantage (D4).
        """
        best = 0
        for fragments in self.channel_slices(base, length):
            for _, size in fragments:
                best = max(best, size)
        return best


#: A typical host-side mapping: 8 channels, 256 B granule.
HOST_INTERLEAVE = InterleaveScheme(num_channels=8, granule_bytes=256)

#: The CXL-PNM controller's module-local mapping across its 64 LPDDR5X
#: channels (8 packages x 8 channels), large granule for streaming.
MODULE_LOCAL_INTERLEAVE = InterleaveScheme(num_channels=64,
                                           granule_bytes=4096)


def accelerator_visible_fraction(scheme: InterleaveScheme, base: int,
                                 length: int, channel: int) -> float:
    """Fraction of a region reachable by an accelerator pinned to a channel.

    Models a DIMM-PNM or bank-level PIM device under host interleaving:
    AxDIMM behind one of N host channels sees roughly ``1/N`` of any large
    region (D4).  A CXL-PNM accelerator sits *behind* the controller that
    performs the interleaving, so its visible fraction is 1.0 by
    construction (it issues through all module channels).
    """
    if length <= 0:
        raise AddressError("region must be non-empty")
    return scheme.bytes_in_channel(base, length, channel) / length


def streaming_bandwidth_fraction(scheme: InterleaveScheme, base: int,
                                 length: int) -> float:
    """Fraction of aggregate channel bandwidth a linear scan can draw.

    A region spanning all channels in balance streams at full aggregate
    bandwidth; a region smaller than one rotation is limited to the
    channels it touches.
    """
    if length <= 0:
        raise AddressError("region must be non-empty")
    per_channel = [scheme.bytes_in_channel(base, length, ch)
                   for ch in range(scheme.num_channels)]
    busiest = max(per_channel)
    if busiest == 0:
        return 0.0
    # Scan time is set by the busiest channel; fraction of ideal follows.
    ideal_time = length / scheme.num_channels
    return ideal_time / busiest
