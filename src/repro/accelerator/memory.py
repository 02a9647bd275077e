"""Byte-addressed device memory with a region allocator.

This is the functional storage behind one CXL-PNM device: model parameters,
KV cache, and the accelerator's input/output buffers all live here, at real
byte addresses.  The functional executor reads and writes tensors through
these addresses, so address-arithmetic bugs (overlaps, misalignment) fail
loudly instead of silently — the point of simulating the memory rather than
passing numpy arrays around.

The parameters are a read-only *image* mapped at address 0
(:meth:`DeviceMemory.map_image`): one buffer, built once in the layout
:func:`pack_regions` gives, that every device holding the model maps
instead of copying.  Everything above the image (KV caches, I/O buffers)
is the device's own zeroed storage.  A store into the image, or an
access that straddles its end, raises :class:`~repro.errors.AddressError`.

Tensors are stored as float32 regardless of the model's nominal FP16
datatype: the executor must be bit-comparable with the numpy reference
model, and capacity/bandwidth math uses ``LLMConfig.dtype_bytes``
separately.  :attr:`DeviceMemory.logical_scale` records that 2-byte scale
factor so capacity checks against the real module size stay honest.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import AddressError, AllocationError

ALIGNMENT = 64  # cacheline


def _align_up(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _zeroed(nbytes: int) -> np.ndarray:
    """``nbytes`` zero bytes in an anonymous mapping of their own.

    A page costs memory only once it is touched, and the whole mapping
    goes back to the OS when the array does; a heap allocation of the
    same size may be zero-filled up front and kept resident after it
    is freed, depending on the allocator's state.
    """
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.uint8)


@dataclass(frozen=True)
class Region:
    """A named, allocated span of device memory."""

    name: str
    addr: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


class DeviceMemory:
    """A flat device address space: an optional read-only image mapped
    at address 0, and one zeroed numpy byte buffer above it.

    Attributes:
        capacity: Usable bytes (the simulated buffer size).  For tiny
            functional models this is a few MiB; the *modelled* module
            capacity checks happen in :mod:`repro.memory`.
    """

    #: Functional storage is fp32 while the modelled datatype is fp16.
    logical_scale = 0.5

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError("device memory capacity must be positive")
        self.capacity = capacity
        # Bytes [0, _base) are the mapped image, [_base, capacity) the
        # device's own buffer.
        self._image = np.zeros(0, dtype=np.uint8)
        self._base = 0
        self._buffer = _zeroed(capacity)
        self._regions: Dict[str, Region] = {}
        self._next = 0

    @property
    def allocated_bytes(self) -> int:
        return self._next

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise AddressError(f"no region named {name!r}")

    def alloc(self, name: str, nbytes: int) -> Region:
        """Allocate an aligned region; names must be unique."""
        if name in self._regions:
            raise AllocationError(f"region {name!r} already allocated")
        if nbytes <= 0:
            raise AllocationError(f"region {name!r}: size must be positive")
        addr = self._next
        end = addr + nbytes
        if end > self.capacity:
            raise AllocationError(
                f"region {name!r} ({nbytes} B) exceeds device memory "
                f"({self.capacity - self._next} B free)")
        self._next = _align_up(end)
        region = Region(name=name, addr=addr, nbytes=nbytes)
        self._regions[name] = region
        return region

    def map_image(self, image: np.ndarray,
                  spans: Iterable[Tuple[str, int]]) -> Dict[str, Region]:
        """Map ``image`` read-only at address 0 and name its regions.

        ``spans`` are ``(name, nbytes)`` pairs, allocated in order as
        :meth:`alloc` places them in an empty memory (so capacity errors
        are alloc's); they must end exactly at the image's size, which
        :func:`pack_regions` gives.  The image is not copied: every load
        inside it returns a view of ``image`` itself.
        """
        if self._next:
            raise AllocationError("an image maps only into empty memory")
        regions = {name: self.alloc(name, nbytes) for name, nbytes in spans}
        raw = image.reshape(-1).view(np.uint8)
        if raw.nbytes != self._next:
            raise AllocationError(
                f"image of {raw.nbytes} B does not match its regions, "
                f"which end at {self._next} B")
        raw.flags.writeable = False
        self._image = raw
        self._base = raw.nbytes
        # The buffer's bytes below the image are never touched, so they
        # cost address space only.
        self._buffer = self._buffer[self._base:]
        return regions

    def alloc_tensor(self, name: str, shape: Tuple[int, ...]) -> Region:
        """Allocate a float32 tensor region of the given shape."""
        nbytes = int(np.prod(shape)) * 4
        return self.alloc(name, nbytes)

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            raise AddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside device "
                f"memory of {self.capacity:#x} bytes")

    def _load_span(self, addr: int, nbytes: int) -> np.ndarray:
        """The bytes ``[addr, addr + nbytes)``, a view of the image or
        of the device's buffer (never both)."""
        self._check_range(addr, nbytes)
        base = self._base
        if addr >= base:
            return self._buffer[addr - base:addr - base + nbytes]
        if addr + nbytes > base:
            raise AddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) straddles the end "
                f"of the read-only image at {base:#x}")
        return self._image[addr:addr + nbytes]

    def _store_span(self, addr: int, nbytes: int) -> np.ndarray:
        """The writable bytes ``[addr, addr + nbytes)`` of the buffer."""
        self._check_range(addr, nbytes)
        base = self._base
        if addr < base:
            raise AddressError(
                f"store [{addr:#x}, {addr + nbytes:#x}) into the read-only "
                f"image [0, {base:#x})")
        return self._buffer[addr - base:addr - base + nbytes]

    def write_tensor(self, addr: int, tensor: np.ndarray) -> None:
        """Store a float32 tensor at ``addr``."""
        data = np.ascontiguousarray(tensor, dtype=np.float32)
        raw = data.view(np.uint8).reshape(-1)
        self._store_span(addr, raw.nbytes)[:] = raw

    def write_bytes(self, addr: int, data: np.ndarray) -> None:
        """Store raw bytes at ``addr`` (CXL.mem line writes from
        :mod:`repro.cxl.memdev`, ECC codewords from
        :mod:`repro.memory.reliable`), bounds-checked like every store."""
        raw = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        self._store_span(addr, raw.nbytes)[:] = raw

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        """Load ``nbytes`` raw bytes from ``addr`` (a copy)."""
        return self._load_span(addr, nbytes).copy()

    def read_tensor(self, addr: int, shape: Tuple[int, ...]) -> np.ndarray:
        """Load a float32 tensor of ``shape`` from ``addr`` (a copy)."""
        return self.view_tensor(addr, shape).copy()

    def view_tensor(self, addr: int, shape: Tuple[int, ...]) -> np.ndarray:
        """A read-only float32 view of ``shape`` at ``addr`` (no copy).

        The view aliases device memory, so it sees every later store;
        take :meth:`read_tensor` when a snapshot is needed.
        """
        nbytes = math.prod(shape) * 4
        view = self._load_span(addr, nbytes).view(np.float32).reshape(shape)
        view.flags.writeable = False
        return view

    def read_row(self, base_addr: int, row: int, row_elems: int
                 ) -> np.ndarray:
        """Load row ``row`` of a 2-D float32 table stored at ``base_addr``."""
        if row < 0:
            raise AddressError(f"negative row index {row}")
        return self.read_tensor(base_addr + row * row_elems * 4,
                                (row_elems,))

    def read_rows(self, base_addr: int, rows: Sequence[int], row_elems: int
                  ) -> np.ndarray:
        """Gather rows of a 2-D float32 table in one vectorized read.

        Equivalent to stacking :meth:`read_row` per index (same values,
        same dtype, same errors) without the per-row Python loop.
        """
        if not rows:
            raise AddressError("empty row gather")
        idx = np.asarray(rows, dtype=np.int64)
        if idx.min() < 0:
            raise AddressError(f"negative row index {int(idx.min())}")
        row_bytes = row_elems * 4
        span = (int(idx.max()) + 1) * row_bytes
        table = self._load_span(base_addr, span) \
            .view(np.float32).reshape(-1, row_elems)
        return table[idx]

    def store_named(self, name: str, tensor: np.ndarray) -> Region:
        """Allocate a region for ``tensor`` and write it."""
        region = self.alloc_tensor(name, tensor.shape)
        self.write_tensor(region.addr, tensor)
        return region


def pack_regions(spans: Iterable[Tuple[str, int]]
                 ) -> Tuple[Dict[str, Region], int]:
    """Where :meth:`DeviceMemory.alloc` places ``(name, nbytes)`` spans,
    in order, in an empty memory, and the aligned end of the last one:
    the layout (and size) of an image for :meth:`DeviceMemory.map_image`.
    """
    regions: Dict[str, Region] = {}
    end = 0
    for name, nbytes in spans:
        regions[name] = Region(name=name, addr=end, nbytes=nbytes)
        end = _align_up(end + nbytes)
    return regions, end
