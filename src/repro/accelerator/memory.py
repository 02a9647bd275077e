"""Byte-addressed device memory with a region allocator.

This is the functional storage behind one CXL-PNM device: model parameters,
KV cache, and the accelerator's input/output buffers all live here, at real
byte addresses.  The functional executor reads and writes tensors through
these addresses, so address-arithmetic bugs (overlaps, misalignment) fail
loudly instead of silently — the point of simulating the memory rather than
passing numpy arrays around.

Tensors are stored as float32 regardless of the model's nominal FP16
datatype: the executor must be bit-comparable with the numpy reference
model, and capacity/bandwidth math uses ``LLMConfig.dtype_bytes``
separately.  :attr:`DeviceMemory.logical_scale` records that 2-byte scale
factor so capacity checks against the real module size stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import AddressError, AllocationError

ALIGNMENT = 64  # cacheline


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
    """A flat device address space backed by one numpy byte buffer.

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
        self._buffer = np.zeros(capacity, dtype=np.uint8)
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
        self._next = (end + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        region = Region(name=name, addr=addr, nbytes=nbytes)
        self._regions[name] = region
        return region

    def alloc_tensor(self, name: str, shape: Tuple[int, ...]) -> Region:
        """Allocate a float32 tensor region of the given shape."""
        nbytes = int(np.prod(shape)) * 4
        return self.alloc(name, nbytes)

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.capacity:
            raise AddressError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside device "
                f"memory of {self.capacity:#x} bytes")

    def write_tensor(self, addr: int, tensor: np.ndarray) -> None:
        """Store a float32 tensor at ``addr``."""
        data = np.ascontiguousarray(tensor, dtype=np.float32)
        raw = data.view(np.uint8).reshape(-1)
        self._check_range(addr, raw.nbytes)
        self._buffer[addr:addr + raw.nbytes] = raw

    def write_bytes(self, addr: int, data: np.ndarray) -> None:
        """Store raw bytes at ``addr`` (CXL.mem line writes from
        :mod:`repro.cxl.memdev`), bounds-checked like every store."""
        raw = np.ascontiguousarray(data, dtype=np.uint8).reshape(-1)
        self._check_range(addr, raw.nbytes)
        self._buffer[addr:addr + raw.nbytes] = raw

    def read_tensor(self, addr: int, shape: Tuple[int, ...]) -> np.ndarray:
        """Load a float32 tensor of ``shape`` from ``addr`` (a copy)."""
        return self.view_tensor(addr, shape).copy()

    def view_tensor(self, addr: int, shape: Tuple[int, ...]) -> np.ndarray:
        """A read-only float32 view of ``shape`` at ``addr`` (no copy).

        The view aliases device memory, so it sees every later store;
        take :meth:`read_tensor` when a snapshot is needed.
        """
        nbytes = math.prod(shape) * 4
        self._check_range(addr, nbytes)
        view = self._buffer[addr:addr + nbytes].view(np.float32) \
            .reshape(shape)
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
        self._check_range(base_addr, span)
        table = self._buffer[base_addr:base_addr + span] \
            .view(np.float32).reshape(-1, row_elems)
        return table[idx]

    def store_named(self, name: str, tensor: np.ndarray) -> Region:
        """Allocate a region for ``tensor`` and write it."""
        region = self.alloc_tensor(name, tensor.shape)
        self.write_tensor(region.addr, tensor)
        return region
