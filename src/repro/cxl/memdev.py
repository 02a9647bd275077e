"""Functional CXL Type-3 device: transactions against real storage.

Binds the transaction model of :mod:`repro.cxl.protocol` to a
:class:`~repro.accelerator.memory.DeviceMemory`: the host reads and
writes the device's DRAM with 64-byte ``MemRd``/``MemWr`` transactions
(the load/store path §II-A highlights — no staging copies, unlike PCIe
accelerators) and reaches the accelerator's control registers through
``CfgRd``/``CfgWr`` on the CXL.io window.

This is what makes the paper's §VI driver story concrete: the CXL-PNM
Python library's ``from_numpy`` is *literally* a sequence of MemWr lines
into the same memory the accelerator computes on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.accelerator.control import ControlRegister, ControlUnit
from repro.accelerator.memory import DeviceMemory
from repro.cxl.link import CXLLink, GEN5_X16
from repro.cxl.protocol import (
    CACHELINE_BYTES,
    Opcode,
    Source,
    Transaction,
)
from repro.errors import AddressError, ProtocolError


@dataclass
class AccessCounters:
    """Per-source transaction accounting (feeds the arbiter studies)."""

    reads: Dict[Source, int] = field(
        default_factory=lambda: {s: 0 for s in Source})
    writes: Dict[Source, int] = field(
        default_factory=lambda: {s: 0 for s in Source})

    def bytes_read(self, source: Source) -> int:
        return self.reads[source] * CACHELINE_BYTES

    def bytes_written(self, source: Source) -> int:
        return self.writes[source] * CACHELINE_BYTES


class FunctionalCxlDevice:
    """A CXL Type-3 memory device that actually stores data.

    Attributes:
        memory: The backing device memory (shared with the accelerator).
        control: The accelerator's CXL.io register file.
        link: The CXL port (used for transfer-time estimates).
    """

    def __init__(self, memory: DeviceMemory,
                 control: Optional[ControlUnit] = None,
                 link: CXLLink = GEN5_X16):
        self.memory = memory
        self.control = control or ControlUnit()
        self.link = link
        self.counters = AccessCounters()

    # -- CXL.mem ------------------------------------------------------------

    def submit(self, txn: Transaction) -> Transaction:
        """Service one transaction and return its response.

        ``MemRd`` responses carry the line's data in ``.payload`` (an
        attribute added to the returned transaction object path below);
        ``CfgRd`` responses carry the register value.
        """
        if txn.opcode is Opcode.MEM_RD:
            data = self._read_line(txn.addr)
            self.counters.reads[txn.source] += 1
            response = txn.response()
            object.__setattr__(response, "payload", data)
            return response
        if txn.opcode is Opcode.MEM_WR:
            raise ProtocolError(
                "MemWr needs data; use write_line(txn, data)")
        if txn.opcode in (Opcode.CFG_RD, Opcode.CFG_WR):
            raise ProtocolError(
                "config transactions go through cfg_read/cfg_write")
        raise ProtocolError(f"device cannot service {txn.opcode}")

    def write_line(self, txn: Transaction, data: np.ndarray) -> Transaction:
        """Service a MemWr carrying one cacheline of data."""
        if txn.opcode is not Opcode.MEM_WR:
            raise ProtocolError(f"write_line needs MemWr, got {txn.opcode}")
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.nbytes != CACHELINE_BYTES:
            raise ProtocolError(
                f"MemWr payload must be {CACHELINE_BYTES} B, got "
                f"{data.nbytes}")
        self._write_line(txn.addr, data)
        self.counters.writes[txn.source] += 1
        return txn.response()

    def _read_line(self, addr: int) -> np.ndarray:
        if addr % CACHELINE_BYTES:
            raise AddressError(f"unaligned line read {addr:#x}")
        return self.memory.read_bytes(addr, CACHELINE_BYTES)

    def _write_line(self, addr: int, data: np.ndarray) -> None:
        if addr % CACHELINE_BYTES:
            raise AddressError(f"unaligned line write {addr:#x}")
        if addr + CACHELINE_BYTES > self.memory.capacity:
            raise AddressError(f"line write {addr:#x} beyond device memory")
        self.memory.write_bytes(addr, data)

    # -- CXL.io (side-band register access, Fig. 6) --------------------------

    def cfg_read(self, register: ControlRegister) -> int:
        self.counters.reads[Source.HOST] += 1
        return self.control.read_register(register)

    def cfg_write(self, register: ControlRegister, value: int) -> None:
        self.counters.writes[Source.HOST] += 1
        self.control.write_register(register, value)

    # -- host convenience: load/store a tensor over CXL.mem ------------------

    def host_store_tensor(self, addr: int, tensor: np.ndarray) -> int:
        """Write a float32 tensor as a stream of MemWr lines.

        Returns the number of transactions issued.  ``addr`` must be
        line-aligned; the tail line is read-modify-written.
        """
        data = np.ascontiguousarray(tensor, dtype=np.float32) \
            .view(np.uint8).reshape(-1)
        if addr % CACHELINE_BYTES:
            raise AddressError(f"tensor store at unaligned {addr:#x}")
        issued = 0
        offset = 0
        while offset < data.size:
            line_addr = addr + offset
            chunk = data[offset:offset + CACHELINE_BYTES]
            if chunk.size < CACHELINE_BYTES:
                line = self._read_line(line_addr)
                line[:chunk.size] = chunk
                chunk = line
            txn = Transaction(opcode=Opcode.MEM_WR, addr=line_addr,
                              source=Source.HOST)
            self.write_line(txn, chunk)
            issued += 1
            offset += CACHELINE_BYTES
        return issued

    def host_load_tensor(self, addr: int, shape) -> np.ndarray:
        """Read a float32 tensor back as a stream of MemRd lines."""
        nbytes = int(np.prod(shape)) * 4
        if addr % CACHELINE_BYTES:
            raise AddressError(f"tensor load at unaligned {addr:#x}")
        chunks = []
        offset = 0
        while offset < nbytes:
            txn = Transaction(opcode=Opcode.MEM_RD, addr=addr + offset,
                              source=Source.HOST)
            chunks.append(self.submit(txn).payload)
            offset += CACHELINE_BYTES
        raw = np.concatenate(chunks)[:nbytes]
        return raw.view(np.float32).reshape(shape).copy()

    def host_transfer_time(self, nbytes: int) -> float:
        """Modelled wall time for the host to move ``nbytes`` over CXL."""
        return self.link.transfer_time(nbytes)
