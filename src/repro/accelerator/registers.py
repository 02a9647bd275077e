"""Register files of the LLM inference accelerator.

Table II provisions 63 MB of matrix/vector/scalar register files.  The
register file manager (Fig. 7) hands out registers to the compiler and the
functional executor enforces the capacity: every live register's bytes
count against its bank, and exceeding a bank is a compile/run-time error —
which is exactly what forces the compiler to tile large activations.

Register names encode the bank: ``m*`` matrix, ``v*`` vector, ``s*``
scalar (e.g. ``m3``, ``v12``, ``s0``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, Mapping

import numpy as np

from repro.errors import AllocationError, IsaError
from repro.units import MiB

#: Bank capacities; sum to the 63 MB of Table II (modelled at the
#: accelerator's FP16 datatype — the functional executor stores fp32 and
#: divides by DeviceMemory.logical_scale when charging the budget).
MATRIX_RF_BYTES = 48 * MiB
VECTOR_RF_BYTES = 14 * MiB
SCALAR_RF_BYTES = 1 * MiB

_NAME_RE = re.compile(r"^([mvs])(\d+)$")


@lru_cache(maxsize=4096)
def bank_of(reg: str) -> str:
    """Bank letter of a register name, validating the format.

    Cached: the same few dozen compiler-generated names are classified on
    every register-file access, which made the regex a decode-loop
    hotspot.
    """
    match = _NAME_RE.match(reg)
    if not match:
        raise IsaError(
            f"bad register name {reg!r}; expected m<N>, v<N>, or s<N>")
    return match.group(1)


@dataclass
class RegisterAllocator:
    """Compile-time register-name generator, one counter per bank."""

    _counters: Dict[str, int] = field(
        default_factory=lambda: {"m": 0, "v": 0, "s": 0})

    def fresh(self, bank: str) -> str:
        """Return a new unique register name in ``bank``."""
        if bank not in self._counters:
            raise IsaError(f"unknown register bank {bank!r}")
        name = f"{bank}{self._counters[bank]}"
        self._counters[bank] += 1
        return name

    def matrix(self) -> str:
        return self.fresh("m")

    def vector(self) -> str:
        return self.fresh("v")

    def scalar(self) -> str:
        return self.fresh("s")

    def counts(self) -> Dict[str, int]:
        """Registers handed out so far, per bank."""
        return dict(self._counters)

    def skip(self, counts: Mapping[str, int]) -> None:
        """Advance each bank as if ``counts[bank]`` more registers had
        been handed out."""
        for bank, n in counts.items():
            self._counters[bank] += n


class RegisterFileState:
    """Runtime register storage with per-bank capacity accounting.

    ``logical_scale`` converts stored fp32 bytes to the modelled FP16
    footprint before charging the bank budget.
    """

    def __init__(self, matrix_bytes: int = MATRIX_RF_BYTES,
                 vector_bytes: int = VECTOR_RF_BYTES,
                 scalar_bytes: int = SCALAR_RF_BYTES,
                 logical_scale: float = 0.5):
        self._capacity = {"m": matrix_bytes, "v": vector_bytes,
                          "s": scalar_bytes}
        self._used = {"m": 0, "v": 0, "s": 0}
        self._values: Dict[str, np.ndarray] = {}
        self._logical_scale = logical_scale

    def _logical_bytes(self, value: np.ndarray) -> int:
        return int(value.nbytes * self._logical_scale)

    def write(self, reg: str, value: np.ndarray) -> None:
        """Set a register, charging its bank for the new footprint."""
        if type(value) is not np.ndarray or value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float32)
        old = self._values.get(reg)
        if old is not None and old.nbytes == value.nbytes:
            # Same footprint swap: the bank charge is unchanged (and the
            # name was validated on the first write).
            self._values[reg] = value
            return
        bank = bank_of(reg)
        new_bytes = self._logical_bytes(value)
        old_bytes = self._logical_bytes(old) if old is not None else 0
        used = self._used[bank] - old_bytes + new_bytes
        if used > self._capacity[bank]:
            raise AllocationError(
                f"register file bank {bank!r} overflow: {used} B needed, "
                f"{self._capacity[bank]} B capacity (writing {reg})")
        self._used[bank] = used
        self._values[reg] = value

    def read(self, reg: str) -> np.ndarray:
        bank_of(reg)
        try:
            return self._values[reg]
        except KeyError:
            raise IsaError(f"register {reg} read before write")

    def free(self, reg: str) -> None:
        """Release a register's bytes back to its bank."""
        bank = bank_of(reg)
        value = self._values.pop(reg, None)
        if value is not None:
            self._used[bank] -= int(value.nbytes * self._logical_scale)

    def used_bytes(self, bank: str) -> int:
        if bank not in self._used:
            raise IsaError(f"unknown register bank {bank!r}")
        return self._used[bank]

    def live_registers(self) -> Iterator[str]:
        return iter(self._values)

    def __contains__(self, reg: str) -> bool:
        return reg in self._values
