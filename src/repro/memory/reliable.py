"""ECC-protected device memory: the §IX RAS story, functionally.

Wraps a :class:`~repro.accelerator.memory.DeviceMemory` region with the
SECDED(72,64) codec of :mod:`repro.memory.ecc`: writes encode each 64-bit
word into a data+parity pair (parity stored inline, in the same device,
as LPDDR5X's inline ECC does), reads decode and transparently correct
single-bit upsets.  A fault injector flips random stored bits; a scrub
pass walks the region rewriting corrected codewords — together they
demonstrate the correct-single/detect-double/scrub-before-it-doubles
behaviour the paper argues makes LPDDR5X datacenter-ready.

The codec runs per 8-byte word in Python, so protected regions are for
functional demonstration (checkpoint headers, control state), not for
bulk model weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.accelerator.memory import DeviceMemory, Region
from repro.errors import ConfigurationError, UncorrectableMemoryError
from repro.memory.ecc import (
    CODEWORD_BITS,
    DecodeStatus,
    decode,
    encode,
)

#: Stored bytes per protected 8-byte word (72 bits rounded to 9 bytes).
STORED_BYTES_PER_WORD = 9
DATA_BYTES_PER_WORD = 8


@dataclass
class ScrubReport:
    """What one scrub pass found and fixed."""

    words_scanned: int = 0
    corrected: int = 0
    uncorrectable: int = 0


class ReliableRegion:
    """A SECDED-protected span of device memory.

    Attributes:
        memory: The backing device memory.
        data_words: Protected capacity in 64-bit words.
    """

    def __init__(self, memory: DeviceMemory, name: str, data_words: int):
        if data_words <= 0:
            raise ConfigurationError("need at least one protected word")
        self.memory = memory
        self.data_words = data_words
        self._region: Region = memory.alloc(
            name, data_words * STORED_BYTES_PER_WORD)
        self.corrected_total = 0

    @property
    def overhead_fraction(self) -> float:
        """Stored-parity overhead (1/8 at 9-byte codewords)."""
        return (STORED_BYTES_PER_WORD - DATA_BYTES_PER_WORD) \
            / STORED_BYTES_PER_WORD

    def _word_addr(self, index: int) -> int:
        if not 0 <= index < self.data_words:
            raise ConfigurationError(
                f"word index {index} outside region of {self.data_words}")
        return self._region.addr + index * STORED_BYTES_PER_WORD

    def _store_code(self, index: int, code: np.ndarray) -> None:
        self.memory.write_bytes(self._word_addr(index),
                                np.packbits(code, bitorder="little"))

    def _load_code(self, index: int) -> np.ndarray:
        raw = self.memory.read_bytes(self._word_addr(index),
                                     STORED_BYTES_PER_WORD)
        return np.unpackbits(raw, bitorder="little")[:CODEWORD_BITS]

    def write_word(self, index: int, word: int) -> None:
        """Encode and store one 64-bit word."""
        self._store_code(index, encode(word))

    def read_word(self, index: int) -> int:
        """Load, decode, and (transparently) correct one word.

        Raises :class:`UncorrectableMemoryError` (a subclass of
        :class:`~repro.errors.ExecutionError`) on an uncorrectable
        (2-bit) error — the machine-check the host would see.
        """
        result = decode(self._load_code(index))
        if result.status is DecodeStatus.DETECTED:
            raise UncorrectableMemoryError(
                f"uncorrectable memory error at protected word {index}")
        if result.status is DecodeStatus.CORRECTED:
            self.corrected_total += 1
        return result.word

    def write_array(self, values: np.ndarray, base_index: int = 0) -> None:
        """Store a uint64 array starting at ``base_index``."""
        flat = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1)
        for i, value in enumerate(flat):
            self.write_word(base_index + i, int(value))

    def read_array(self, count: int, base_index: int = 0) -> np.ndarray:
        """Load ``count`` uint64 words starting at ``base_index``."""
        return np.array([self.read_word(base_index + i)
                         for i in range(count)], dtype=np.uint64)

    # -- fault injection and scrubbing ---------------------------------------

    def inject_faults(self, num_flips: int, seed: int = 0,
                      rng: Optional[np.random.Generator] = None
                      ) -> List[int]:
        """Flip ``num_flips`` random stored bits; returns affected words."""
        if num_flips < 0:
            raise ConfigurationError("cannot inject negative flips")
        rng = rng or np.random.default_rng(seed)
        affected = []
        for _ in range(num_flips):
            index = int(rng.integers(0, self.data_words))
            bit = int(rng.integers(0, CODEWORD_BITS))
            code = self._load_code(index)
            code[bit] ^= 1
            self._store_code(index, code)
            affected.append(index)
        return affected

    def inject_double_bit(self, index: int = 0) -> None:
        """Flip two data bits of one codeword — an uncorrectable error.

        Bit positions 2 and 4 are data bits in the Hamming layout (the
        0-indexed parity positions are 0, 1, 3, 7, 15, 31, 63, and 71),
        so the next read of ``index`` raises
        :class:`UncorrectableMemoryError`.
        """
        code = self._load_code(index)
        code[2] ^= 1
        code[4] ^= 1
        self._store_code(index, code)

    def scrub(self) -> ScrubReport:
        """ECS pass: read every word, rewrite corrected codewords.

        Uncorrectable words are counted, not raised — scrubbing logs and
        continues, like hardware ECS.
        """
        report = ScrubReport()
        for index in range(self.data_words):
            result = decode(self._load_code(index))
            report.words_scanned += 1
            if result.status is DecodeStatus.CORRECTED:
                self._store_code(index, encode(result.word))
                report.corrected += 1
                self.corrected_total += 1
            elif result.status is DecodeStatus.DETECTED:
                report.uncorrectable += 1
        return report
