"""On-board memory with optional EDAC (SEC-DED Hamming).

The reconfiguration service stages bitstream files in on-board memory
(§3.2: "load of the binary file ... in an on-board memory"; "optionally
a binary files library can be managed on-board").  Memory words are
protected by a (72,64)-style SEC-DED extended Hamming code, the
standard EDAC for spacecraft memories: single-bit upsets are corrected
on read, double-bit upsets are detected and reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..caching import freeze

__all__ = ["OnboardMemory", "hamming_encode", "hamming_decode"]

_DATA_BITS = 8  # per protected word (byte-wide EDAC keeps the model simple)
_PARITY_BITS = 4  # Hamming(12,8)
_EXTRA = 1  # overall parity for SEC-DED
_WORD_BITS = _DATA_BITS + _PARITY_BITS + _EXTRA  # 13

# parity-check positions for Hamming(12,8): parity bits at positions
# 1,2,4,8 (1-indexed); data at the rest.
_POSITIONS = np.arange(1, _DATA_BITS + _PARITY_BITS + 1)
_DATA_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) != 0]  # non powers of 2
_PARITY_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) == 0]


def _encode_table() -> np.ndarray:
    """The SEC-DED codeword of every byte, as a ``(256, 13)`` bit matrix.

    This is the encoder's definition: data bits at the non-power-of-two
    positions, each parity bit the XOR of the positions it covers (its
    own position is still 0 when it is computed), then the overall
    parity of the 12-bit body.
    """
    word = np.zeros((256, _DATA_BITS + _PARITY_BITS), dtype=np.uint8)
    word[:, _DATA_POS - 1] = (np.arange(256)[:, None] >> np.arange(_DATA_BITS)) & 1
    for p in _PARITY_POS:
        covered = _POSITIONS[(np.bitwise_and(_POSITIONS, p)) != 0]
        word[:, p - 1] = np.bitwise_xor.reduce(word[:, covered - 1], axis=1)
    overall = np.bitwise_xor.reduce(word, axis=1)
    return freeze(np.column_stack([word, overall]))


#: byte -> 13-bit SEC-DED word; ``_ENCODE_TABLE[codes]`` encodes a whole file
_ENCODE_TABLE = _encode_table()

# decode status codes of :func:`_decode_words`
_OK, _CORRECTED, _DOUBLE = 0, 1, 2
_STATUS = ("ok", "corrected", "double")


def _decode_words(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-decode an ``(n, 13)`` word matrix; returns ``(bytes, status)``.

    The syndrome is the XOR of the 1-indexed positions of the set body
    bits.  A nonzero syndrome with odd overall parity names the single
    flipped body bit, which one fancy-index flip corrects; a zero
    syndrome with odd parity is an upset of the overall-parity bit
    itself.  A nonzero syndrome with even parity is a double error, and
    so is a syndrome of 13-15 with odd parity (three or more upsets: no
    such body position exists).  ``status`` holds ``_OK``,
    ``_CORRECTED`` or ``_DOUBLE`` per word; the bytes of double-error
    words are not meaningful.
    """
    body = words[:, :-1].copy()
    syndrome = np.bitwise_xor.reduce(body * _POSITIONS.astype(np.uint8), axis=1)
    overall = np.bitwise_xor.reduce(words, axis=1) != 0
    single = (syndrome != 0) & overall & (syndrome <= len(_POSITIONS))
    status = np.where(overall, _CORRECTED, _OK)
    status[(syndrome != 0) & ~single] = _DOUBLE
    rows = np.flatnonzero(single)
    body[rows, syndrome[rows] - 1] ^= 1
    data = body[:, _DATA_POS - 1]
    return np.packbits(data, axis=1, bitorder="little")[:, 0], status


def hamming_encode(byte: int) -> np.ndarray:
    """Encode one byte into a 13-bit SEC-DED word (bit array)."""
    if not 0 <= byte < 256:
        raise ValueError("byte out of range")
    return _ENCODE_TABLE[byte].copy()


def hamming_decode(word: np.ndarray) -> tuple[int, str]:
    """Decode a 13-bit word; returns ``(byte, status)``.

    ``status`` is ``"ok"``, ``"corrected"`` or ``"double"`` (uncorrectable).
    """
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (_WORD_BITS,):
        raise ValueError(f"word must have {_WORD_BITS} bits")
    byte, status = _decode_words(word[None, :])
    return int(byte[0]), _STATUS[status[0]]


@dataclass
class _File:
    name: str
    words: np.ndarray  # (n, 13) bit matrix


class OnboardMemory:
    """Byte-addressable store of named files with per-byte SEC-DED EDAC.

    ``capacity_bytes`` bounds the total stored payload -- the paper notes
    the on-board library "requires a lot of available memory on-board",
    and benchmark C3 quantifies it.
    """

    def __init__(self, capacity_bytes: int = 4 << 20, edac: bool = True) -> None:
        if capacity_bytes < 1:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.edac = edac
        self._files: dict[str, _File] = {}
        self.scrub_corrections = 0

    # -- capacity -------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return sum(len(f.words) for f in self._files.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def files(self) -> list[str]:
        """Names of stored files."""
        return sorted(self._files)

    # -- file operations ---------------------------------------------------
    def store(self, name: str, data: bytes) -> None:
        """Write (or replace) a file."""
        old = len(self._files[name].words) if name in self._files else 0
        if len(data) > self.free_bytes + old:
            raise MemoryError(
                f"storing {len(data)} bytes exceeds free capacity {self.free_bytes + old}"
            )
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(list(data))  # ValueError on a value outside 0..255
        # fancy indexing copies: the file owns a writable word matrix
        words = _ENCODE_TABLE[np.frombuffer(data, dtype=np.uint8)]
        self._files[name] = _File(name, words)

    def load(self, name: str) -> bytes:
        """Read a file, correcting single-bit upsets per byte.

        Raises :class:`IOError` on an uncorrectable (double) error.
        """
        data, status = _decode_words(self._get(name).words)
        bad = np.flatnonzero(status == _DOUBLE)
        if bad.size:
            raise IOError(f"uncorrectable EDAC error in {name!r} at byte {bad[0]}")
        return data.tobytes()

    def delete(self, name: str) -> None:
        """Remove a file (§3.2 step 4: 'unload the binary file')."""
        self._get(name)
        del self._files[name]

    def _get(self, name: str) -> _File:
        if name not in self._files:
            raise KeyError(f"no such file {name!r}")
        return self._files[name]

    def scrub(self) -> int:
        """EDAC scrub: rewrite every byte from its corrected value.

        Returns the number of corrected words; uncorrectable words are
        left in place (and will fail on load).
        """
        fixed = 0
        for f in self._files.values():
            data, status = _decode_words(f.words)
            rows = np.flatnonzero(status == _CORRECTED)
            f.words[rows] = _ENCODE_TABLE[data[rows]]
            fixed += rows.size
        self.scrub_corrections += fixed
        return fixed
