"""Cyclic redundancy checks (TS 25.212 §4.2.1 polynomials).

CRCs appear twice in the paper: on every UMTS transport block, and as
the **validation service's auto-test** of a freshly loaded FPGA
configuration (§3.2: "at least one auto-test of the new configuration
will be realized (e.g. CRC applied on the configuration)").  The same
implementation serves both (bit-array interface here; a byte interface
is provided for configuration files).
"""

from __future__ import annotations

import numpy as np

from ..caching import cached_design, freeze
from .gf2 import gf2_matmul

__all__ = ["Crc", "CRC8", "CRC12", "CRC16", "CRC24", "crc32_bytes"]


def _crc_step(reg: int, bit: int, poly: int, width: int) -> int:
    """Clock one message bit into the bit-serial CRC register."""
    fb = ((reg >> (width - 1)) & 1) ^ bit
    reg = (reg << 1) & ((1 << width) - 1)
    return reg ^ poly if fb else reg


@cached_design("coding.crc_parity", maxsize=64)
def _parity_matrix(poly: int, width: int, length: int) -> np.ndarray:
    """Read-only ``(length, width)`` parity matrix of the CRC over ``length`` bits.

    The register starts at zero and each step is GF(2)-linear, so the
    CRC of a message is the XOR of the CRCs of its set bits.  Message
    bit ``i`` alone leaves the register in the state reached by
    clocking in a 1 and then ``length - 1 - i`` zeros, so one pass of
    the bit-serial register yields every row.  Stored as ``float32``
    for :func:`~repro.coding.gf2.gf2_matmul`.
    """
    states = np.empty(length, dtype=np.int64)
    reg = _crc_step(0, 1, poly, width)
    for j in range(length):
        states[length - 1 - j] = reg
        reg = _crc_step(reg, 0, poly, width)
    rows = (states[:, None] >> np.arange(width - 1, -1, -1)) & 1
    return freeze(rows.astype(np.float32))


class Crc:
    """CRC over numpy bit arrays.

    The CRC is defined by a bit-serial shift register (``_crc_step``);
    :meth:`compute` and :meth:`compute_batch` replay it as one GF(2)
    product with a parity matrix cached per message length.

    Parameters
    ----------
    poly:
        Generator polynomial *without* the leading term, MSB-first
        (e.g. CRC-16-CCITT ``x^16+x^12+x^5+1`` is ``0x1021`` with
        ``width=16``).
    width:
        CRC length in bits.
    """

    def __init__(self, poly: int, width: int, name: str = "") -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        if poly >> width:
            raise ValueError("poly has bits above width")
        self.poly = poly
        self.width = width
        self.name = name or f"CRC{width}"

    def compute(self, bits: np.ndarray) -> np.ndarray:
        """CRC parity bits (MSB first) of a bit array."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return self.compute_batch(bits[None, :])[0]

    def compute_batch(self, bits: np.ndarray) -> np.ndarray:
        """CRC parity bits of every row of a ``(batch, n)`` bit array."""
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {bits.shape}")
        return gf2_matmul(bits, _parity_matrix(self.poly, self.width, bits.shape[1]))

    def attach(self, bits: np.ndarray) -> np.ndarray:
        """Append the CRC parity to the message (TS 25.212 attachment)."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        return np.concatenate([bits, self.compute(bits)])

    def check(self, bits_with_crc: np.ndarray) -> bool:
        """Validate a message produced by :meth:`attach`."""
        bits_with_crc = np.asarray(bits_with_crc).astype(np.uint8).ravel()
        return bool(self.check_batch(bits_with_crc[None, :])[0])

    def check_batch(self, rows: np.ndarray) -> np.ndarray:
        """Validate every row of a ``(batch, n + width)`` array; boolean per row."""
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {rows.shape}")
        if rows.shape[1] < self.width:
            raise ValueError("message shorter than CRC width")
        parity = self.compute_batch(rows[:, : -self.width])
        return np.all(parity == rows[:, -self.width :], axis=1)


#: TS 25.212: gCRC8(D)  = D^8 + D^7 + D^4 + D^3 + D + 1
CRC8 = Crc(0x9B, 8, "UMTS-CRC8")
#: TS 25.212: gCRC12(D) = D^12 + D^11 + D^3 + D^2 + D + 1
CRC12 = Crc(0x80F, 12, "UMTS-CRC12")
#: TS 25.212: gCRC16(D) = D^16 + D^12 + D^5 + 1
CRC16 = Crc(0x1021, 16, "UMTS-CRC16")
#: TS 25.212: gCRC24(D) = D^24 + D^23 + D^6 + D^5 + D + 1
CRC24 = Crc(0x800063, 24, "UMTS-CRC24")


def crc32_bytes(data: bytes) -> int:
    """IEEE CRC-32 of a byte string (used for bitstream validation)."""
    import zlib

    return zlib.crc32(data) & 0xFFFFFFFF
