"""The assembled UMTS transport-channel chain and decoder personalities.

Section 2.3 of the paper: *"In the UMTS standard, different coding
schemes are proposed ... Some transmissions can accept a non-coded mode
while other ones require a convolutional code or a turbo-code.  In each
case the decoding algorithm is different and the architecture of the
decoding process has to be reloaded when a change occurs."*

:class:`TransportChain` assembles CRC attachment -> channel coding ->
rate matching -> 2nd interleaver for each of the three schemes;
``SCHEMES`` is the registry of the three reconfigurable decoder
personalities the payload switches between.

Every transmit stage is GF(2)-linear with a zero start state, so the
whole chain is one ``(transport_block, physical_bits)`` generator
matrix, derived once per chain design from the stage-by-stage encoder
and cached (:func:`repro.coding.gf2.generator_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ..caching import cached_design
from .convolutional import UMTS_RATE_13, ConvolutionalCode
from .crc import CRC16, Crc
from .gf2 import generator_matrix, gf2_matmul
from .interleaving import UMTS_2ND_PERM, BlockInterleaver, rate_dematch, rate_match
from .turbo import TurboCode

__all__ = ["CodingScheme", "TransportChain", "SCHEMES"]


class CodingScheme(str, Enum):
    """The three TS 25.212 coding options cited by the paper."""

    NONE = "none"
    CONVOLUTIONAL = "convolutional"
    TURBO = "turbo"


@dataclass(frozen=True)
class _SchemeSpec:
    """Registry entry describing one decoder personality."""

    scheme: CodingScheme
    description: str
    nominal_rate: float


SCHEMES: dict[CodingScheme, _SchemeSpec] = {
    CodingScheme.NONE: _SchemeSpec(
        CodingScheme.NONE, "no channel coding (CRC only)", 1.0
    ),
    CodingScheme.CONVOLUTIONAL: _SchemeSpec(
        CodingScheme.CONVOLUTIONAL,
        "UMTS K=9 rate-1/3 convolutional code, Viterbi decoding",
        1.0 / 3.0,
    ),
    CodingScheme.TURBO: _SchemeSpec(
        CodingScheme.TURBO,
        "UMTS rate-1/3 PCCC turbo code, max-log-MAP decoding",
        1.0 / 3.0,
    ),
}


@cached_design("coding.chain_generator", maxsize=32)
def _chain_generator(
    scheme: str,
    transport_block: int,
    crc: Optional[tuple[int, int]],
    physical_bits: int,
    conv: Optional[tuple[tuple[str, ...], int]],
) -> np.ndarray:
    """Generator matrix of one chain design (see :meth:`TransportChain.generator`).

    ``crc`` is ``(poly, width)`` and ``conv`` the octal generators and
    constraint length of the convolutional code (``None`` when the
    scheme does not use it).
    """
    chain = TransportChain(
        scheme,
        transport_block,
        crc=Crc(*crc) if crc else None,
        physical_bits=physical_bits,
        conv_code=ConvolutionalCode(*conv) if conv else UMTS_RATE_13,
    )
    return generator_matrix(chain._encode_stages, transport_block)


class TransportChain:
    """One UMTS transport channel: CRC -> coding -> rate match -> interleave.

    Parameters
    ----------
    scheme:
        Which decoder personality the chain uses.
    transport_block:
        Information bits per block (before CRC).
    crc:
        CRC attachment (default UMTS CRC-16); ``None`` disables.
    physical_bits:
        Radio-frame capacity; when given, rate matching
        punctures/repeats the coded block to this size.
    conv_code:
        Override the convolutional code (default UMTS rate 1/3).
    turbo_iterations:
        Decoder iterations for the turbo personality (at most: with a
        CRC, a block stops once its decision repeats and passes it).
    """

    def __init__(
        self,
        scheme: CodingScheme = CodingScheme.CONVOLUTIONAL,
        transport_block: int = 244,
        crc: Optional[Crc] = CRC16,
        physical_bits: Optional[int] = None,
        conv_code: ConvolutionalCode = UMTS_RATE_13,
        turbo_iterations: int = 6,
    ) -> None:
        self.scheme = CodingScheme(scheme)
        if transport_block < 1:
            raise ValueError("transport_block must be >= 1")
        if physical_bits is not None and physical_bits < 1:
            raise ValueError("physical_bits must be >= 1")
        self.transport_block = transport_block
        self.crc = crc
        self.conv_code = conv_code
        self._interleaver = BlockInterleaver(30, UMTS_2ND_PERM)

        self._msg_bits = transport_block + (crc.width if crc else 0)
        if self.scheme is CodingScheme.NONE:
            self._coded_bits = self._msg_bits
            self.turbo = None
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            self._coded_bits = conv_code.encoded_length(self._msg_bits)
            self.turbo = None
        else:
            if not 40 <= self._msg_bits <= 5114:
                raise ValueError(
                    "turbo transport_block plus CRC must be in [40, 5114] bits, "
                    f"got {transport_block} + {self._msg_bits - transport_block}"
                )
            self.turbo = TurboCode(self._msg_bits, iterations=turbo_iterations)
            self._coded_bits = self.turbo.encoded_length
        self.physical_bits = self._coded_bits if physical_bits is None else physical_bits
        conv = None
        if self.scheme is CodingScheme.CONVOLUTIONAL:
            conv = (tuple(f"{g:o}" for g in conv_code.generators), conv_code.k)
        #: hashable design key of :attr:`generator` (see ``_chain_generator``)
        self._design = (
            self.scheme.value,
            transport_block,
            (crc.poly, crc.width) if crc else None,
            self.physical_bits,
            conv,
        )

    @property
    def coded_bits(self) -> int:
        """Coded block size before rate matching."""
        return self._coded_bits

    @property
    def effective_rate(self) -> float:
        """Information bits per transmitted bit (incl. CRC/tail/RM)."""
        return self.transport_block / self.physical_bits

    # -- transmit -------------------------------------------------------
    @property
    def generator(self) -> np.ndarray:
        """Read-only ``(transport_block, physical_bits)`` GF(2) generator matrix.

        Row ``i`` is the stage-by-stage encoding of unit block ``e_i``;
        shared through the ``coding.chain_generator`` design cache by
        every chain with the same design.
        """
        return _chain_generator(*self._design)

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode ``(..., transport_block)`` bits: CRC, code, rate-match, interleave.

        One GF(2) product with :attr:`generator`, bit-identical to
        running the stages one block after another.
        """
        bits = np.asarray(bits).astype(np.uint8)
        if bits.shape[-1:] != (self.transport_block,):
            raise ValueError(
                f"expected {self.transport_block} bits on the last axis, "
                f"got shape {bits.shape}"
            )
        return gf2_matmul(bits, self.generator)

    def _encode_stages(self, bits: np.ndarray) -> np.ndarray:
        """The stage-by-stage encoder :attr:`generator` is derived from.

        CRC attachment, the per-bit convolutional or turbo encoder,
        rate matching and the 2nd interleaver, one after another.
        """
        msg = self.crc.attach(bits) if self.crc else bits
        if self.scheme is CodingScheme.NONE:
            coded = msg
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            coded = self.conv_code.encode(msg)
        else:
            coded = self.turbo.encode(msg)
        matched = rate_match(coded, self.physical_bits)
        return self._interleaver.interleave(matched)

    # -- receive ----------------------------------------------------------
    def decode(self, llr: np.ndarray) -> dict:
        """Decode soft LLRs (positive = bit 0) back to a transport block.

        Returns ``{"bits", "crc_ok"}``; ``crc_ok`` is ``None`` when the
        chain has no CRC.  Delegates to :meth:`decode_batch` with a
        batch of one, so scalar and batched chain decoding share one
        kernel and are bit-identical by construction.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 1:
            raise ValueError("decode expects a 1-D block; use decode_batch")
        out = self.decode_batch(llr[None, :])
        crc_ok = out["crc_ok"]
        return {
            "bits": out["bits"][0],
            "crc_ok": None if crc_ok is None else bool(crc_ok[0]),
        }

    def decode_batch(self, llr: np.ndarray) -> dict:
        """Decode a ``(batch, physical_bits)`` stack of LLR blocks at once.

        The deinterleave / rate-dematch stages are vectorized over the
        batch axis and the channel decoder runs a single batched trellis
        sweep (:meth:`ConvolutionalCode.decode_batch` /
        :meth:`TurboCode.decode_batch`).  Returns ``{"bits", "crc_ok"}``
        where ``bits`` is ``(batch, transport_block)`` and ``crc_ok`` a
        boolean array (or ``None`` without CRC), bit-identical to
        looping :meth:`decode` over the rows.  With a CRC, the turbo
        decoder retires a row early once its decision repeats and passes
        the CRC (``TurboCode.decode_batch(stop=...)``).

        A row holding any non-finite LLR (``nan``, ``+-inf``) is
        reported ``crc_ok = False``: the max-based decoders turn it into
        NaN path metrics and an all-zero word, which a zero-init CRC
        accepts.  A chain without CRC cannot flag such a row.
        """
        llr = np.asarray(llr, dtype=np.float64)
        if llr.ndim != 2:
            raise ValueError(f"expected a (batch, n) array, got shape {llr.shape}")
        if llr.shape[1] != self.physical_bits:
            raise ValueError(
                f"expected {self.physical_bits} LLRs per block, got {llr.shape[1]}"
            )
        deint = self._interleaver.deinterleave(llr)
        soft = rate_dematch(deint, self._coded_bits)
        if self.scheme is CodingScheme.NONE:
            msg = (soft < 0).astype(np.uint8)
        elif self.scheme is CodingScheme.CONVOLUTIONAL:
            msg = self.conv_code.decode_batch(soft, self._msg_bits, soft=True)
        else:
            stop = self.crc.check_batch if self.crc else None
            msg = self.turbo.decode_batch(soft, stop=stop)
        crc_ok = None
        if self.crc:
            crc_ok = self.crc.check_batch(msg) & np.isfinite(llr).all(axis=1)
            msg = msg[:, : -self.crc.width]
        return {"bits": msg, "crc_ok": crc_ok}
