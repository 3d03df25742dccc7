"""GF(2) linear-map kernels for the bit-level encoders.

Every stage of the UMTS transmit chain is linear over GF(2) with a zero
start state: CRC attachment, the terminated convolutional and RSC/turbo
encoders (tails included) and the rate-matching / interleaving index
maps.  Such a map is fully described by its images of the ``k`` unit
vectors, so one ``(k, n)`` **generator matrix** replaces a bit-serial
loop with one product: ``y = (x @ G) & 1``.

The matrices are derived from the bit-serial encoders, which stay the
definitions; the kernels here only replay them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..caching import freeze

__all__ = ["generator_matrix", "gf2_matmul"]

#: float32 represents every integer below this exactly
_FLOAT32_EXACT = 1 << 24


def generator_matrix(encode: Callable[[np.ndarray], np.ndarray], k: int) -> np.ndarray:
    """The read-only ``(k, n)`` generator matrix of a GF(2)-linear ``encode``.

    Row ``i`` is ``encode(e_i)``.  The matrix is stored as ``float32``
    so :func:`gf2_matmul` runs as one BLAS product: its entries are 0/1
    and it has fewer than ``2**24`` rows, so every column sum, and so
    the float arithmetic, is exact.  Raises ``ValueError`` when
    ``encode`` maps the zero block to a nonzero word (it is then
    affine, not linear).
    """
    if np.any(encode(np.zeros(k, dtype=np.uint8))):
        raise ValueError("encoder is not linear: encode(0) != 0")
    rows = np.stack([encode(unit) for unit in np.eye(k, dtype=np.uint8)])
    return freeze(rows.astype(np.float32))


def gf2_matmul(bits: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``(bits @ matrix) mod 2`` as uint8, for 0/1 ``bits`` of shape ``(..., k)``."""
    if matrix.shape[0] >= _FLOAT32_EXACT:
        raise ValueError(f"{matrix.shape[0]} rows: float32 sums are exact below 2**24")
    prod = np.asarray(bits, dtype=np.float32) @ matrix
    return (prod.astype(np.int64) & 1).astype(np.uint8)
