"""Quantizing ADC / DAC models.

The paper's payload digitizes a 500 MHz band at IF with ADCs before the
digital beam-forming network (Fig. 2).  We model the conversion as a
uniform mid-rise quantizer with saturation, applied independently to I
and Q, which captures the two effects that matter to the downstream DSP:
quantization noise floor and clipping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adc", "Dac", "quantize"]


def quantize(x: np.ndarray, bits: int, full_scale: float = 1.0) -> np.ndarray:
    """Uniform mid-rise quantization with saturation.

    Real and imaginary parts are quantized independently.  The quantizer
    has ``2**bits`` levels spanning ``[-full_scale, +full_scale)``.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if full_scale <= 0:
        raise ValueError("full_scale must be positive")
    x = np.asarray(x)
    step = 2.0 * full_scale / (1 << bits)

    def _q(re: np.ndarray) -> np.ndarray:
        idx = np.floor(re / step)
        np.clip(idx, -(1 << (bits - 1)), (1 << (bits - 1)) - 1, out=idx)
        return (idx + 0.5) * step

    if np.iscomplexobj(x):
        return _q(x.real.astype(np.float64)) + 1j * _q(x.imag.astype(np.float64))
    return _q(x.astype(np.float64))


class Adc:
    """ADC model: sample-and-hold is assumed ideal; quantization is not.

    Attributes
    ----------
    bits:
        Resolution in bits per rail.
    full_scale:
        Saturation amplitude per rail.
    sample_rate:
        Informational sample rate in Hz (used by front-end bookkeeping).
    """

    def __init__(self, bits: int = 8, full_scale: float = 1.0, sample_rate: float = 1.0):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self.full_scale = full_scale
        self.sample_rate = sample_rate

    def convert(self, x: np.ndarray) -> np.ndarray:
        """Quantize a block of (complex) baseband samples."""
        return quantize(x, self.bits, self.full_scale)


class Dac:
    """DAC model: quantize then (ideally) reconstruct.

    The transmit side of the payload (Fig. 2) re-converts the processed
    digital signal; we reuse the same quantizer characteristics.
    """

    def __init__(self, bits: int = 12, full_scale: float = 1.0):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bits = bits
        self.full_scale = full_scale

    def convert(self, x: np.ndarray) -> np.ndarray:
        """Quantize digital samples to the DAC's output grid."""
        return quantize(x, self.bits, self.full_scale)
