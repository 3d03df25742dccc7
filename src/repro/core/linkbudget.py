"""Transparent vs regenerative link budgets (paper §2.1).

"Moreover regeneration of the signal on-board improves the global
budget link of the system which is of great interest when small and not
powerful transmitting user terminals are addressed."

The arithmetic behind that sentence:

- a **transparent** (bent-pipe) payload re-amplifies the uplink noise,
  so the end-to-end carrier-to-noise combines as
  ``1/(C/N)_tot = 1/(C/N)_up + 1/(C/N)_down``;
- a **regenerative** payload demodulates on board, so the two hops are
  independent binary channels and errors add:
  ``p_e2e = p_up + p_down - 2 p_up p_down``.

For weak uplinks (small user terminals) the transparent combination is
dominated by the uplink C/N while the regenerative link only pays the
uplink's *BER*, which coding on board can additionally clean up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.modem import theoretical_ber_bpsk
from ..dsp.special import erfcinv

__all__ = [
    "transparent_cn",
    "regenerative_ber",
    "transparent_ber",
    "cn_for_ber",
    "regenerative_margin_db",
    "shared_uplink_cn",
    "LinkComparison",
    "compare_payloads",
]


def _db_to_lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _lin_to_db(x: float) -> float:
    return 10.0 * float(np.log10(x))


def transparent_cn(up_cn_db: float, down_cn_db: float) -> float:
    """End-to-end C/N [dB] of a bent-pipe link (noise re-amplified)."""
    up = _db_to_lin(up_cn_db)
    down = _db_to_lin(down_cn_db)
    return _lin_to_db(1.0 / (1.0 / up + 1.0 / down))


def transparent_ber(up_cn_db: float, down_cn_db: float) -> float:
    """End-to-end BER of the transparent link (BPSK/QPSK per-bit)."""
    return theoretical_ber_bpsk(transparent_cn(up_cn_db, down_cn_db))


def regenerative_ber(up_cn_db: float, down_cn_db: float) -> float:
    """End-to-end BER with on-board demodulation/remodulation.

    Independent per-hop error events: a bit is wrong end-to-end when
    exactly one hop flipped it.
    """
    pu = theoretical_ber_bpsk(up_cn_db)
    pd = theoretical_ber_bpsk(down_cn_db)
    return pu + pd - 2.0 * pu * pd


def cn_for_ber(ber: float) -> float:
    """Inverse of :func:`theoretical_ber_bpsk`: the C/N [dB] that yields
    ``ber`` on a BPSK/QPSK AWGN link.

    ``Q(sqrt(2 * ebn0)) = ber  =>  ebn0 = erfcinv(2 ber)^2``.

    Raises for ``ber`` outside ``(0, 0.5)`` -- 0.5 is the no-information
    point and 0 needs infinite C/N.
    """
    if not 0.0 < ber < 0.5:
        raise ValueError("ber must be in (0, 0.5)")
    ebn0 = erfcinv(2.0 * ber) ** 2
    return _lin_to_db(ebn0)


def regenerative_margin_db(
    up_cn_db: float, down_cn_db: float, required_ber: float
) -> float:
    """Uplink margin [dB] of the regenerative link against a BER target.

    How many dB of *uplink* fade the regenerative payload absorbs before
    the end-to-end BER ``p_up + p_down - 2 p_up p_down`` exceeds
    ``required_ber``.  The downlink contribution is subtracted first: if
    the downlink alone already violates the target the margin is
    ``-inf`` (no uplink improvement can help).

    This is the quantity the FDIR degraded-mode policy
    (:mod:`repro.robustness.fdir.degraded`) thresholds when deciding to
    shed carriers under deep fades.
    """
    if not 0.0 < required_ber < 0.5:
        raise ValueError("required_ber must be in (0, 0.5)")
    pd = theoretical_ber_bpsk(down_cn_db)
    # solve p_up + p_down - 2 p_up p_down <= required for p_up
    denom = 1.0 - 2.0 * pd
    if denom <= 0.0:
        return float("-inf")
    p_up_allowed = (required_ber - pd) / denom
    if p_up_allowed <= 0.0:
        return float("-inf")
    if p_up_allowed >= 0.5:
        return float("inf")
    return up_cn_db - cn_for_ber(p_up_allowed)


def shared_uplink_cn(
    base_cn_db: float, fade_db: float, total_carriers: int, active_carriers: int
) -> float:
    """Per-carrier uplink C/N [dB] with power shared across carriers.

    A gateway-fed MF multiplex splits one HPA's power across the active
    carriers; shedding carriers concentrates the remaining power:

    ``cn = base - fade + 10 log10(total / active)``.

    ``base_cn_db`` is the clear-sky per-carrier C/N with all
    ``total_carriers`` active.  This is the arithmetic behind the
    degraded-mode trade: dropping the lowest-priority carriers buys
    margin for the ones that remain.
    """
    if total_carriers < 1 or active_carriers < 1:
        raise ValueError("carrier counts must be >= 1")
    if active_carriers > total_carriers:
        raise ValueError("active_carriers cannot exceed total_carriers")
    if fade_db < 0:
        raise ValueError("fade_db must be >= 0")
    return base_cn_db - fade_db + _lin_to_db(total_carriers / active_carriers)


@dataclass(frozen=True)
class LinkComparison:
    """One row of the transparent-vs-regenerative comparison."""

    up_cn_db: float
    down_cn_db: float
    transparent_cn_db: float
    transparent_ber: float
    regenerative_ber: float

    @property
    def regeneration_gain(self) -> float:
        """BER improvement factor from on-board regeneration."""
        if self.regenerative_ber <= 0:
            return float("inf")
        return self.transparent_ber / self.regenerative_ber


def compare_payloads(up_cn_db: float, down_cn_db: float) -> LinkComparison:
    """Compare both payload types on one up/down C/N operating point."""
    return LinkComparison(
        up_cn_db=up_cn_db,
        down_cn_db=down_cn_db,
        transparent_cn_db=transparent_cn(up_cn_db, down_cn_db),
        transparent_ber=transparent_ber(up_cn_db, down_cn_db),
        regenerative_ber=regenerative_ber(up_cn_db, down_cn_db),
    )
