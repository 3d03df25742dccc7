"""MF-TDMA framing and the burst-mode TDMA modem personality.

Implements the right-hand side of the paper's Fig. 3 and the access
scheme of the Fig. 2 payload: a multiple-frequency TDMA multiplex where
each carrier carries a slotted frame of bursts.  The modem's
waveform-specific block is **timing recovery** (Gardner [5] or
Oerder & Meyr [6], selected by burst length exactly as §2.3 prescribes);
everything downstream is shared with the CDMA personality.

Burst format: ``[preamble | unique word | payload]`` -- the alternating
preamble drives timing, the unique word (UW) resolves frame position and
carrier-phase ambiguity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filters import srrc, srrc_filter
from .modem import PskModem, estimate_snr_m2m4
from .carrier import carrier_lock_metric, frequency_estimate
from .timing import GardnerLoop, line_lock, line_tau, oerder_meyr_strobes, timing_line

__all__ = [
    "BurstFormat",
    "BurstSyncError",
    "SlotAssignment",
    "FramePlan",
    "TdmaModem",
    "default_uw",
]


class BurstSyncError(RuntimeError):
    """Burst synchronization failed (UW not found / burst truncated)."""

#: CCITT-style 20-symbol unique word with good aperiodic autocorrelation.
_UW_BITS = np.array(
    [0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0],
    dtype=np.uint8,
)


def default_uw(psk: PskModem, length: int = 20) -> np.ndarray:
    """A known unique-word symbol pattern for the given constellation."""
    nbits = length * psk.bits_per_symbol
    bits = np.resize(_UW_BITS, nbits)
    return psk.modulate(bits)


@dataclass(frozen=True)
class BurstFormat:
    """Symbol counts of the three burst fields."""

    preamble: int = 32
    uw: int = 20
    payload: int = 256

    @property
    def total(self) -> int:
        return self.preamble + self.uw + self.payload

    def __post_init__(self) -> None:
        if min(self.preamble, self.uw, self.payload) < 1:
            raise ValueError("all burst fields must be >= 1 symbol")


@dataclass(frozen=True)
class SlotAssignment:
    """One terminal's transmission opportunity in the MF-TDMA grid."""

    terminal: str
    carrier: int
    slot: int


@dataclass
class FramePlan:
    """MF-TDMA frame plan: a carriers x slots grid of assignments.

    The paper's complexity example uses **6 carriers**; that is the
    default here.  ``guard_fraction`` reserves part of every slot as
    guard time, absorbing terminal timing error so adjacent bursts never
    collide.
    """

    num_carriers: int = 6
    slots_per_frame: int = 8
    frame_duration: float = 0.024  # seconds (24 ms, S-UMTS-like)
    guard_fraction: float = 0.05
    assignments: list[SlotAssignment] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_carriers < 1 or self.slots_per_frame < 1:
            raise ValueError("grid dimensions must be >= 1")
        if not 0.0 <= self.guard_fraction < 0.5:
            raise ValueError("guard_fraction must be in [0, 0.5)")

    @property
    def slot_duration(self) -> float:
        return self.frame_duration / self.slots_per_frame

    @property
    def guard_time(self) -> float:
        """Guard interval at each end of a slot."""
        return self.slot_duration * self.guard_fraction

    @property
    def usable_slot_duration(self) -> float:
        """Slot time available to the burst itself."""
        return self.slot_duration * (1.0 - 2.0 * self.guard_fraction)

    def burst_window(self, slot: int, symbol_rate: float, burst_symbols: int
                     ) -> tuple[float, float]:
        """(start, end) seconds of a burst within the frame.

        Raises when the burst does not fit the usable slot at the given
        symbol rate -- the sizing check a frame plan must enforce.
        """
        if not 0 <= slot < self.slots_per_frame:
            raise ValueError(f"slot {slot} out of range")
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        duration = burst_symbols / symbol_rate
        if duration > self.usable_slot_duration + 1e-12:
            raise ValueError(
                f"burst of {burst_symbols} symbols ({duration*1e3:.2f} ms) "
                f"exceeds usable slot {self.usable_slot_duration*1e3:.2f} ms"
            )
        start = slot * self.slot_duration + self.guard_time
        return start, start + duration

    def max_burst_symbols(self, symbol_rate: float) -> int:
        """Largest burst (symbols) the usable slot accommodates."""
        if symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        return int(self.usable_slot_duration * symbol_rate)

    def release(self, terminal: str) -> int:
        """Free every slot held by ``terminal``; returns how many."""
        before = len(self.assignments)
        self.assignments = [a for a in self.assignments if a.terminal != terminal]
        return before - len(self.assignments)

    def assign(self, terminal: str, carrier: int, slot: int) -> SlotAssignment:
        """Reserve ``(carrier, slot)`` for ``terminal`` (must be free)."""
        if not 0 <= carrier < self.num_carriers:
            raise ValueError(f"carrier {carrier} out of range")
        if not 0 <= slot < self.slots_per_frame:
            raise ValueError(f"slot {slot} out of range")
        if self.occupant(carrier, slot) is not None:
            raise ValueError(f"slot ({carrier},{slot}) already assigned")
        sa = SlotAssignment(terminal, carrier, slot)
        self.assignments.append(sa)
        return sa

    def occupant(self, carrier: int, slot: int) -> str | None:
        """Terminal holding ``(carrier, slot)``, or None."""
        for sa in self.assignments:
            if sa.carrier == carrier and sa.slot == slot:
                return sa.terminal
        return None

    def utilization(self) -> float:
        """Fraction of the grid currently assigned."""
        return len(self.assignments) / (self.num_carriers * self.slots_per_frame)


class TdmaModem:
    """Burst-mode TDMA transmit/receive chain (Fig. 3, right branch).

    Transmit: bits -> PSK -> [preamble|UW|payload] -> SRRC shaping.
    Receive: SRRC matched filter -> timing recovery ([6] feedforward for
    short bursts, [5] Gardner loop for long ones) -> UW search ->
    data-aided phase -> demap.

    Parameters
    ----------
    burst:
        Field sizes; ``burst.payload`` caps the bits per burst.
    sps:
        Samples per symbol (>= 3 for the Oerder&Meyr estimator).
    beta, span:
        SRRC roll-off / span.
    modulation:
        PSK order (default QPSK).

    Timing recovery follows the paper's rule: feedforward for short
    bursts, the feedback loop for bursts longer than
    :attr:`AUTO_THRESHOLD` symbols.
    """

    #: burst length (symbols) above which the Gardner loop is used
    AUTO_THRESHOLD = 512

    def __init__(
        self,
        burst: BurstFormat | None = None,
        sps: int = 4,
        beta: float = 0.35,
        span: int = 8,
        modulation: int = 4,
        cfo_recovery: bool = False,
    ) -> None:
        if sps < 3:
            raise ValueError("TDMA modem needs sps >= 3")
        self.burst = burst or BurstFormat()
        self.sps = sps
        self.psk = PskModem(modulation)
        self.pulse = srrc(beta, sps, span)
        self._srrc = (beta, sps, span)
        self.cfo_recovery = cfo_recovery
        self.uw = default_uw(self.psk, self.burst.uw)
        # Alternating preamble (1010...) maximizes timing-line energy.
        pre_bits = np.resize(
            np.array([1, 0], dtype=np.uint8),
            self.burst.preamble * self.psk.bits_per_symbol,
        )
        self.preamble = self.psk.modulate(pre_bits)

    @property
    def bits_per_burst(self) -> int:
        """Payload capacity of one burst in bits."""
        return self.burst.payload * self.psk.bits_per_symbol

    # -- transmit -------------------------------------------------------
    def transmit(self, bits: np.ndarray) -> np.ndarray:
        """Build one SRRC-shaped burst carrying ``bits`` (padded to payload)."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        return self.transmit_batch(bits[None, :])[0]

    def transmit_batch(self, bits: np.ndarray) -> np.ndarray:
        """Build a ``(C, num_tx_samples())`` stack of bursts in one pass.

        Row ``r`` carries ``bits[r]`` (zero-padded to the payload), the
        same burst :meth:`transmit` builds from it: one stacked PSK map
        and one axis-1 SRRC convolution.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            raise ValueError(f"expected a (C, nbits) bit stack, got shape {bits.shape}")
        rows, nbits = bits.shape
        if nbits > self.bits_per_burst:
            raise ValueError(
                f"{nbits} bits exceed burst capacity {self.bits_per_burst}"
            )
        if not rows:
            return np.zeros((0, self.num_tx_samples()), dtype=np.complex128)
        padded = np.zeros((rows, self.bits_per_burst), dtype=np.uint8)
        padded[:, :nbits] = bits
        payload = self.psk.modulate(padded).reshape(rows, -1)
        x = np.zeros((rows, self.burst.total * self.sps), dtype=np.complex128)
        heads = np.concatenate([self.preamble, self.uw])
        x[:, : len(heads) * self.sps : self.sps] = heads
        x[:, len(heads) * self.sps :: self.sps] = payload
        return srrc_filter(x, *self._srrc, matched=False)

    def num_tx_samples(self) -> int:
        """Length of a transmitted burst in samples."""
        return self.burst.total * self.sps + len(self.pulse) - 1

    # -- receive ----------------------------------------------------------
    @property
    def timing_mode(self) -> str:
        """The timing recovery in use, chosen by burst length."""
        return "gardner" if self.burst.total > self.AUTO_THRESHOLD else "oerder-meyr"

    def _check_num_bits(self, num_bits: int | None) -> int:
        if num_bits is None:
            return self.bits_per_burst
        if num_bits < 0:
            raise ValueError(f"num_bits must be >= 0, got {num_bits}")
        if num_bits > self.bits_per_burst:
            raise ValueError("num_bits exceeds burst capacity")
        return num_bits

    def _recover_timing(self, mf: np.ndarray, c1: np.ndarray) -> list:
        """Per-row ``(symbols, timing diagnostics)`` of a matched-filter stack."""
        mode = self.timing_mode
        if mode == "oerder-meyr":
            tau = line_tau(c1, self.sps)
            strobes, counts = oerder_meyr_strobes(mf, tau, self.sps)
            return [
                (strobes[r, : counts[r]], {"timing_mode": mode, "tau": float(tau[r])})
                for r in range(len(mf))
            ]
        out = []
        for row in mf:
            loop = GardnerLoop(sps=self.sps, bn_ts=0.02)
            syms = loop.process(row)
            out.append((syms, {
                "timing_mode": mode,
                "tau": loop.tau,
                "tau_history": np.asarray(loop.tau_history),
            }))
        return out

    def receive(self, samples: np.ndarray, num_bits: int | None = None) -> dict:
        """Demodulate one burst (after channel impairments).

        Returns ``bits`` (the first ``num_bits`` payload bits), the
        de-rotated payload ``symbols``, the UW correlation peak
        ``uw_metric`` (normalized to 1 for a clean burst), timing
        diagnostics and the data-aided ``phase``.  A one-row view of
        :meth:`receive_batch`; raises :class:`BurstSyncError` when the
        burst cannot be synchronized.
        """
        x = np.asarray(samples, dtype=np.complex128)
        res = self.receive_batch(x[None, :], num_bits)[0]
        if isinstance(res, BurstSyncError):
            raise res
        return res

    def receive_batch(
        self, samples: np.ndarray, num_bits: int | None = None
    ) -> list[dict | BurstSyncError]:
        """Demodulate a ``(C, n)`` stack of bursts in one pass.

        The MF-TDMA front end's hot path: one axis-1 SRRC matched
        filter, one symbol-rate spectral line per row (serving both the
        Oerder&Meyr timing phase and the timing-lock metric), one
        gathered cubic interpolation over the padded strobe grid, one
        UW search over the zero-padded stack of every row's symbols,
        then stacked phase, demap, carrier-lock and M2M4 estimates.
        The Gardner loop and the CFO estimator stay per row.

        Returns one entry per row: the :meth:`receive` result dict, or
        the :class:`BurstSyncError` that row failed with -- a truncated,
        non-finite or unsynchronizable row fails alone.  Every row's
        floats are identical to a one-row call on it.
        """
        num_bits = self._check_num_bits(num_bits)
        x = np.asarray(samples, dtype=np.complex128)
        if x.ndim != 2:
            raise ValueError(f"expected a (C, n) burst stack, got shape {x.shape}")
        if not len(x):
            return []
        sps = self.sps
        # a non-finite row poisons only its own row of the filter
        with np.errstate(invalid="ignore", over="ignore"):
            mf = srrc_filter(x, *self._srrc, matched=True)
        if self.timing_mode == "oerder-meyr" and mf.shape[1] < 4 * sps:
            raise ValueError("burst too short for a timing estimate")
        results: list = [None] * len(x)
        finite = np.isfinite(mf).all(axis=1)
        if not finite.all():
            # fail those rows here, and zero them so that no NaN or inf
            # reaches the timing line or the strobe-count cast
            mf[~finite] = 0.0
            for r in np.flatnonzero(~finite):
                results[r] = BurstSyncError("burst has non-finite samples")
        c1, c0 = timing_line(mf, sps)
        lock = line_lock(c1, c0)
        recovered = self._recover_timing(mf, c1)
        rows, row_syms, tdiags = [], [], []
        for r, (syms, tdiag) in enumerate(recovered):
            if results[r] is not None:
                continue
            # optional feedforward CFO removal on the recovered symbols:
            # an M-power FFT estimate, resolvable to +-1/(2M) cycles/symbol
            if self.cfo_recovery and len(syms) >= 8:
                cfo = frequency_estimate(syms, order=self.psk.order)
                syms = syms * np.exp(-2j * np.pi * cfo * np.arange(len(syms)))
                tdiag["cfo"] = cfo
            if len(syms) < self.burst.total:
                results[r] = BurstSyncError(
                    "burst truncated: not enough recovered symbols"
                )
            else:
                rows.append(r)
                row_syms.append(syms)
                tdiags.append(tdiag)
        if not rows:
            return results
        # every synchronizable row, whatever its strobe count, goes
        # through one UW search on a zero-padded stack
        counts = np.array([len(syms) for syms in row_syms])
        stack = np.zeros((len(rows), counts.max()), dtype=np.complex128)
        for i, syms in enumerate(row_syms):
            stack[i, : counts[i]] = syms
        synced = self._sync_rows(stack, counts, lock[rows], tdiags, num_bits)
        for r, res in zip(rows, synced):
            results[r] = res
        return results

    def _sync_rows(
        self,
        syms: np.ndarray,
        counts: np.ndarray,
        lock: np.ndarray,
        tdiags: list,
        num_bits: int,
    ) -> list:
        """UW search, phase, demap and health estimates on a zero-padded
        symbol stack whose row ``r`` holds ``counts[r]`` symbols;
        ``lock`` and ``tdiags`` are the rows' timing results."""
        uw = self.uw
        nuw = len(uw)
        npay = self.burst.payload
        # correlate conj(uw) against each symbol stream, over symbol
        # offsets and the M-fold phase ambiguity.  Direct form, one
        # shifted slice per UW tap in a fixed order: every element sees
        # the same additions whatever the stack's shape, so a row's
        # floats do not depend on the rows stacked with it.
        span = syms.shape[1] - nuw + 1
        taps = np.conj(uw)
        sq = np.abs(syms) ** 2
        corr = syms[:, :span] * taps[0]
        energy = sq[:, :span].copy()
        for i in range(1, nuw):
            corr += syms[:, i : i + span] * taps[i]
            energy += sq[:, i : i + span]
        metric = np.abs(corr) / np.maximum(np.sqrt(energy * nuw), 1e-30)
        # offsets whose UW window runs into a row's padding are no match
        metric[np.arange(span) > (counts - nuw)[:, None]] = -1.0
        pos = np.argmax(metric, axis=1)
        ok = np.flatnonzero(pos + nuw + npay <= counts)
        out: list = [
            BurstSyncError("burst truncated after UW") for _ in range(len(syms))
        ]
        if not len(ok):
            return out
        p = pos[ok, None]
        rows = ok[:, None]
        head = syms[rows, p + np.arange(nuw)]
        payload = syms[rows, p + nuw + np.arange(npay)]
        phase = np.angle(np.sum(head * np.conj(uw), axis=1))
        payload = payload * np.exp(-1j * phase)[:, None]
        bits = self.psk.demodulate_hard(payload)[:, :num_bits]
        carrier_lock = carrier_lock_metric(payload, self.psk.order)
        snr_db = estimate_snr_m2m4(payload)
        for i, r in enumerate(ok):
            out[r] = {
                "bits": bits[i],
                "symbols": payload[i],
                "uw_metric": float(metric[r, pos[r]]),
                "uw_position": int(pos[r]),
                "phase": float(phase[i]),
                # per-burst health diagnostics consumed by repro.robustness.fdir
                "timing_lock": float(lock[r]),
                "carrier_lock": float(carrier_lock[i]),
                "snr_db": float(snr_db[i]),
                **tdiags[r],
            }
        return out
