"""C2 -- §2.3 decoder reconfiguration: the three UMTS coding options.

BER vs Eb/N0 for uncoded / convolutional / turbo transport chains.  The
shape claim: at equal Eb/N0 the coded chains beat uncoded by orders of
magnitude, and the three decoder architectures differ enough (gate
model) that swapping them requires a reload -- the paper's motivation.
The last test guards the turbo decoder's CRC-aided early stopping
against silent corruption.
"""

import numpy as np

from conftest import print_table
from repro import obs
from repro.coding import CRC8, CRC16, CodingScheme, TransportChain, rate_dematch
from repro.dsp.modem import ebn0_to_sigma, theoretical_ber_bpsk
from repro.sim import RngRegistry


def _ber(scheme, ebn0_db, blocks, rng):
    chain = TransportChain(scheme, transport_block=200)
    sigma = ebn0_to_sigma(ebn0_db, 1, code_rate=chain.effective_rate)
    errors = total = 0
    for _ in range(blocks):
        bits = rng.integers(0, 2, 200).astype(np.uint8)
        x = 1.0 - 2.0 * chain.encode(bits).astype(float)
        y = x + sigma * rng.standard_normal(len(x))
        errors += int(np.count_nonzero(chain.decode(2 * y / sigma**2)["bits"] != bits))
        total += 200
    return errors / total


def test_ber_vs_ebn0_all_schemes(benchmark, rng_registry):
    grid = [2.0, 4.0, 6.0]
    blocks = 12

    def run():
        table = {}
        for scheme in CodingScheme:
            table[scheme] = [
                _ber(scheme, e, blocks, rng_registry.stream(f"{scheme}-{e}"))
                for e in grid
            ]
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for i, e in enumerate(grid):
        rows.append(
            [f"{e:.0f} dB", f"{theoretical_ber_bpsk(e):.2e}"]
            + [f"{table[s][i]:.2e}" for s in CodingScheme]
        )
    print_table(
        "C2: transport-chain BER vs Eb/N0 (200-bit blocks)",
        ["Eb/N0", "BPSK theory", "uncoded", "convolutional", "turbo"],
        rows,
    )
    # shape: coded << uncoded at 4 dB and above
    unc = table[CodingScheme.NONE]
    conv = table[CodingScheme.CONVOLUTIONAL]
    turbo = table[CodingScheme.TURBO]
    assert conv[1] < unc[1] / 5
    assert turbo[1] < unc[1] / 5
    # uncoded tracks theory within Monte-Carlo noise
    assert 0.3 * theoretical_ber_bpsk(2.0) < unc[0] < 3 * theoretical_ber_bpsk(2.0)


def test_turbo_iteration_ablation(benchmark, rng_registry):
    """Ablation: decoder iterations trade compute for BER -- the knob
    an on-board reconfigurable decoder can even retune in flight."""
    from repro.coding import TurboCode

    def run():
        ebn0 = 1.2
        k = 320
        blocks = 10
        tc = TurboCode(k, iterations=8)
        sigma = ebn0_to_sigma(ebn0, 1, code_rate=tc.rate)
        rng = rng_registry.stream("iters")
        per_iter = np.zeros(8)
        for _ in range(blocks):
            bits = rng.integers(0, 2, k).astype(np.uint8)
            x = 1.0 - 2.0 * tc.encode(bits).astype(float)
            y = x + sigma * rng.standard_normal(len(x))
            _, history = tc.decode(2 * y / sigma**2, return_iterations=True)
            for i, dec in enumerate(history):
                per_iter[i] += np.count_nonzero(dec != bits)
        return per_iter / (blocks * k)

    bers = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "ablation: turbo BER vs decoder iterations (1.2 dB, 320-bit blocks)",
        ["iteration", "BER"],
        [[i + 1, f"{b:.2e}"] for i, b in enumerate(bers)],
    )
    assert bers[-1] <= bers[0]  # iterations help (or converge)
    assert bers[0] > 0  # the starting point has work to do


def test_decoder_swap_changes_qos_point(benchmark, rng_registry):
    """One chain object per personality: swapping moves the QoS point."""

    def run():
        low = _ber(CodingScheme.NONE, 3.0, 10, rng_registry.stream("swap-n"))
        high = _ber(CodingScheme.TURBO, 3.0, 10, rng_registry.stream("swap-t"))
        return low, high

    unc, turbo = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nQoS at 3 dB: uncoded BER {unc:.2e} -> turbo BER {turbo:.2e}")
    assert turbo < unc / 10


def _stop_vs_full(crc, transport_block, ebn0, blocks, rng):
    """Block errors, undetected errors and mean iterations: early stopping vs 6 iterations.

    Early stopping is :meth:`TransportChain.decode_batch`; the reference
    is the chain's turbo decoder on the same soft input with
    ``stop=None``, followed by the CRC check.  An undetected error is a
    wrong block whose CRC passes.
    """
    chain = TransportChain(CodingScheme.TURBO, transport_block=transport_block, crc=crc)
    sigma = ebn0_to_sigma(ebn0, 1, code_rate=chain.effective_rate)
    msgs = rng.integers(0, 2, (blocks, transport_block)).astype(np.uint8)
    x = 1.0 - 2.0 * np.stack([chain.encode(m) for m in msgs])
    llr = 2.0 * (x + sigma * rng.standard_normal(x.shape)) / sigma**2
    soft = rate_dematch(chain._interleaver.deinterleave(llr), chain.coded_bits)
    k = str(chain.turbo.k)
    with obs.session() as (reg, _):
        out = chain.decode_batch(llr)
        stop_iters = reg.value("perf.turbo.iterations", k=k)
        full = chain.turbo.decode_batch(soft)
        full_iters = reg.value("perf.turbo.iterations", k=k) - stop_iters
    counts = {}
    for name, bits, ok, iters in (
        ("stop", out["bits"], out["crc_ok"], stop_iters),
        ("full", full[:, :transport_block], crc.check_batch(full), full_iters),
    ):
        wrong = (bits != msgs).any(axis=1)
        counts[name] = (int(wrong.sum()), int((wrong & ok).sum()), iters / blocks)
    return counts


def test_early_stopping_never_adds_block_or_undetected_errors(benchmark, rng_registry):
    """Silent-corruption guard for the turbo decoder's CRC-aided early stopping.

    Retiring a block once its decision repeats and passes the CRC must
    give no more block errors and no more undetected errors (wrong bits
    with the CRC passing) than running all 6 iterations.  The CRC-16
    rows are the missions' chain; the CRC-8 rows, the weakest UMTS
    CRC, make a premature stop show up as undetected errors at this
    sample size (stopping on the first CRC pass alone fails there).
    """
    grid = [(CRC16, 40, e, 500) for e in (0.0, 1.0, 2.0, 3.0)]
    grid += [(CRC16, 244, e, 60) for e in (0.0, 1.0, 2.0, 3.0)]
    grid += [(CRC8, 40, e, 500) for e in (0.0, 1.0, 2.0, 3.0)]

    def run():
        table = []
        for crc, tb, e, n in grid:
            rng = rng_registry.stream(f"stop-{crc.name}-{tb}-{e}")
            table.append((crc, tb, e, n, _stop_vs_full(crc, tb, e, n, rng)))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for crc, tb, e, n, c in table:
        rows.append(
            [crc.name, tb, f"{e:.0f} dB", n]
            + [f"{c['stop'][0] / n:.3f}", c["stop"][1], f"{c['stop'][2]:.2f}"]
            + [f"{c['full'][0] / n:.3f}", c["full"][1], f"{c['full'][2]:.2f}"]
        )
    print_table(
        "C2: turbo early stopping (decision repeats + CRC) vs 6 iterations",
        ["CRC", "block", "Eb/N0", "blocks", "BLER stop", "undet. stop", "iters stop",
         "BLER 6 it", "undet. 6 it", "iters 6 it"],
        rows,
    )
    for crc, tb, e, n, c in table:
        assert c["stop"][0] <= c["full"][0], (crc.name, tb, e, c)
        assert c["stop"][1] <= c["full"][1], (crc.name, tb, e, c)
        assert c["full"][2] == 6 and c["stop"][2] < 6
