"""Throughput benchmark of the batched burst-processing engine.

The paper's regenerative payload (Fig. 2) decodes *every* carrier of
*every* burst on board, so per-burst decode throughput is the payload's
capacity ceiling.  This benchmark is the repo's throughput-regression
baseline for the batching engine (see docs/performance.md): it measures
bursts/sec for the scalar (one-burst-per-call) path against the batched
path at several batch sizes, asserts the headline >= 5x speedup at
batch=16 on the UMTS rate-1/3 K=9 code, and checks bit-identity between
the two paths on every measured input.  The MF-TDMA front end is gated
the same way: ``TdmaModem.receive_batch`` over a 16-carrier stack must
reach >= 3x the per-carrier ``receive`` loop.  The ground-side
multiplexer too: ``multiplex_carriers`` (the polyphase synthesis bank)
over a ``(16, 544)`` stack must reach >= 8x the per-channel
``fftconvolve`` loop it replaced, and stay within 1e-11 of its peak.

Run modes
---------
- ``make test-perf`` / ``pytest benchmarks/bench_perf_burst_batch.py -s``
  -- full measurement, prints the bursts/sec tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- tiny blocks and a single repetition:
  exercises every code path and the bit-identity and closeness checks
  without timing assertions (shared-runner timings are noise);
- ``REPRO_OBS=1`` additionally wraps the run in an observability
  session, so the ``perf.viterbi`` / ``perf.turbo`` / ``perf.payload``
  counters and the ``perf.cache.*`` design-cache gauges land in the
  ``BENCH_METRICS.json`` snapshot.
"""

import os
import time

import numpy as np
import pytest
from scipy.signal import fftconvolve

from repro.caching import design_cache_stats
from repro.coding import TurboCode, UMTS_RATE_13
from repro.core.payload import PayloadConfig, RegenerativePayload
from repro.core.registry import default_registry
from repro.dsp.demux import multiplex_carriers
from repro.dsp.filters import design_lowpass
from repro.dsp.tdma import BurstFormat, TdmaModem
from repro.obs.probes import probe
from repro.sim import RngRegistry

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: tiny sizes, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")


@pytest.fixture(scope="module")
def rng():
    return RngRegistry(77).stream("perf-burst-batch")


def _time_per_call(fn, reps: int) -> float:
    fn()  # warm caches/JIT'd ufunc loops out of the measurement
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _gauge(name: str, batch: int, value: float) -> None:
    p = probe("perf.bench", bench="burst_batch", batch=str(batch))
    if p is not None:
        p.gauge(name, value)


def test_viterbi_burst_batch_throughput(rng):
    """Batched Viterbi >= 5x bursts/sec over scalar at batch=16 (rate 1/3 K=9)."""
    code = UMTS_RATE_13
    nbits = 32 if SMOKE else 260
    reps = 1 if SMOKE else 10
    batches = (2,) if SMOKE else (4, 16, 64)
    rows = []
    headline = None
    for nb in batches:
        msgs = rng.integers(0, 2, (nb, nbits)).astype(np.uint8)
        enc = np.stack([code.encode(m) for m in msgs])
        llrs = (1.0 - 2.0 * enc) + 0.5 * rng.standard_normal(enc.shape)

        batched = code.decode_batch(llrs, nbits)
        scalar = np.stack(
            [code.decode(llrs[i], nbits, soft=True) for i in range(nb)]
        )
        assert np.array_equal(batched, scalar), "batched != scalar decode"

        t_scalar = _time_per_call(
            lambda: [code.decode(llrs[i], nbits, soft=True) for i in range(nb)],
            reps,
        )
        t_batched = _time_per_call(lambda: code.decode_batch(llrs, nbits), reps)
        bps_s = nb / t_scalar
        bps_b = nb / t_batched
        ratio = bps_b / bps_s
        rows.append([nb, f"{bps_s:.0f}", f"{bps_b:.0f}", f"{ratio:.2f}x"])
        _gauge("viterbi_bursts_per_sec_scalar", nb, bps_s)
        _gauge("viterbi_bursts_per_sec_batched", nb, bps_b)
        if nb == 16:
            headline = ratio
    print_table(
        "batched Viterbi (UMTS rate-1/3 K=9) bursts/sec",
        ["batch", "scalar", "batched", "speedup"],
        rows,
    )
    if not SMOKE:
        assert headline is not None and headline >= 5.0, (
            f"batched Viterbi speedup {headline:.2f}x below the 5x target"
        )


def test_turbo_burst_batch_throughput(rng):
    """Batched max-log-MAP turbo decoding, bursts/sec vs the scalar loop."""
    k = 40 if SMOKE else 200
    nb = 2 if SMOKE else 16
    reps = 1 if SMOKE else 3
    tc = TurboCode(k, iterations=4)
    msgs = rng.integers(0, 2, (nb, k)).astype(np.uint8)
    enc = np.stack([tc.encode(m) for m in msgs])
    llrs = (1.0 - 2.0 * enc) * 2.0 + rng.standard_normal(enc.shape)

    batched = tc.decode_batch(llrs)
    scalar = np.stack([tc.decode(llrs[i]) for i in range(nb)])
    assert np.array_equal(batched, scalar), "batched != scalar turbo decode"

    t_scalar = _time_per_call(
        lambda: [tc.decode(llrs[i]) for i in range(nb)], reps
    )
    t_batched = _time_per_call(lambda: tc.decode_batch(llrs), reps)
    ratio = t_scalar / t_batched
    print_table(
        f"batched turbo (K={k}, 4 iter) bursts/sec",
        ["batch", "scalar", "batched", "speedup"],
        [[nb, f"{nb / t_scalar:.0f}", f"{nb / t_batched:.0f}", f"{ratio:.2f}x"]],
    )
    _gauge("turbo_bursts_per_sec_batched", nb, nb / t_batched)
    if not SMOKE:
        assert ratio >= 2.0, f"batched turbo speedup {ratio:.2f}x regressed"


def test_tdma_front_end_batch_throughput(rng):
    """One ``receive_batch`` over a ``(C, n)`` carrier stack >= 3x bursts/sec
    over the per-carrier ``receive`` loop at C=16 (traffic-world bursts)."""
    modem = TdmaModem(BurstFormat(preamble=16, uw=16, payload=96))
    reps, rounds = (1, 1) if SMOKE else (20, 3)
    carriers = (2,) if SMOKE else (8, 16)
    rows = []
    headline = None
    for nc in carriers:
        bits = rng.integers(0, 2, (nc, modem.bits_per_burst)).astype(np.uint8)
        tx = modem.transmit_batch(bits)
        # channelizer-like rows: a few samples of lead-in, so the rows of
        # one stack recover different strobe counts
        stack = np.zeros((nc, tx.shape[1] + 2 * modem.sps), dtype=np.complex128)
        for r in range(nc):
            stack[r, r % 4 : r % 4 + tx.shape[1]] = tx[r]
        stack += 0.1 * (
            rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
        )

        batched = modem.receive_batch(stack)
        for r in range(nc):
            scalar = modem.receive(stack[r])
            assert np.array_equal(batched[r]["bits"], scalar["bits"])
            assert np.array_equal(batched[r]["symbols"], scalar["symbols"])
            assert batched[r]["snr_db"] == scalar["snr_db"], "batched != scalar"
            assert np.array_equal(batched[r]["bits"], bits[r])

        # best of 3 rounds: sub-10 ms calls are at the mercy of host load
        t_scalar = min(
            _time_per_call(lambda: [modem.receive(x) for x in stack], reps)
            for _ in range(rounds)
        )
        t_batched = min(
            _time_per_call(lambda: modem.receive_batch(stack), reps)
            for _ in range(rounds)
        )
        ratio = t_scalar / t_batched
        rows.append(
            [nc, f"{nc / t_scalar:.0f}", f"{nc / t_batched:.0f}", f"{ratio:.2f}x"]
        )
        _gauge("tdma_bursts_per_sec_scalar", nc, nc / t_scalar)
        _gauge("tdma_bursts_per_sec_batched", nc, nc / t_batched)
        if nc == 16:
            headline = ratio
    print_table(
        "batched MF-TDMA receive (128-symbol QPSK bursts, sps 4) bursts/sec",
        ["carriers", "scalar", "batched", "speedup"],
        rows,
    )
    if not SMOKE:
        assert headline is not None and headline >= 3.0, (
            f"batched TDMA receive speedup {headline:.2f}x below the 3x target"
        )


def _loop_multiplex(bb: np.ndarray) -> np.ndarray:
    """The per-channel multiplexer: zero-stuff, ``fftconvolve`` with the
    scaled prototype, mix to ``k/m`` and sum, one channel at a time."""
    m, n = bb.shape
    total = n * m
    proto = design_lowpass(8 * m + 1, 0.5 / m * 0.8) * m
    t = np.arange(total)
    out = np.zeros(total, dtype=np.complex128)
    for k in range(m):
        up = np.zeros(total, dtype=np.complex128)
        up[::m] = bb[k]
        out += fftconvolve(up, proto)[:total] * np.exp(2j * np.pi * (k / m) * t)
    return out


def test_multiplex_synthesis_throughput(rng):
    """``multiplex_carriers`` >= 8x the per-channel ``fftconvolve`` loop
    on a ``(16, 544)`` stack (16 carriers of one mission-length burst)."""
    m, n = (4, 64) if SMOKE else (16, 544)
    reps, rounds = (1, 1) if SMOKE else (20, 3)
    bb = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    out = multiplex_carriers(bb, m)
    ref = _loop_multiplex(bb)
    assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref)), (
        "synthesis bank != per-channel loop"
    )

    # best of 3 rounds, as for the TDMA front end
    t_loop = min(
        _time_per_call(lambda: _loop_multiplex(bb), reps) for _ in range(rounds)
    )
    t_bank = min(
        _time_per_call(lambda: multiplex_carriers(bb, m), reps) for _ in range(rounds)
    )
    ratio = t_loop / t_bank
    print_table(
        f"ground multiplexer ({m} channels x {n} samples) per call",
        ["channels", "loop [ms]", "synthesis bank [ms]", "speedup"],
        [[m, f"{t_loop * 1e3:.3f}", f"{t_bank * 1e3:.3f}", f"{ratio:.2f}x"]],
    )
    _gauge("multiplex_calls_per_sec", m, 1.0 / t_bank)
    if not SMOKE:
        assert ratio >= 8.0, (
            f"synthesis bank speedup {ratio:.2f}x below the 8x target"
        )


def test_payload_uplink_batched_decode(rng):
    """End-to-end: process_uplink(decode=True) regenerates every carrier."""
    carriers = 2 if SMOKE else 4
    registry = default_registry(transport_block=100, physical_bits=512)
    payload = RegenerativePayload(
        PayloadConfig(num_carriers=carriers), registry=registry
    )
    payload.boot()
    chain = payload.decoder.behaviour()
    msgs = [rng.integers(0, 2, 100).astype(np.uint8) for _ in range(carriers)]
    wideband = payload.build_uplink([chain.encode(m) for m in msgs])

    t0 = time.perf_counter()
    out = payload.process_uplink(wideband, decode=True)
    dt = time.perf_counter() - t0

    decoded = out["decoded"]
    assert len(decoded) == carriers
    for k in range(carriers):
        assert decoded[k] is not None, f"carrier {k} skipped"
        assert decoded[k]["crc_ok"], f"carrier {k} CRC failed"
        assert np.array_equal(decoded[k]["bits"], msgs[k])
    print_table(
        "payload uplink, one batched decode call",
        ["carriers", "wall [ms]", "bursts/sec"],
        [[carriers, f"{dt * 1e3:.1f}", f"{carriers / dt:.0f}"]],
    )
    _gauge("payload_bursts_per_sec", carriers, carriers / dt)


def test_design_cache_gauges():
    """Publish design-cache hit/miss counters as perf.cache.* gauges."""
    stats = design_cache_stats()
    assert stats, "design caches should be registered by this point"
    rows = []
    for name, info in stats.items():
        rows.append([name, info["hits"], info["misses"], info["currsize"]])
        p = probe("perf.cache", cache=name)
        if p is not None:
            p.gauge("hits", float(info["hits"]))
            p.gauge("misses", float(info["misses"]))
            p.gauge("currsize", float(info["currsize"]))
    print_table(
        "design cache registry", ["cache", "hits", "misses", "size"], rows
    )
    # the benchmark above reuses srrc / trellis designs heavily
    total_hits = sum(i["hits"] for i in stats.values())
    assert total_hits >= 1, "expected at least one design-cache hit"
