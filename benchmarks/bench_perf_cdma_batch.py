"""Throughput benchmark of the batched CDMA return-link engine.

The CDMA personality is the payload's multi-user direction (S-UMTS
return link, 2.048 Mcps): per-user demodulation throughput bounds how
many return channels one processor carries.  This benchmark is the
throughput-regression baseline for the batched engine in
``repro.dsp.cdma`` (see docs/performance.md): it measures bursts/sec
for the scalar one-burst ``receive`` loop against ``receive_batch`` at
several batch sizes, times the multi-user ``CdmaReturnBank`` against
per-user scalar demodulation of the same composite, asserts the
headline **>= 5x speedup at a 64-burst batch**, and checks bit-exact
equivalence between the paths on every measured input.  It also times
the payload's front door, ``process_return_link``, per composite (no
timing assertion) and checks that repeated calls re-derive nothing:
the return bank and the SRRC pulse spectrum are design-cache hits.

Run modes
---------
- ``make test-cdma-perf`` / ``pytest benchmarks/bench_perf_cdma_batch.py -s``
  -- full measurement, prints the bursts/sec tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- tiny sizes and a single repetition:
  exercises every code path and the equivalence checks without timing
  assertions (shared-runner timings are noise);
- ``REPRO_OBS=1`` additionally wraps the run in an observability
  session, so the ``perf.cdma.*`` counters and the ``cdma.*``
  design-cache gauges land in the ``BENCH_METRICS.json`` snapshot.
"""

import os
import time

import numpy as np
import pytest

from repro.caching import design_cache_stats
from repro.dsp.cdma import CdmaConfig, CdmaModem, CdmaReturnBank
from repro.obs.probes import probe
from repro.sim import RngRegistry

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: tiny sizes, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")

NUM_BITS = 32 if SMOKE else 128


@pytest.fixture(scope="module")
def rng():
    return RngRegistry(2010).stream("perf-cdma-batch")


def _time_per_call(fn, reps: int) -> float:
    fn()  # warm caches out of the measurement
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _gauge(name: str, batch: int, value: float) -> None:
    p = probe("perf.bench", bench="cdma_batch", batch=str(batch))
    if p is not None:
        p.gauge(name, value)


def _noisy_bursts(modem, rng, count, sigma=0.05):
    bursts, sent = [], []
    for _ in range(count):
        bits = rng.integers(0, 2, NUM_BITS).astype(np.uint8)
        tx = modem.transmit(bits)
        noise = sigma * (
            rng.standard_normal(len(tx)) + 1j * rng.standard_normal(len(tx))
        )
        bursts.append(tx + noise)
        sent.append(bits)
    return np.stack(bursts), sent


def _assert_batch_equals_scalar(modem, stack, batched):
    for i in range(len(stack)):
        scalar = modem.receive(stack[i], NUM_BITS)
        assert np.array_equal(batched[i]["bits"], scalar["bits"])
        assert np.array_equal(batched[i]["symbols"], scalar["symbols"])
        assert batched[i]["phase"] == scalar["phase"]
        assert batched[i]["acquisition"].phase == scalar["acquisition"].phase


def test_receive_batch_throughput(rng):
    """receive_batch >= 5x bursts/sec over the scalar loop at batch=64."""
    modem = CdmaModem(CdmaConfig(sf=16))
    reps = 1 if SMOKE else 5
    batches = (2,) if SMOKE else (4, 16, 64)
    rows = []
    headline = None
    for nb in batches:
        stack, sent = _noisy_bursts(modem, rng, nb)
        batched = modem.receive_batch(stack, NUM_BITS)
        # bit-exact equivalence enforced before anything is timed
        _assert_batch_equals_scalar(modem, stack, batched)
        for i, bits in enumerate(sent):
            assert np.array_equal(batched[i]["bits"], bits)

        t_scalar = _time_per_call(
            lambda: [modem.receive(stack[i], NUM_BITS) for i in range(nb)],
            reps,
        )
        t_batched = _time_per_call(
            lambda: modem.receive_batch(stack, NUM_BITS), reps
        )
        bps_s = nb / t_scalar
        bps_b = nb / t_batched
        ratio = bps_b / bps_s
        rows.append([nb, f"{bps_s:.0f}", f"{bps_b:.0f}", f"{ratio:.2f}x"])
        _gauge("cdma_bursts_per_sec_scalar", nb, bps_s)
        _gauge("cdma_bursts_per_sec_batched", nb, bps_b)
        if nb == 64:
            headline = ratio
    print_table(
        "batched CDMA receive (sf=16, QPSK) bursts/sec",
        ["batch", "scalar", "batched", "speedup"],
        rows,
    )
    if not SMOKE:
        assert headline is not None and headline >= 5.0, (
            f"batched CDMA speedup {headline:.2f}x below the 5x target"
        )


def test_return_bank_throughput(rng):
    """Multi-user bank vs per-user scalar demod of one composite."""
    users = 2 if SMOKE else 8
    reps = 1 if SMOKE else 5
    bank = CdmaReturnBank.for_users(users, CdmaConfig(sf=64))
    sent = [
        rng.integers(0, 2, NUM_BITS).astype(np.uint8) for _ in range(users)
    ]
    composite = bank.transmit(sent)
    composite = composite + 0.05 * (
        rng.standard_normal(len(composite))
        + 1j * rng.standard_normal(len(composite))
    )

    banked = bank.receive(composite, NUM_BITS)
    for u in range(users):
        scalar = bank.modems[u].receive(composite, NUM_BITS)
        assert np.array_equal(banked[u]["bits"], scalar["bits"])
        assert np.array_equal(banked[u]["symbols"], scalar["symbols"])
        assert np.array_equal(banked[u]["bits"], sent[u])

    t_scalar = _time_per_call(
        lambda: [bank.modems[u].receive(composite, NUM_BITS) for u in range(users)],
        reps,
    )
    t_bank = _time_per_call(lambda: bank.receive(composite, NUM_BITS), reps)
    ratio = t_scalar / t_bank
    print_table(
        f"CDMA return bank ({users} users, sf=64) users/sec",
        ["users", "scalar", "bank", "speedup"],
        [
            [
                users,
                f"{users / t_scalar:.0f}",
                f"{users / t_bank:.0f}",
                f"{ratio:.2f}x",
            ]
        ],
    )
    _gauge("cdma_users_per_sec_bank", users, users / t_bank)
    if not SMOKE:
        # the bank shares one matched filter + one acquisition FFT pass
        # across all users; anything under 2x means the fan-out broke
        assert ratio >= 2.0, f"bank speedup {ratio:.2f}x regressed"


def test_single_burst_latency(rng):
    """Scalar receive itself got faster: the settled pass is one GEMM."""
    modem = CdmaModem(CdmaConfig(sf=64))
    reps = 1 if SMOKE else 10
    stack, sent = _noisy_bursts(modem, rng, 1)
    out = modem.receive(stack[0], NUM_BITS)
    assert np.array_equal(out["bits"], sent[0])
    dt = _time_per_call(lambda: modem.receive(stack[0], NUM_BITS), reps)
    print_table(
        "single-burst CDMA receive latency (sf=64)",
        ["sf", "wall [ms]", "bursts/sec"],
        [[64, f"{dt * 1e3:.2f}", f"{1 / dt:.0f}"]],
    )
    _gauge("cdma_single_burst_sec", 1, dt)


def test_rake_gemm_throughput(rng):
    """GEMM rake despread: all fingers in one gather + reduction."""
    reps = 1 if SMOKE else 5
    modem = CdmaModem(CdmaConfig(sf=64))
    bits = rng.integers(0, 2, NUM_BITS).astype(np.uint8)
    tx = modem.transmit(bits)
    # two-path channel: echo 3 chips later at 60% amplitude
    echo = 3 * modem.config.chip_sps
    rx = np.concatenate([tx, np.zeros(echo, dtype=tx.dtype)])
    rx[echo:] += 0.6 * np.exp(1j * 1.1) * tx
    out = modem.receive_rake(rx, NUM_BITS)
    assert np.array_equal(out["bits"], bits)
    assert len(out["fingers"]) >= 2
    dt = _time_per_call(lambda: modem.receive_rake(rx, NUM_BITS), reps)
    print_table(
        "rake receive (sf=64, 2 paths)",
        ["fingers", "wall [ms]"],
        [[len(out["fingers"]), f"{dt * 1e3:.2f}"]],
    )
    _gauge("cdma_rake_sec", len(out["fingers"]), dt)


@pytest.fixture(scope="module")
def front_door(rng):
    """A payload booted with ``modem.cdma`` at SF64, plus composites of
    its 8-user (2 in smoke mode) return link."""
    from repro.core import PayloadConfig, RegenerativePayload
    from repro.core.registry import default_registry

    users = 2 if SMOKE else 8
    payload = RegenerativePayload(
        PayloadConfig(num_carriers=1, fpga_rows=8, fpga_cols=8, fpga_bits_per_clb=32),
        default_registry(cdma_config=CdmaConfig(sf=64)),
    )
    payload.boot(modem="modem.cdma")
    bank = CdmaReturnBank.for_users(users, payload.demods[0].behaviour().config)
    composites = []
    for _ in range(2 if SMOKE else 20):
        sent = [rng.integers(0, 2, NUM_BITS).astype(np.uint8) for _ in range(users)]
        comp = bank.transmit(sent)
        comp = comp + 0.02 * (
            rng.standard_normal(len(comp)) + 1j * rng.standard_normal(len(comp))
        )
        composites.append((comp, sent))
    return payload, users, composites


def test_return_link_front_door(front_door):
    """``process_return_link`` per composite on a booted payload."""
    payload, users, composites = front_door
    for comp, sent in composites:
        out = payload.process_return_link(comp, users, NUM_BITS)
        for got, bits in zip(out["bits"], sent):
            assert np.array_equal(got, bits)
    t0 = time.perf_counter()
    for comp, _ in composites:
        payload.process_return_link(comp, users, NUM_BITS)
    dt = (time.perf_counter() - t0) / len(composites)
    print_table(
        f"process_return_link ({users} users, sf=64) per composite",
        ["users", "wall [ms]", "composites/sec"],
        [[users, f"{dt * 1e3:.2f}", f"{1 / dt:.0f}"]],
    )
    _gauge("cdma_return_link_sec", users, dt)


def test_design_cache_gauges(front_door):
    """The cdma.* code tables, the return bank and the SRRC pulse
    spectrum are registered, and repeated return-link calls hit them."""
    payload, users, composites = front_door
    comp, _ = composites[0]
    payload.process_return_link(comp, users, NUM_BITS)
    before = design_cache_stats()
    payload.process_return_link(comp, users, NUM_BITS)
    payload.process_return_link(comp, users, NUM_BITS)
    stats = design_cache_stats()
    # a repeated call builds no bank and transforms no pulse
    for name in ("cdma.return_bank", "dsp.srrc_spectrum"):
        assert stats[name]["hits"] == before[name]["hits"] + 2, name
        assert stats[name]["misses"] == before[name]["misses"], name
    cdma = {k: v for k, v in stats.items() if k.startswith("cdma.")}
    assert set(cdma) >= {
        "cdma.m_sequence",
        "cdma.gold_code",
        "cdma.ovsf_code",
        "cdma.spreading_code",
        "cdma.acq_code_fft",
        "cdma.return_bank",
    }
    cdma["dsp.srrc_spectrum"] = stats["dsp.srrc_spectrum"]
    rows = []
    for name, info in sorted(cdma.items()):
        rows.append([name, info["hits"], info["misses"], info["currsize"]])
        p = probe("perf.cache", cache=name)
        if p is not None:
            p.gauge("hits", float(info["hits"]))
            p.gauge("misses", float(info["misses"]))
            p.gauge("currsize", float(info["currsize"]))
    print_table(
        "cdma design cache registry", ["cache", "hits", "misses", "size"], rows
    )
    # every receive re-derives nothing: the spreading code and the
    # acquisition FFT tables must be cache hits after the first burst
    assert cdma["cdma.spreading_code"]["hits"] >= 1
    assert cdma["cdma.acq_code_fft"]["hits"] >= 1
