"""Throughput benchmark of the table-driven GF(2) bit kernels.

Two per-bit Python loops sat on the mission path (§3.2 reconfiguration
service and the UMTS transmit chain):

- the SEC-DED EDAC of the on-board bitstream library, which encoded and
  decoded one byte at a time; it is now one gather from a ``(256, 13)``
  codeword table on store and one syndrome pass over the ``(n, 13)``
  word matrix on load;
- ``TransportChain.encode``, which ran the CRC, the convolutional or
  turbo encoder, rate matching and interleaving bit by bit; it is now
  one GF(2) product with a cached generator matrix.

Each test checks bit-identity against the per-bit code on every input,
then gates the speedup (best of 3 rounds): store+load of a traffic
world's full bitstream library >= 50x, and ``encode`` >= 5x per block
for the convolutional and turbo chains.

Run modes
---------
- ``make test-perf`` / ``pytest benchmarks/bench_perf_bitkernels.py -s``
  -- full measurement, prints the tables;
- ``REPRO_PERF_SMOKE=1`` (CI) -- a slice of the library and a few
  blocks, one round: code paths and bit-identity, no timing asserts;
- ``REPRO_OBS=1`` additionally records the ``perf.bench`` gauges.
"""

import os
import time

import numpy as np
import pytest

from repro.coding import CodingScheme, TransportChain
from repro.fpga.memory import OnboardMemory
from repro.obs.probes import probe
from repro.scenarios import build_traffic_world

from conftest import print_table

pytestmark = pytest.mark.perf

#: CI smoke mode: small inputs, no timing assertions.
SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") in ("1", "true", "yes")


def _best_of(fn, reps: int, rounds: int) -> float:
    """Best per-call time over ``rounds`` rounds of ``reps`` calls."""
    fn()  # warm caches out of the measurement
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def _gauge(name: str, value: float, **labels: str) -> None:
    p = probe("perf.bench", bench="bitkernels", **labels)
    if p is not None:
        p.gauge(name, value)


# -- the per-byte SEC-DED EDAC the tables replaced -----------------------------
_POSITIONS = np.arange(1, 13)
_DATA_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) != 0]
_PARITY_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) == 0]


def _ref_encode(byte):
    word = np.zeros(12, dtype=np.uint8)
    data = [(byte >> i) & 1 for i in range(8)]
    for pos, bit in zip(_DATA_POS, data):
        word[pos - 1] = bit
    for p in _PARITY_POS:
        covered = _POSITIONS[(np.bitwise_and(_POSITIONS, p)) != 0]
        word[p - 1] = np.bitwise_xor.reduce(word[covered - 1])
    overall = np.bitwise_xor.reduce(word)
    return np.concatenate([word, [overall]]).astype(np.uint8)


def _ref_decode(word):
    body = word[:-1].copy()
    overall = int(np.bitwise_xor.reduce(word))
    syndrome = 0
    for p in _PARITY_POS:
        covered = _POSITIONS[(np.bitwise_and(_POSITIONS, p)) != 0]
        if np.bitwise_xor.reduce(body[covered - 1]):
            syndrome |= int(p)
    if syndrome and overall:
        body[syndrome - 1] ^= 1
    byte = 0
    for i, pos in enumerate(_DATA_POS):
        byte |= int(body[pos - 1]) << i
    return byte


def _ref_store_load(files: dict) -> dict:
    words = {name: np.vstack([_ref_encode(b) for b in data]) for name, data in files.items()}
    return {name: bytes(_ref_decode(w) for w in ws) for name, ws in words.items()}


def _store_load(files: dict) -> dict:
    mem = OnboardMemory(8 << 20)
    for name, data in files.items():
        mem.store(name, data)
    return {name: mem.load(name) for name in files}


def test_edac_library_store_load_throughput():
    """Store+load of a traffic world's whole bitstream library >= 50x."""
    memory = build_traffic_world().payload.obc.library.memory
    files = {name: memory.load(name) for name in memory.files()}
    if SMOKE:
        files = {name: data[:64] for name, data in list(files.items())[:2]}
    total = sum(len(d) for d in files.values())

    assert _store_load(files) == files
    assert _ref_store_load(files) == files

    reps, rounds = (1, 1) if SMOKE else (1, 3)
    t_ref = _best_of(lambda: _ref_store_load(files), reps, rounds)
    t_new = _best_of(lambda: _store_load(files), 1 if SMOKE else 50, rounds)
    ratio = t_ref / t_new
    print_table(
        "SEC-DED EDAC: store+load of the traffic-world bitstream library",
        ["files", "bytes", "per-byte (ms)", "table kernels (ms)", "speedup"],
        [[len(files), total, f"{t_ref * 1e3:.2f}", f"{t_new * 1e3:.3f}", f"{ratio:.0f}x"]],
    )
    _gauge("edac_library_ms_per_byte_loop", t_ref * 1e3)
    _gauge("edac_library_ms_table", t_new * 1e3)
    if not SMOKE:
        assert ratio >= 50.0, f"EDAC store+load speedup {ratio:.1f}x below 50x"


@pytest.mark.parametrize(
    "scheme", [CodingScheme.CONVOLUTIONAL, CodingScheme.TURBO], ids=lambda s: s.value
)
def test_transport_encode_throughput(scheme):
    """Generator-matrix ``encode`` >= 5x per block over the per-bit stages."""
    sizes = (40,) if SMOKE else (40, 244)
    nblocks = 2 if SMOKE else 32
    reps, rounds = (1, 1) if SMOKE else (1, 3)
    rng = np.random.default_rng(14)
    rows = []
    worst = float("inf")
    for tb in sizes:
        chain = TransportChain(scheme, transport_block=tb)
        t0 = time.perf_counter()
        chain.generator  # derive (or fetch) the cached matrix
        t_build = time.perf_counter() - t0
        blocks = rng.integers(0, 2, (nblocks, tb)).astype(np.uint8)
        for block in blocks:
            assert np.array_equal(chain.encode(block), chain._encode_stages(block))

        t_ref = _best_of(lambda: [chain._encode_stages(b) for b in blocks], reps, rounds)
        t_new = _best_of(lambda: [chain.encode(b) for b in blocks], reps, rounds)
        ratio = t_ref / t_new
        worst = min(worst, ratio)
        rows.append(
            [
                tb,
                chain.physical_bits,
                f"{t_build * 1e3:.1f}",
                f"{t_ref / nblocks * 1e3:.3f}",
                f"{t_new / nblocks * 1e3:.4f}",
                f"{ratio:.1f}x",
            ]
        )
        _gauge("encode_ms_per_block_stages", t_ref / nblocks * 1e3, scheme=scheme.value, tb=str(tb))
        _gauge("encode_ms_per_block_matrix", t_new / nblocks * 1e3, scheme=scheme.value, tb=str(tb))
    print_table(
        f"TransportChain.encode ({scheme.value}) per block",
        ["transport block", "physical bits", "G first call (ms)", "per-bit (ms)", "matrix (ms)", "speedup"],
        rows,
    )
    if not SMOKE:
        assert worst >= 5.0, f"{scheme.value} encode speedup {worst:.1f}x below 5x"
