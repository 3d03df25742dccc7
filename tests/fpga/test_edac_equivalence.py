"""Equivalence tests: the table-driven SEC-DED EDAC == the per-byte code.

``OnboardMemory`` encodes a file with one gather from a ``(256, 13)``
codeword table and decodes it with one syndrome pass over the whole
``(n, 13)`` word matrix; ``hamming_encode``/``hamming_decode`` are
one-row views of those kernels.  The per-byte implementation they
replaced is kept verbatim below (``_ref_*``) and pinned against them
exhaustively: every byte under every error pattern of up to three bits,
and whole store/upset/scrub/load sequences on a seeded RNG.

The one intended difference: a three-bit upset whose syndrome is 13-15
with odd overall parity made the reference index past the 12-bit body
(``IndexError``); the kernels classify it as uncorrectable.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.fpga.memory import (
    OnboardMemory,
    _decode_words,
    _ENCODE_TABLE,
    _STATUS,
    _File,
    hamming_decode,
    hamming_encode,
)
from repro.sim import RngRegistry

pytestmark = pytest.mark.perf

# -- the replaced per-byte implementation, verbatim ---------------------------
_DATA_BITS = 8
_PARITY_BITS = 4
_EXTRA = 1
_WORD_BITS = _DATA_BITS + _PARITY_BITS + _EXTRA

_POSITIONS = np.arange(1, _DATA_BITS + _PARITY_BITS + 1)
_DATA_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) != 0]
_PARITY_POS = _POSITIONS[(_POSITIONS & (_POSITIONS - 1)) == 0]


def _ref_hamming_encode(byte):
    if not 0 <= byte < 256:
        raise ValueError("byte out of range")
    word = np.zeros(_DATA_BITS + _PARITY_BITS, dtype=np.uint8)
    data = [(byte >> i) & 1 for i in range(_DATA_BITS)]
    for pos, bit in zip(_DATA_POS, data):
        word[pos - 1] = bit
    for p in _PARITY_POS:
        covered = _POSITIONS[(np.bitwise_and(_POSITIONS, p)) != 0]
        word[p - 1] = np.bitwise_xor.reduce(word[covered - 1])
    overall = np.bitwise_xor.reduce(word)
    return np.concatenate([word, [overall]]).astype(np.uint8)


def _ref_hamming_decode(word):
    word = np.asarray(word, dtype=np.uint8)
    if word.shape != (_WORD_BITS,):
        raise ValueError(f"word must have {_WORD_BITS} bits")
    body = word[:-1].copy()
    overall = int(np.bitwise_xor.reduce(word))
    syndrome = 0
    for p in _PARITY_POS:
        covered = _POSITIONS[(np.bitwise_and(_POSITIONS, p)) != 0]
        if np.bitwise_xor.reduce(body[covered - 1]):
            syndrome |= int(p)
    status = "ok"
    if syndrome and overall:
        # single error at position `syndrome` -> correct
        body[syndrome - 1] ^= 1
        status = "corrected"
    elif syndrome and not overall:
        status = "double"
    elif not syndrome and overall:
        # error in the overall parity bit itself
        status = "corrected"
    byte = 0
    for i, pos in enumerate(_DATA_POS):
        byte |= int(body[pos - 1]) << i
    return byte, status


class _RefMemory(OnboardMemory):
    """``OnboardMemory`` with the pre-table file operations, verbatim."""

    def store(self, name, data):
        old = len(self._files[name].words) if name in self._files else 0
        if len(data) > self.free_bytes + old:
            raise MemoryError(
                f"storing {len(data)} bytes exceeds free capacity {self.free_bytes + old}"
            )
        words = np.vstack([_ref_hamming_encode(b) for b in data]) if data else np.zeros(
            (0, _WORD_BITS), dtype=np.uint8
        )
        self._files[name] = _File(name, words)

    def load(self, name):
        f = self._get(name)
        out = bytearray()
        for i in range(len(f.words)):
            byte, status = _ref_hamming_decode(f.words[i])
            if status == "double":
                raise IOError(f"uncorrectable EDAC error in {name!r} at byte {i}")
            out.append(byte)
        return bytes(out)

    def scrub(self):
        fixed = 0
        for f in self._files.values():
            for i in range(len(f.words)):
                byte, status = _ref_hamming_decode(f.words[i])
                if status == "corrected":
                    f.words[i] = _ref_hamming_encode(byte)
                    fixed += 1
        self.scrub_corrections += fixed
        return fixed


# -- every byte x every error pattern of weight <= 3 ---------------------------
_PATTERNS = [c for w in range(4) for c in combinations(range(_WORD_BITS), w)]


def _corrupted_words() -> tuple[np.ndarray, np.ndarray]:
    """``(256 * 378, 13)`` words: each codeword under each pattern."""
    flips = np.zeros((len(_PATTERNS), _WORD_BITS), dtype=np.uint8)
    for i, pattern in enumerate(_PATTERNS):
        flips[i, list(pattern)] = 1
    words = _ENCODE_TABLE[:, None, :] ^ flips[None, :, :]
    byte = np.repeat(np.arange(256), len(_PATTERNS))
    return words.reshape(-1, _WORD_BITS), byte


def test_pattern_count():
    assert len(_PATTERNS) == 1 + 13 + 78 + 286 == 378


def test_encode_table_matches_reference():
    for byte in range(256):
        ref = _ref_hamming_encode(byte)
        np.testing.assert_array_equal(_ENCODE_TABLE[byte], ref)
        word = hamming_encode(byte)
        np.testing.assert_array_equal(word, ref)
        assert word.dtype == np.uint8 and word.flags.writeable
    assert not _ENCODE_TABLE.flags.writeable


def test_exhaustive_decode_matches_reference():
    """All 256 bytes x 378 patterns: same byte and status as the reference.

    Where the reference crashes (syndrome 13-15, odd parity: three
    upsets), the kernel must report ``"double"``.
    """
    words, _ = _corrupted_words()
    data, status = _decode_words(words)
    crashed = 0
    for i, word in enumerate(words):
        try:
            ref_byte, ref_status = _ref_hamming_decode(word)
        except IndexError:
            crashed += 1
            assert _STATUS[status[i]] == "double", i
            continue
        assert _STATUS[status[i]] == ref_status, i
        if ref_status != "double":
            assert data[i] == ref_byte, i
    assert crashed > 0  # the fixed crash is reachable from three upsets


def test_scalar_decode_is_a_row_of_the_kernel():
    words, _ = _corrupted_words()
    sample = words[:: 97]
    data, status = _decode_words(sample)
    for i, word in enumerate(sample):
        byte, st = hamming_decode(word)
        assert st == _STATUS[status[i]]
        if st != "double":
            assert byte == data[i]


def test_up_to_one_upset_recovers_every_byte():
    words, byte = _corrupted_words()
    data, status = _decode_words(words)
    weight = np.tile([len(p) for p in _PATTERNS], 256)
    assert np.array_equal(data[weight <= 1], byte[weight <= 1])
    assert np.all(status[weight == 2] == 2)


# -- file operations on a seeded RNG -------------------------------------------
def _upset_random_bits(mem, count, rng):
    """Flip ``count`` stored bits drawn uniformly over every file."""
    names = sorted(mem._files)
    sizes = np.array([mem._files[n].words.size for n in names])
    if not sizes.sum():
        return
    bounds = np.cumsum(sizes)
    for idx in rng.integers(0, bounds[-1], size=count):
        fi = int(np.searchsorted(bounds, idx, side="right"))
        local = idx - (bounds[fi - 1] if fi else 0)
        mem._files[names[fi]].words.reshape(-1)[local] ^= 1


def _state(mem):
    return (
        {n: f.words.copy() for n, f in mem._files.items()},
        mem.scrub_corrections,
        mem.used_bytes,
    )


def _assert_same_state(a, b):
    wa, ca, ua = _state(a)
    wb, cb, ub = _state(b)
    assert sorted(wa) == sorted(wb)
    for name in wa:
        assert wb[name].shape == wa[name].shape and wb[name].dtype == wa[name].dtype
        np.testing.assert_array_equal(wb[name], wa[name])
    assert (ca, ua) == (cb, ub)


def _load_outcome(mem, name):
    try:
        return mem.load(name)
    except IOError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_file_operations_match_reference(seed):
    rng = np.random.default_rng(seed)
    files = {
        f"f{k}.bit": rng.integers(0, 256, int(rng.integers(0, 400))).astype(np.uint8).tobytes()
        for k in range(4)
    }
    ref, new = _RefMemory(1 << 16), OnboardMemory(1 << 16)
    for mem in (ref, new):
        for name, data in files.items():
            mem.store(name, data)
    _assert_same_state(ref, new)
    for step in range(6):
        # sparse upsets: a triple in one word would crash the reference scrub
        count = int(rng.integers(0, 12))
        for mem in (ref, new):
            _upset_random_bits(mem, count, RngRegistry(seed).stream(f"seu{step}"))
        _assert_same_state(ref, new)
        for name in files:
            assert _load_outcome(new, name) == _load_outcome(ref, name)
        if step % 2:
            assert new.scrub() == ref.scrub()
            _assert_same_state(ref, new)
