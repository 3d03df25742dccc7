"""Tests for on-board memory/EDAC, the ASIC model and the gate model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import (
    MH1RT,
    GateModel,
    Mh1rtAsic,
    OnboardMemory,
    cdma_demodulator_gates,
    tdma_timing_recovery_gates,
    turbo_decoder_gates,
    viterbi_decoder_gates,
)
from repro.fpga.asic import MH1RT_018, MH1RT_025
from repro.fpga.memory import hamming_decode, hamming_encode


class TestHamming:
    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, byte):
        word = hamming_encode(byte)
        out, status = hamming_decode(word)
        assert out == byte and status == "ok"

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_error_corrected_property(self, byte, pos):
        word = hamming_encode(byte)
        word[pos] ^= 1
        out, status = hamming_decode(word)
        assert out == byte
        assert status == "corrected"

    def test_double_error_detected(self):
        word = hamming_encode(0xA5)
        word[0] ^= 1
        word[5] ^= 1
        _, status = hamming_decode(word)
        assert status == "double"

    def test_three_bit_upset_is_uncorrectable_not_a_crash(self):
        """Positions 1, 4, 8 give syndrome 13 with odd parity: no such bit."""
        word = hamming_encode(0xA5)
        word[[0, 3, 7]] ^= 1
        _, status = hamming_decode(word)
        assert status == "double"

    def test_validation(self):
        with pytest.raises(ValueError):
            hamming_encode(256)
        with pytest.raises(ValueError):
            hamming_decode(np.zeros(5, dtype=np.uint8))


class TestOnboardMemory:
    def test_store_load_roundtrip(self):
        m = OnboardMemory(1 << 16)
        m.store("cfg.bit", b"hello bitstream")
        assert m.load("cfg.bit") == b"hello bitstream"

    def test_capacity_enforced(self):
        m = OnboardMemory(capacity_bytes=10)
        with pytest.raises(MemoryError):
            m.store("big", b"x" * 11)

    def test_replace_frees_old_space(self):
        m = OnboardMemory(capacity_bytes=10)
        m.store("f", b"x" * 10)
        m.store("f", b"y" * 10)  # replacement must not double-count
        assert m.load("f") == b"y" * 10

    def test_delete(self):
        m = OnboardMemory(1 << 10)
        m.store("f", b"abc")
        m.delete("f")
        assert m.files() == []
        with pytest.raises(KeyError):
            m.load("f")

    def test_single_upsets_corrected_on_load(self):
        m = OnboardMemory(1 << 16)
        payload = bytes(range(64))
        m.store("f", payload)
        # one flipped bit in each of ten words
        m._files["f"].words[np.arange(0, 60, 6), np.arange(10)] ^= 1
        assert m.load("f") == payload  # EDAC corrects scattered singles

    def test_scrub_counts_corrections(self):
        m = OnboardMemory(1 << 16)
        m.store("f", bytes(2000))
        m._files["f"].words[np.arange(10) * 200, np.arange(10)] ^= 1
        fixed = m.scrub()
        assert fixed == 10
        assert m.load("f") == bytes(2000)

    def test_three_bit_upset_fails_load_and_survives_scrub(self):
        m = OnboardMemory(1 << 10)
        m.store("f", bytes(range(8)))
        m._files["f"].words[5, [0, 3, 7]] ^= 1
        before = m._files["f"].words.copy()
        with pytest.raises(IOError, match="at byte 5"):
            m.load("f")
        assert m.scrub() == 0
        assert m.scrub_corrections == 0
        np.testing.assert_array_equal(m._files["f"].words, before)

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_bytes_like_roundtrip(self, kind):
        m = OnboardMemory(1 << 10)
        m.store("f", kind(b"\x00\x7f\x80\xff abc"))
        assert m.load("f") == b"\x00\x7f\x80\xff abc"

    def test_store_rejects_non_byte_values_atomically(self):
        m = OnboardMemory(1 << 10)
        m.store("f", b"keep")
        with pytest.raises(ValueError):
            m.store("f", [300])
        with pytest.raises(ValueError):
            m.store("g", [1, -1])
        assert m.load("f") == b"keep"
        assert m.used_bytes == 4 and m.files() == ["f"]

    def test_store_accepts_int_sequences(self):
        m = OnboardMemory(1 << 10)
        m.store("f", [0, 1, 255])
        assert m.load("f") == b"\x00\x01\xff"

    def test_stored_words_are_a_private_writable_matrix(self):
        m = OnboardMemory(1 << 10)
        m.store("f", b"ab")
        m.store("g", b"")
        words = m._files["f"].words
        assert words.shape == (2, 13) and words.dtype == np.uint8
        assert words.flags.writeable and words.base is None
        assert m._files["g"].words.shape == (0, 13)
        assert m._files["g"].words.dtype == np.uint8
        words[0, 0] ^= 1  # an upset touches this file only
        m.store("h", b"a")
        np.testing.assert_array_equal(m._files["h"].words[0], hamming_encode(ord("a")))
        assert m.load("f") == b"ab"

    def test_used_free_accounting(self):
        m = OnboardMemory(capacity_bytes=100)
        m.store("a", b"12345")
        assert m.used_bytes == 5
        assert m.free_bytes == 95

    def test_validation(self):
        with pytest.raises(ValueError):
            OnboardMemory(0)


class TestAsic:
    def test_table1_values(self):
        """Reproduce the paper's Table 1 exactly."""
        row = MH1RT.table_row()
        assert row["Number of gates"] == 1_200_000
        assert row["Voltage"] == "2.5 to 5.0V"
        assert row["TID"] == "200 Krads"
        assert row["SEU for GEO sat."] == 1e-7

    def test_not_reconfigurable(self):
        assert not MH1RT.reconfigurable
        with pytest.raises(NotImplementedError):
            MH1RT.reconfigure()

    def test_shrinks_increase_tid_constant_seu(self):
        """§4.1: 0.25/0.18 um parts reach 300 krad at constant SEU rate."""
        for part in (MH1RT_025, MH1RT_018):
            assert part.tid_tolerance_krad == 300.0
            assert part.seu_rate_geo_per_bit_day == MH1RT.seu_rate_geo_per_bit_day

    def test_factory_function_name(self):
        dev = Mh1rtAsic("decod.viterbi")
        assert dev.function == "decod.viterbi"

    def test_validation(self):
        from repro.fpga.asic import AsicDevice

        with pytest.raises(ValueError):
            AsicDevice("x", 0, 1.0, 2.0, 100.0, 1e-7, 0.35)
        with pytest.raises(ValueError):
            AsicDevice("x", 10, 3.0, 2.0, 100.0, 1e-7, 0.35)


class TestGateModel:
    def test_paper_tdma_estimate(self):
        """§2.3: timing recovery for MF-TDMA with 6 carriers ~ 200k gates."""
        gates = tdma_timing_recovery_gates(num_carriers=6)
        assert 150_000 < gates < 260_000

    def test_paper_cdma_estimate(self):
        """§2.3: CDMA with one user ~ 200k gates."""
        gates = cdma_demodulator_gates(num_users=1)
        assert 150_000 < gates < 260_000

    def test_multi_user_cdma_costs_more(self):
        """§2.3: '200000 gates < complexity with several users'."""
        assert cdma_demodulator_gates(4) > cdma_demodulator_gates(1)

    def test_both_fit_mh1rt_capacity(self):
        """The paper's conclusion: the swap fits the hardware profile."""
        assert tdma_timing_recovery_gates() < MH1RT.gate_count
        assert cdma_demodulator_gates() < MH1RT.gate_count

    def test_carrier_scaling_linear(self):
        g1 = tdma_timing_recovery_gates(num_carriers=1)
        g6 = tdma_timing_recovery_gates(num_carriers=6)
        assert np.isclose(g6, 6 * g1)

    def test_turbo_more_complex_than_viterbi(self):
        """Why decoder reconfiguration matters: architectures differ."""
        assert turbo_decoder_gates() > viterbi_decoder_gates()

    def test_user_scaling_monotone(self):
        costs = [cdma_demodulator_gates(n) for n in range(1, 6)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_wider_datapath_costs_more(self):
        assert tdma_timing_recovery_gates(data_bits=12) > tdma_timing_recovery_gates(
            data_bits=8
        )

    def test_model_overridable(self):
        cheap = GateModel(mult_per_pp_bit=5.0)
        assert tdma_timing_recovery_gates(model=cheap) < tdma_timing_recovery_gates()

    def test_validation(self):
        with pytest.raises(ValueError):
            tdma_timing_recovery_gates(num_carriers=0)
        with pytest.raises(ValueError):
            cdma_demodulator_gates(num_users=0)
        with pytest.raises(ValueError):
            viterbi_decoder_gates(num_states=1)
