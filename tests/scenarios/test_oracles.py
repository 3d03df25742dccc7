"""Differential oracles: agreement on a healthy tree, and the reporting
path when a disagreement is rigged in."""

import numpy as np
import pytest

from repro.core.payload import RegenerativePayload
from repro.scenarios import (
    BatchScalarDecodeOracle,
    CdmaBatchScalarOracle,
    ModemABOracle,
    TdmaBatchScalarOracle,
    VcModeOracle,
    run_default_oracles,
)

pytestmark = pytest.mark.scenario


def test_all_oracles_agree():
    reports = run_default_oracles(seed=3)
    assert [r.agree for r in reports] == [True] * 5
    for r in reports:
        assert r.cases > 0
        assert "agree" in str(r)


def test_oracles_are_deterministic():
    a = run_default_oracles(seed=5)
    b = run_default_oracles(seed=5)
    assert a == b


def test_vc_oracle_counts_every_sdu():
    rep = VcModeOracle(seed=1, sdus=4).run()
    assert rep.agree and rep.cases == 4


def test_modem_ab_oracle_alone():
    rep = ModemABOracle(seed=2, trials=4).run()
    assert rep.agree and rep.cases == 4


def test_cdma_oracle_alone():
    rep = CdmaBatchScalarOracle(seed=4).run()
    assert rep.agree and rep.cases == 8


def test_rigged_cdma_scalar_disagreement_is_detected(monkeypatch):
    """Corrupt the scalar receive path and the CDMA oracle must notice."""
    from repro.dsp.cdma import CdmaModem

    real = CdmaModem.receive

    def corrupted(self, samples, num_bits):
        out = dict(real(self, samples, num_bits))
        bits = np.array(out["bits"], copy=True)
        if len(bits):
            bits[0] ^= 1
        out["bits"] = bits
        return out

    monkeypatch.setattr(CdmaModem, "receive", corrupted)
    rep = CdmaBatchScalarOracle(seed=0).run()
    assert not rep.agree
    assert "bits differ" in rep.detail


def test_tdma_oracle_alone():
    rep = TdmaBatchScalarOracle(seed=4).run()
    assert rep.agree and rep.cases == 8


def test_rigged_tdma_scalar_disagreement_is_detected(monkeypatch):
    """Corrupt the scalar TDMA receive and the oracle must notice."""
    from repro.dsp.tdma import TdmaModem

    real = TdmaModem.receive

    def corrupted(self, samples, num_bits=None):
        out = dict(real(self, samples, num_bits))
        out["snr_db"] = out["snr_db"] + 1e-9
        return out

    monkeypatch.setattr(TdmaModem, "receive", corrupted)
    rep = TdmaBatchScalarOracle(seed=0, frames=1).run()
    assert not rep.agree
    assert "snr_db differs" in rep.detail


def test_rigged_scalar_decode_disagreement_is_detected(monkeypatch):
    """Corrupt the scalar path and the oracle must say *where* it broke."""
    real = RegenerativePayload.decode_block

    def corrupted(self, llr):
        out = real(self, llr)
        bits = np.array(out["bits"], copy=True)
        if len(bits):
            bits[0] ^= 1
        out = dict(out)
        out["bits"] = bits
        return out

    monkeypatch.setattr(RegenerativePayload, "decode_block", corrupted)
    rep = BatchScalarDecodeOracle(seed=0, frames=1).run()
    assert not rep.agree
    assert "bits differ" in rep.detail
    assert "DISAGREE" in str(rep)
