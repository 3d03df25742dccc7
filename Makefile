# Convenience targets for the reproduction repository.

PYTHON ?= python

.PHONY: install test bench bench-verbose examples fast-test test-obs test-robustness test-fdir test-overload test-perf test-cdma-perf test-scenarios test-dtn bench-e2e-smoke all

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

fast-test:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-obs:  ## observability layer and simulation kernel: metrics, tracing, golden traces, fault injection, kernel and RNG streams
	$(PYTHON) -m pytest tests/obs/ tests/sim/

test-robustness:  ## fault-tolerance layer: retry, TC/TM transactions, watchdog, TC/TM scenario sweep
	$(PYTHON) -m pytest tests/robustness/ tests/scenarios/test_tctm_sweep.py

test-fdir:  ## traffic-plane FDIR: health monitors, recovery ladder, degraded modes, FDIR scenario sweep
	$(PYTHON) -m pytest -m fdir tests/

test-overload:  ## demand-plane overload control: admission, bounded queues, class budgets, brownout, overload scenario sweep
	$(PYTHON) -m pytest -m overload tests/

test-perf:  ## batched burst-processing throughput baseline + ground synthesis multiplexer gate + MF-TDMA batched==scalar suite + shared SRRC filter == fftconvolve pins + scipy-parity pins (FFT length, erfc/erfcinv/ndtri) + GF(2) bit kernels + fused trellis kernels + Viterbi ML certificate + turbo early stopping (prints tables)
	$(PYTHON) -m pytest -m perf tests/dsp/test_tdma_batch_equivalence.py tests/dsp/test_srrc_filter.py tests/dsp/test_scipy_parity.py tests/fpga/test_edac_equivalence.py tests/coding/test_encode_equivalence.py tests/coding/test_trellis_equivalence.py tests/coding/test_viterbi_certificate.py tests/coding/test_turbo_early_stop.py benchmarks/bench_perf_burst_batch.py benchmarks/bench_perf_bitkernels.py benchmarks/bench_perf_trellis.py -s

test-cdma-perf:  ## batched CDMA return-link engine: equivalence suite + shared SRRC filter == fftconvolve pins + scipy-parity pins + bursts/sec speedup gates + return-link front door timing and design-cache gate + DLL pull-in/jitter reference
	$(PYTHON) -m pytest -m perf tests/dsp/test_cdma_batch_equivalence.py tests/dsp/test_srrc_filter.py tests/dsp/test_scipy_parity.py benchmarks/bench_perf_cdma_batch.py -s
	$(PYTHON) -m pytest benchmarks/bench_c8_cdma_acq.py -s

test-scenarios:  ## mission-scenario conformance: golden corpus, differential oracles, seeded soak sweeps
	$(PYTHON) -m pytest -m scenario tests/scenarios/

test-dtn:  ## disruption-tolerant ground segment: contact plans, store-and-forward, resumable transfers, outage scenario sweep
	$(PYTHON) -m pytest -m dtn tests/

bench-e2e-smoke:  ## end-to-end benchmark harness smoke tests (short runs of every workload)
	$(PYTHON) -m pytest benchmarks/e2e/test_e2e_smoke.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-verbose:  ## prints every paper-vs-measured table
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/waveform_reconfiguration.py
	$(PYTHON) examples/mftdma_network.py
	$(PYTHON) examples/policy_reconfiguration.py
	$(PYTHON) examples/mission_lifetime.py
	$(PYTHON) examples/adaptive_fade.py
	$(PYTHON) examples/decoder_tradeoffs.py --fast
	$(PYTHON) examples/seu_campaign.py
	$(PYTHON) examples/protocol_comparison.py

all: test bench
