"""Fault-tolerance layer: retry policies, TC/TM transactions, safe mode.

The paper's §3 reconfiguration architecture exists so that an upload or
telecommand lost on the TM/TC space link never strands the payload.
This package supplies the machinery that makes the rest of the
repository live up to that:

- :mod:`repro.robustness.policy` -- bounded retry with exponential
  backoff and deterministic seeded jitter, usable by any
  generator-based operation (:func:`run_with_retry`).
- :mod:`repro.robustness.transactions` -- the TC/TM transaction layer:
  retransmission with growing listen windows on the ground, and
  ``tc_id``-keyed reply dedup on board so retransmitted telecommands
  execute exactly once.
- :mod:`repro.robustness.watchdog` -- the on-board watchdog + safe-mode
  state machine: N consecutive failed validations/rollbacks trigger an
  autonomous golden-image load from the bitstream library.

Each invariant has one recovery authority on the path missions run.
The on-board controller's rollback and the watchdog's golden-image load
keep the payload from being bricked; failover to a cold spare is the
FDIR arbiter's isolate rung (:mod:`repro.robustness.fdir`), which
latches the watchdog when the spare is gone too.  Overload is shed on
the demand plane only (:mod:`repro.robustness.overload`: admission,
one bounded queue per class whose heads expire at the class budget,
the brownout ladder): telecommands and uploads carry no budget or
priority class.

The seeded control-plane fault sweep over this machinery (SEU during
load, truncated uploads, lost final ACK, a lossy link) is
:func:`repro.scenarios.tctm_sweep`, run through the scenario runner and
checked by :func:`repro.scenarios.result_violations`: no hangs,
exactly-once execution, payload never bricked, golden loads succeed.
See ``docs/robustness.md`` for the full semantics.
"""

from .policy import RetryExhausted, RetryPolicy, run_with_retry
from .transactions import (
    TC_PORT,
    TcDedupCache,
    TcTransactionClient,
    TransactionError,
    recv_within,
)
from .watchdog import DEGRADED, NOMINAL, SAFE_MODE, SafeModeWatchdog

__all__ = [
    "DEGRADED",
    "NOMINAL",
    "RetryExhausted",
    "RetryPolicy",
    "SAFE_MODE",
    "SafeModeWatchdog",
    "TC_PORT",
    "TcDedupCache",
    "TcTransactionClient",
    "TransactionError",
    "recv_within",
    "run_with_retry",
]
