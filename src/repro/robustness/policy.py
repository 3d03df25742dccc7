"""Bounded retry policies: exponential backoff with seeded jitter.

The paper's §3 reconfiguration architecture assumes the TM/TC space
link *loses things*: telecommands, telemetry frames, upload blocks.
Every recovery loop in the repository therefore runs under an explicit
:class:`RetryPolicy` -- a bounded attempt budget with exponential
backoff -- instead of blocking forever or retrying unboundedly.

Two design rules keep the simulation reproducible:

- **Deterministic jitter.**  Backoff jitter is drawn from a caller-
  supplied ``numpy.random.Generator`` (usually an
  :class:`repro.sim.RngRegistry` stream), never from global randomness.
  Same seed, same delays, same trace.
- **Simulated time.**  Delays are :class:`repro.sim.Timeout` events;
  nothing sleeps in wall-clock time.

:func:`run_with_retry` is the generic driver for *generator-based*
operations (the repo's blocking-style protocol clients): it runs fresh
attempts under a policy and raises :class:`RetryExhausted` once the
budget is spent.  Attempts, retries and exhaustions are counted on the
``robustness.retry`` observability probe (PR-1 ``repro.obs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Tuple, Type

from ..obs.probes import probe as _obs_probe

__all__ = ["RetryPolicy", "RetryExhausted", "run_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and optional jitter.

    Attempt ``k`` (0-based) that fails is followed, if the budget
    allows, by a delay of ``base_delay * multiplier**k`` seconds,
    clamped to ``max_delay`` and spread by ``+/- jitter`` (a fraction)
    when an RNG is supplied.

    The same policy doubles as a retransmission-timer schedule: the
    TC/TM transaction layer uses ``delay_for`` as the per-attempt
    listen window, which yields the classic doubling RTO.
    """

    max_attempts: int = 4
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1 (backoff cannot shrink)")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_for(self, attempt: int, rng=None) -> float:
        """Backoff delay (seconds) after failed 0-based ``attempt``.

        Deterministic when ``rng`` is None or ``jitter`` is 0; with an
        RNG the delay is drawn uniformly from ``d * (1 +/- jitter)``
        (then clamped to ``max_delay``), so retry storms from many
        concurrent operations de-synchronize reproducibly.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        d = self.base_delay * (self.multiplier ** attempt)
        d = min(d, self.max_delay)
        if self.jitter > 0.0 and rng is not None:
            d *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, min(d, self.max_delay))

    def total_delay_bound(self) -> float:
        """Upper bound on the summed backoff across the whole budget.

        Tests use it to prove a dead link is detected at bounded time.
        """
        return sum(
            min(self.base_delay * (self.multiplier ** k), self.max_delay)
            * (1.0 + self.jitter)
            for k in range(self.max_attempts)
        )


class RetryExhausted(RuntimeError):
    """A retried operation failed on every attempt of its policy.

    Carries the operation ``name``, the number of ``attempts`` made and
    the ``last_error`` (the exception from the final attempt).
    """

    def __init__(self, name: str, attempts: int, last_error: Optional[BaseException]) -> None:
        super().__init__(
            f"{name}: exhausted {attempts} attempts"
            + (f" (last error: {last_error})" if last_error is not None else "")
        )
        self.name = name
        self.attempts = attempts
        self.last_error = last_error


def run_with_retry(
    sim,
    make_attempt: Callable[[int], Generator[Any, Any, Any]],
    policy: Optional[RetryPolicy] = None,
    rng=None,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
    name: str = "operation",
):
    """Generator: drive a generator-based operation under a retry policy.

    ``make_attempt(attempt)`` must return a *fresh* generator for each
    0-based attempt; it is driven with ``yield from`` inside the calling
    simulation process.  Exceptions listed in ``retry_on`` trigger a
    backoff (a simulated-time :class:`Timeout`) and a new attempt; any
    other exception propagates immediately.  Returns the successful
    attempt's return value, or raises :class:`RetryExhausted`.

    Use inside a sim process::

        result = yield from run_with_retry(
            sim, lambda k: client.write(name, blob),
            policy=RetryPolicy(max_attempts=3), rng=reg.stream("retry"),
            retry_on=(TftpError,), name="upload.tftp")
    """
    policy = policy or RetryPolicy()
    p = _obs_probe("robustness.retry", operation=name)
    last: Optional[BaseException] = None
    for attempt in range(policy.max_attempts):
        if p is not None:
            p.count("attempts")
        try:
            result = yield from make_attempt(attempt)
        except retry_on as exc:
            last = exc
            if p is not None:
                p.count("failures")
                p.event(
                    "retry.fail",
                    t=sim.now,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.delay_for(attempt, rng)
            if p is not None:
                p.count("retries")
                p.event("retry.backoff", t=sim.now, attempt=attempt, delay=delay)
            if delay > 0.0:
                yield sim.timeout(delay)
            continue
        if p is not None and attempt > 0:
            p.count("recovered")
        return result
    if p is not None:
        p.count("exhausted")
        p.event("retry.exhausted", t=sim.now, attempts=policy.max_attempts)
    raise RetryExhausted(name, policy.max_attempts, last)
