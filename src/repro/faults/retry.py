"""Bounded retries with deterministic decorrelated-jitter backoff.

A :class:`RetryPolicy` distinguishes transient failures (SERVFAIL,
timeouts, handshake resets — anything deriving from
:class:`~repro.errors.TransientError`) from permanent ones (NXDOMAIN,
certificate mismatches) and bounds the damage a flaky target can do
with a per-site retry budget.  Backoff delays follow the decorrelated
jitter recurrence ``delay_n = min(cap, uniform(base, 3 * delay_{n-1}))``
with the uniform draw replaced by a seeded hash, so the whole schedule
is a pure function of ``(seed, key)`` and spends *logical* clock time,
never wall time.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..errors import ReproError, TransientError
from .seeding import stable_fraction

__all__ = ["RetryPolicy", "RetrySession"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How (and how often) transient failures are retried.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means up
    to two retries.  ``site_budget`` caps the *total* retries spent on
    one website across all of its steps (DNS, per-nameserver lookups,
    TLS), so one pathological site cannot stall a campaign.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    site_budget: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay <= 0.0:
            raise ValueError(
                f"base_delay must be positive, got {self.base_delay}"
            )
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) < base_delay "
                f"({self.base_delay})"
            )
        if self.site_budget < 0:
            raise ValueError(
                f"site_budget must be >= 0, got {self.site_budget}"
            )

    @staticmethod
    def is_transient(exc: BaseException) -> bool:
        """Whether a failure is worth retrying."""
        return isinstance(exc, TransientError)

    def backoff_schedule(self, key: str) -> tuple[float, ...]:
        """Deterministic backoff delays for one operation key.

        Returns ``max_attempts - 1`` delays (one per possible retry),
        each in ``[base_delay, max_delay]``, following the decorrelated
        jitter recurrence with hash-derived uniforms.
        """
        delays: list[float] = []
        prev = self.base_delay
        for retry in range(1, self.max_attempts):
            frac = stable_fraction(self.seed, "backoff", key, retry)
            span = max(3.0 * prev - self.base_delay, 0.0)
            delay = min(self.base_delay + frac * span, self.max_delay)
            delays.append(delay)
            prev = delay
        return tuple(delays)


class RetrySession:
    """Per-site retry state: attempt counting and the retry budget.

    One session is created per measured website; every network
    operation of that site runs through :meth:`run`, which retries
    transient failures per the policy while charging the shared budget.
    A session with ``policy=None`` never retries but still counts
    attempts, so resilience provenance is recorded even when retries
    are disabled.
    """

    def __init__(
        self, policy: RetryPolicy | None, observer: object | None = None
    ) -> None:
        self.policy = policy
        self.attempts = 0
        self.retries_spent = 0
        self.retries_left = policy.site_budget if policy is not None else 0
        #: Optional telemetry observer (duck-typed; see
        #: :class:`repro.obs.instrument.Instrumentation`), notified of
        #: each backoff about to be spent (``retry_backoff``).  Attempts
        #: it reads from the rows' ``attempts``.
        self.observer = observer

    def run(
        self,
        key: str,
        operation: Callable[[], object],
        wait: Callable[[float], None],
    ):
        """Run one operation with retries; returns its result.

        ``wait`` receives each backoff delay (the pipeline passes the
        resolver's ``advance_clock``, keeping backoff on logical time).
        The last failure propagates when attempts or budget run out, or
        immediately when the failure is permanent.  The backoff schedule
        is computed at the first retry: most operations never retry.
        """
        policy = self.policy
        delays: tuple[float, ...] = ()
        retry = 0
        while True:
            self.attempts += 1
            try:
                return operation()
            except ReproError as exc:
                if (
                    policy is None
                    or not policy.is_transient(exc)
                    or retry >= policy.max_attempts - 1
                    or self.retries_left <= 0
                ):
                    raise
                if not delays:
                    delays = policy.backoff_schedule(key)
                if self.observer is not None:
                    self.observer.retry_backoff(key, delays[retry])
                wait(delays[retry])
                retry += 1
                self.retries_left -= 1
                self.retries_spent += 1
