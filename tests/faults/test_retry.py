"""Tests for the retry policy: classification, backoff, budgets."""

from __future__ import annotations

import pytest

from repro.errors import (
    MeasurementTimeoutError,
    NXDomainError,
    ResolutionError,
    ServFailError,
    TLSError,
    TLSHandshakeError,
)
from repro.faults import RetryPolicy, RetrySession


class TestClassification:
    def test_transient_errors(self) -> None:
        for exc in (
            ServFailError("x"),
            MeasurementTimeoutError("x"),
            TLSHandshakeError("x"),
        ):
            assert RetryPolicy.is_transient(exc)

    def test_permanent_errors(self) -> None:
        for exc in (
            NXDomainError("x"),
            ResolutionError("x"),
            TLSError("x"),
            ValueError("x"),
        ):
            assert not RetryPolicy.is_transient(exc)


class TestBackoffSchedule:
    def test_length_is_retry_count(self) -> None:
        policy = RetryPolicy(max_attempts=4)
        assert len(policy.backoff_schedule("k")) == 3
        assert RetryPolicy(max_attempts=1).backoff_schedule("k") == ()

    def test_deterministic_for_fixed_seed(self) -> None:
        a = RetryPolicy(max_attempts=6, seed=7).backoff_schedule("dns:x")
        b = RetryPolicy(max_attempts=6, seed=7).backoff_schedule("dns:x")
        assert a == b

    def test_seed_changes_schedule(self) -> None:
        a = RetryPolicy(max_attempts=6, seed=1).backoff_schedule("dns:x")
        b = RetryPolicy(max_attempts=6, seed=2).backoff_schedule("dns:x")
        assert a != b

    def test_key_changes_schedule(self) -> None:
        policy = RetryPolicy(max_attempts=6)
        assert policy.backoff_schedule("a") != policy.backoff_schedule("b")

    def test_delays_bounded(self) -> None:
        policy = RetryPolicy(
            max_attempts=10, base_delay=0.5, max_delay=8.0
        )
        for key in ("a", "b", "c"):
            for delay in policy.backoff_schedule(key):
                assert 0.5 <= delay <= 8.0

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=5.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(site_budget=-1)


class _Flaky:
    """Fails with ``exc`` the first ``n`` calls, then returns 42."""

    def __init__(self, n: int, exc: Exception) -> None:
        self.n = n
        self.exc = exc
        self.calls = 0

    def __call__(self) -> int:
        self.calls += 1
        if self.calls <= self.n:
            raise self.exc
        return 42


class TestRetrySession:
    def test_recovers_from_transient(self) -> None:
        session = RetrySession(RetryPolicy(max_attempts=3))
        waited: list[float] = []
        op = _Flaky(2, ServFailError("boom"))
        assert session.run("k", op, waited.append) == 42
        assert session.attempts == 3
        assert waited == list(
            RetryPolicy(max_attempts=3).backoff_schedule("k")
        )

    def test_permanent_raises_immediately(self) -> None:
        session = RetrySession(RetryPolicy(max_attempts=5))
        op = _Flaky(1, NXDomainError("gone"))
        with pytest.raises(NXDomainError):
            session.run("k", op, lambda _s: None)
        assert op.calls == 1

    def test_attempt_limit(self) -> None:
        session = RetrySession(RetryPolicy(max_attempts=3))
        op = _Flaky(99, ServFailError("boom"))
        with pytest.raises(ServFailError):
            session.run("k", op, lambda _s: None)
        assert op.calls == 3

    def test_budget_shared_across_operations(self) -> None:
        session = RetrySession(
            RetryPolicy(max_attempts=3, site_budget=3)
        )
        for _ in range(1):
            with pytest.raises(ServFailError):
                session.run(
                    "a", _Flaky(99, ServFailError("x")), lambda _s: None
                )
        assert session.retries_spent == 2
        # Only one retry left in the budget now.
        op = _Flaky(99, ServFailError("x"))
        with pytest.raises(ServFailError):
            session.run("b", op, lambda _s: None)
        assert op.calls == 2
        assert session.retries_left == 0

    def test_schedule_computed_only_for_a_retry(self, monkeypatch) -> None:
        keys: list[str] = []
        schedule = RetryPolicy.backoff_schedule

        def counting(policy, key):
            keys.append(key)
            return schedule(policy, key)

        monkeypatch.setattr(RetryPolicy, "backoff_schedule", counting)
        session = RetrySession(RetryPolicy(max_attempts=3))
        assert session.run("first-try", lambda: 7, lambda _s: None) == 7
        with pytest.raises(NXDomainError):
            session.run("permanent", _Flaky(1, NXDomainError("x")), lambda _s: None)
        assert keys == []
        waited: list[float] = []
        op = _Flaky(2, ServFailError("boom"))
        assert session.run("flaky", op, waited.append) == 42
        assert keys == ["flaky"]
        assert waited == list(schedule(RetryPolicy(max_attempts=3), "flaky"))

    def test_no_policy_counts_attempts_without_retrying(self) -> None:
        session = RetrySession(None)
        op = _Flaky(1, ServFailError("x"))
        with pytest.raises(ServFailError):
            session.run("k", op, lambda _s: None)
        assert session.attempts == 1
        assert session.run("k", lambda: 7, lambda _s: None) == 7
        assert session.attempts == 2
