"""Integration tests: fault injection, retries, breaker, degradation.

The acceptance properties of the resilience layer:

* a fault plan at rate 0.0 is a strict no-op (byte-identical export);
* transient faults + bounded retries recover the fault-free dataset
  exactly;
* per-layer failures degrade rows instead of poisoning them;
* dead nameservers are negative-cached and circuit-broken with a
  recorded reason;
* everything is deterministic given (seed, plan).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.faults import (
    CircuitBreaker,
    FaultPlan,
    NameserverOutage,
    RetryPolicy,
    SlowAnswer,
    StaleGeoData,
    TlsHandshakeFlap,
    TransientServFail,
)
from repro.net.dns import Resolver
from repro.pipeline import MeasurementDataset, MeasurementPipeline, export_csv
from repro.worldgen import World


def _measure(
    world: World, countries: tuple[str, ...] = ("US", "TH"), **knobs
) -> MeasurementDataset:
    """Measure countries in order on one pipeline built with ``knobs``."""
    pipeline = MeasurementPipeline(world, **knobs)
    dataset = MeasurementDataset()
    for cc in countries:
        dataset.extend(pipeline.measure_country(cc))
    return dataset


def _rows_ignoring_attempts(dataset) -> list:
    return [dataclasses.replace(r, attempts=0) for r in dataset]


def _first_site_ns(world: World) -> tuple[str, tuple[str, ...]]:
    """Serving host and NS set of the first US toplist site."""
    domain = world.toplists["US"].domains[0]
    host = world.http.final_host(domain)
    probe = Resolver(world.namespace, vantage_continent="NA")
    return host, probe.resolve(host).authoritative_ns


class TestRateZeroIsNoOp:
    def test_zero_rate_plan_export_byte_identical(
        self, small_world: World, tmp_path: Path
    ) -> None:
        baseline = _measure(small_world)
        plan = FaultPlan(
            (
                TransientServFail(0.0),
                SlowAnswer(0.0),
                TlsHandshakeFlap(0.0),
                NameserverOutage(fraction=0.0),
                StaleGeoData(0.0),
            ),
            seed=123,
        )
        faulted = _measure(
            small_world,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, seed=123),
        )

        base_csv = tmp_path / "baseline.csv"
        fault_csv = tmp_path / "faulted.csv"
        export_csv(baseline, base_csv)
        export_csv(faulted, fault_csv)
        assert base_csv.read_bytes() == fault_csv.read_bytes()
        assert not plan.active
        assert sum(plan.injected.values()) == 0


class TestRetryRecovery:
    def test_transient_servfail_recovers_baseline_exactly(
        self, small_world: World
    ) -> None:
        baseline = _measure(small_world)
        plan = FaultPlan((TransientServFail(0.2),), seed=7)
        faulted = _measure(
            small_world,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, seed=7),
        )

        assert plan.injected["TransientServFail"] > 0
        assert sum(r.attempts for r in faulted) > sum(
            r.attempts for r in baseline
        )
        # Retries absorbed every injected fault: the datasets agree on
        # every field except the attempt provenance, so all layer
        # distributions (and hence all scores) are recovered exactly.
        assert _rows_ignoring_attempts(faulted) == _rows_ignoring_attempts(
            baseline
        )

    def test_slow_answers_recover_with_retries(
        self, small_world: World
    ) -> None:
        baseline = MeasurementPipeline(small_world).measure_country("US")
        plan = FaultPlan((SlowAnswer(0.15, delay=5.0),), seed=3)
        pipeline = MeasurementPipeline(
            small_world,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=3, seed=3),
        )
        faulted = pipeline.measure_country("US")
        assert plan.injected["SlowAnswer"] > 0
        # Timeouts burned logical clock (injected delay + backoff).
        assert pipeline.resolver.clock > 0.0
        assert _rows_ignoring_attempts(faulted) == _rows_ignoring_attempts(
            baseline
        )

    def test_without_retries_faults_surface_as_failures(
        self, small_world: World
    ) -> None:
        plan = FaultPlan((TransientServFail(0.2),), seed=7)
        faulted = _measure(small_world, fault_plan=plan)
        failed = [r for r in faulted if not r.ok or r.degraded]
        assert failed
        taxonomy = faulted.failure_taxonomy()
        assert "servfail" in taxonomy


class TestGracefulDegradation:
    def test_tls_flap_degrades_only_the_tls_layer(
        self, small_world: World
    ) -> None:
        baseline = MeasurementPipeline(small_world).measure_country("US")
        plan = FaultPlan((TlsHandshakeFlap(1.0, consecutive=1),), seed=0)
        faulted = MeasurementPipeline(
            small_world, fault_plan=plan
        ).measure_country("US")

        for base, row in zip(baseline, faulted):
            if base.error is not None:
                continue  # row never reached the TLS step
            assert row.tls_error is not None
            assert "tls-flap" in row.tls_error
            assert row.error is None
            assert not row.ok
            assert row.degraded
            # The other layers are untouched by the TLS fault.
            assert row.hosting_org == base.hosting_org
            assert row.dns_org == base.dns_org
            assert row.tld == base.tld
            assert row.ca_owner is None

    def test_stale_geo_degrades_without_failing(
        self, small_world: World
    ) -> None:
        baseline = MeasurementPipeline(small_world).measure_country("US")
        plan = FaultPlan((StaleGeoData(0.3),), seed=5)
        faulted = _measure(small_world, ("US",), fault_plan=plan)

        stale_rows = 0
        for base, row in zip(baseline, faulted):
            if base.error is not None:
                continue
            if row.ip_country is None and base.ip_country is not None:
                stale_rows += 1
                assert row.degraded
                assert row.ok  # degraded, not failed
                assert row.hosting_org == base.hosting_org
        assert stale_rows > 0
        assert faulted.degraded_rate("US") > 0.0


class TestNameserverOutage:
    def test_dead_ns_is_negative_cached(
        self, small_world: World
    ) -> None:
        _host, ns_hosts = _first_site_ns(small_world)
        plan = FaultPlan((NameserverOutage(hosts=ns_hosts),), seed=0)
        pipeline = MeasurementPipeline(small_world, fault_plan=plan)
        rows = pipeline.measure_country("US")

        first = rows[0]
        assert first.dns_error is not None
        assert "servfail" in first.dns_error
        assert first.dns_org is None
        assert first.degraded
        assert first.error is None  # other layers survived
        assert first.hosting_org is not None
        # The logical clock never advances (no retries, no inter-site
        # pacing), so the negative cache absorbs every later lookup:
        # each dead host is queried exactly once for the whole country.
        assert plan.injected["NameserverOutage"] == len(set(ns_hosts))

    def test_breaker_opens_and_records_circuit_skips(
        self, small_world: World
    ) -> None:
        _host, ns_hosts = _first_site_ns(small_world)
        plan = FaultPlan((NameserverOutage(hosts=ns_hosts),), seed=0)
        pipeline = MeasurementPipeline(small_world, fault_plan=plan)
        breaker = pipeline.breaker = CircuitBreaker(
            failure_threshold=1, cooldown=1e12
        )
        domains = small_world.toplists["US"].domains

        def measure_paced() -> list:
            # Outlive the 300 s negative-answer TTL between sites so
            # dead hosts are re-considered (and hit the open circuit).
            rows = []
            for rank, domain in enumerate(domains, start=1):
                pipeline.resolver.advance_clock(301.0)
                rows.append(pipeline.measure_site(domain, "US", rank))
            return rows

        first_pass = measure_paced()
        assert first_pass[0].dns_error is not None
        for host in ns_hosts:
            assert not breaker.allow(host)

        second_pass = measure_paced()
        assert "circuit-open" in second_pass[0].dns_error
        assert sum(breaker.skips[h] for h in ns_hosts) > 0
        assert set(ns_hosts) <= set(breaker.open_keys())


class TestDeterminism:
    def test_identical_runs_identical_datasets(
        self, small_world: World
    ) -> None:
        def run():
            plan = FaultPlan(
                (
                    TransientServFail(0.1),
                    SlowAnswer(0.05),
                    TlsHandshakeFlap(0.1),
                    StaleGeoData(0.05),
                ),
                seed=42,
            )
            dataset = _measure(
                small_world,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=2, seed=42),
            )
            return dataset, plan

        first, first_plan = run()
        second, second_plan = run()
        assert list(first) == list(second)
        assert first.failure_taxonomy() == second.failure_taxonomy()
        assert first_plan.injected == second_plan.injected


class TestNsStaleGeoDegradation:
    def test_ns_stale_geo_marks_row_degraded(
        self, small_world: World
    ) -> None:
        """Regression: a stale-geo hit on the *nameserver* address once
        left the row's ``degraded`` flag False even though the row lost
        its NS geolocation."""
        baseline = MeasurementPipeline(small_world).measure_country("US")
        plan = FaultPlan((StaleGeoData(0.5),), seed=11)
        faulted = MeasurementPipeline(
            small_world, fault_plan=plan
        ).measure_country("US")

        ns_only_stale = 0
        for base, row in zip(baseline, faulted):
            if base.error is not None or row.error is not None:
                continue
            if (
                row.ns_continent is None
                and base.ns_continent is not None
                and row.ip_country is not None
                and row.dns_error is None
                and row.tls_error is None
            ):
                # Only the NS address hit the stale snapshot: the row
                # must still be flagged partial.
                ns_only_stale += 1
                assert row.degraded
                assert row.ok  # degraded, not failed
                assert row.dns_org == base.dns_org  # labels survive
        # The flag must also survive the NS-org cache: with 300 sites
        # sharing a handful of nameservers, most of these rows were
        # labeled from a cached (stale) entry.
        assert ns_only_stale > len(
            {r.dns_org for r in faulted if r.dns_org}
        )
