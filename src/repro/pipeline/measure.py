"""The active-measurement pipeline (Section 3.4, in simulation).

For every website of every country toplist:

1. resolve the domain with the iterative resolver (ZDNS step);
2. label the serving IP with its AS organization (pfx2as + AS→Org),
   geolocation (NetAcuity step), and anycast flag (bgp.tools step);
3. find the authoritative nameservers, resolve them, and label the DNS
   infrastructure organization the same way;
4. complete a TLS handshake, parse the leaf, and map the issuer to its
   CA owner through CCADB (ZGrab2 + Ma et al. step);
5. extract the TLD from the public suffix split.

Failures are recorded per layer — a TLS flap no longer poisons the
hosting/DNS layers of the same row — and the pipeline is resilient the
way a production campaign must be: an optional
:class:`~repro.faults.FaultPlan` injects seeded faults into the DNS,
TLS, and enrichment surfaces; a :class:`~repro.faults.RetryPolicy`
retries transient failures with deterministic backoff on the logical
clock; and a per-nameserver :class:`~repro.faults.CircuitBreaker`
skips repeatedly failing authoritative infrastructure with a recorded
reason instead of re-probing it for every delegating site.
"""

from __future__ import annotations

from contextlib import nullcontext

from ..errors import PipelineError, ReproError
from ..faults.breaker import CircuitBreaker
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy, RetrySession
from ..faults.taxonomy import failure_class, format_failure
from ..net.dns import Resolver, ZoneCache
from ..obs.instrument import Instrumentation
from ..worldgen.world import World
from .records import WebsiteMeasurement

__all__ = ["MeasurementPipeline", "STANFORD_VANTAGE_CONTINENT"]

#: The paper measures from Stanford University — a North American
#: vantage point.
STANFORD_VANTAGE_CONTINENT = "NA"

#: The four (label, label-country, continent, anycast) Nones returned
#: when no authoritative nameserver could be labeled.
_NO_DNS_INFRA: tuple[str | None, str | None, str | None, bool] = (
    None,
    None,
    None,
    False,
)

#: The span of an uninstrumented pipeline: one shared null context.
_NULL_SPAN = nullcontext()


def _null_span(name: str, **attrs: object) -> nullcontext:
    return _NULL_SPAN


class MeasurementPipeline:
    """Scans a :class:`~repro.worldgen.world.World` from one vantage.

    The body of one country unit
    (:func:`~repro.pipeline.parallel.measure_country_unit`); a whole
    world is measured through :func:`~repro.pipeline.parallel.run_campaign`.
    """

    def __init__(
        self,
        world: World,
        vantage_continent: str = STANFORD_VANTAGE_CONTINENT,
        *,
        vantage_country: str | None = None,
        detect_language: bool = False,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        obs: Instrumentation | None = None,
        zone_cache: ZoneCache | None = None,
    ) -> None:
        self.world = world
        self.vantage_continent = vantage_continent
        self.vantage_country = vantage_country
        self.detect_language = detect_language
        self.resolver = Resolver(
            world.namespace,
            vantage_continent=vantage_continent,
            vantage_country=vantage_country,
            zone_cache=zone_cache,
        )
        self.fault_plan = fault_plan
        if fault_plan is not None:
            fault_plan.wrap_resolver(self.resolver)
        self.retry_policy = retry_policy
        self.breaker = CircuitBreaker(clock=lambda: self.resolver.clock)
        #: Telemetry (spans + metrics + logs), or None.  Instrumentation
        #: observes the resolver, the retry sessions and the breaker,
        #: and folds this unit's counts at its end
        #: (:meth:`Instrumentation.finalize`); without it nothing is
        #: observed and the measurement is the same.
        self.obs = obs
        self._span = obs.tracer.span if obs is not None else _null_span
        if obs is not None:
            obs.bind_clock(self.resolver.clock_fn())
            self.resolver.observer = obs
            self.breaker.on_transition = obs.breaker_transition
        #: Nameserver-label cache events (hit / negative_hit / miss)
        #: and labeling failures by (nameserver, failure class): this
        #: pipeline's own tallies, as the resolver keeps its queries.
        self.ns_cache_events = {"hit": 0, "negative_hit": 0, "miss": 0}
        self.ns_failures: dict[tuple[str, str], int] = {}
        #: ns_host -> (labels-or-None, negative-entry expiry, geo-stale
        #: flag).  Dead nameservers are cached too (negative entries
        #: carry their expiry on the logical clock) so one dead host is
        #: not re-resolved for every site that delegates to it.  The
        #: geo-stale flag rides along so cached stale-geo labels still
        #: mark their rows degraded.
        self._ns_org_cache: dict[
            str,
            tuple[
                tuple[str | None, str | None, str | None, bool] | None,
                float,
                bool,
            ],
        ] = {}

    # ------------------------------------------------------------------

    def _wait(self, seconds: float) -> None:
        """Spend backoff time on the deterministic logical clock."""
        self.resolver.advance_clock(seconds)

    def _failed_row(
        self,
        domain: str,
        country: str,
        rank: int,
        step: str,
        exc: ReproError,
        session: RetrySession,
    ) -> WebsiteMeasurement:
        return WebsiteMeasurement(
            domain=domain,
            country=country,
            rank=rank,
            error=format_failure(step, exc),
            attempts=session.attempts,
        )

    def measure_site(
        self, domain: str, country: str, rank: int
    ) -> WebsiteMeasurement:
        """Measure and enrich a single website.

        The root-page fetch follows HTTP redirects first (about a third
        of the web answers its apex with a 301 to ``www.``), then
        resolves and scans whatever host ultimately serves the page.
        When instrumented, the whole site is one ``site`` span with
        nested stage spans (http → resolve → label → ns-walk → tls →
        enrich); the row's counts reach the metrics when the unit's
        rows are folded (:meth:`Instrumentation.finalize`).  Only the
        site span carries attributes — its children inherit the
        domain/country through the parent link, and the empty-attrs
        form keeps six dict builds per site off the hot path.
        """
        with self._span("site", domain=domain, country=country):
            return self._measure_site(domain, country, rank)

    def _measure_site(
        self, domain: str, country: str, rank: int
    ) -> WebsiteMeasurement:
        span = self._span
        session = RetrySession(self.retry_policy, observer=self.obs)
        plan = self.fault_plan
        try:
            with span("http"):
                serving_host = self.world.http.final_host(domain)
        except ReproError as exc:
            return self._failed_row(
                domain, country, rank, "http", exc, session
            )
        try:
            with span("resolve"):
                resolution = session.run(
                    f"resolve:{serving_host}",
                    lambda: self.resolver.resolve(serving_host),
                    self._wait,
                )
        except ReproError as exc:
            return self._failed_row(
                domain, country, rank, "resolve", exc, session
            )
        if not resolution.addresses:
            return WebsiteMeasurement(
                domain=domain,
                country=country,
                rank=rank,
                error="resolve: empty-answer: answer had no addresses",
                attempts=session.attempts,
            )
        ip = resolution.addresses[0]

        world = self.world
        with span("label"):
            hosting_org = world.asdb.org_of_ip(ip)
            hosting_org_country = world.asdb.country_of_ip(ip)
            geo_stale = plan is not None and plan.geo_stale(ip)
            if geo_stale:
                # The stale enrichment snapshot has no entry for this
                # address: the row keeps its provider labels but loses
                # geolocation.
                ip_country = ip_continent = None
            else:
                ip_country = world.geo.country_of(ip)
                ip_continent = world.geo.continent_of(ip)
            ip_anycast = world.anycast.is_anycast(ip)

        with span("ns-walk"):
            dns_infra, dns_error, ns_geo_stale = self._dns_infrastructure(
                resolution.authoritative_ns, session
            )
        dns_org, dns_org_country, ns_continent, ns_anycast = dns_infra

        ca_owner = ca_country = None
        tls_error: str | None = None
        tls_hook = plan.tls_hook if plan is not None else None
        try:
            with span("tls"):
                certificate = session.run(
                    f"tls:{serving_host}",
                    lambda: world.tls_handshake(
                        ip, serving_host, fault_hook=tls_hook
                    ),
                    self._wait,
                )
            if not certificate.covers(serving_host):
                tls_error = (
                    "tls: certificate: certificate does not cover hostname"
                )
            else:
                owner = world.ccadb.owner_of(certificate.issuer_cn)
                ca_owner, ca_country = owner.name, owner.country
        except ReproError as exc:
            tls_error = format_failure("tls", exc)

        with span("enrich"):
            try:
                tld = world.psl.tld_of(domain)
            except ReproError:
                tld = None

            language: str | None = None
            if self.detect_language:
                # The LangDetect step (Section 5.3.3): fetch the page
                # and classify its text; expensive, so opt-in per
                # pipeline.
                from ..text import default_detector

                try:
                    language = default_detector().detect(
                        world.page_content(domain)
                    )
                except ReproError:
                    language = None

        return WebsiteMeasurement(
            domain=domain,
            country=country,
            rank=rank,
            ip=ip,
            hosting_org=hosting_org,
            hosting_org_country=hosting_org_country,
            ip_country=ip_country,
            ip_continent=ip_continent,
            ip_anycast=ip_anycast,
            dns_org=dns_org,
            dns_org_country=dns_org_country,
            ns_continent=ns_continent,
            ns_anycast=ns_anycast,
            ca_owner=ca_owner,
            ca_country=ca_country,
            tld=tld,
            language=language,
            dns_error=dns_error,
            tls_error=tls_error,
            attempts=session.attempts,
            degraded=(
                dns_error is not None
                or tls_error is not None
                or geo_stale
                or ns_geo_stale
            ),
        )

    def _dns_infrastructure(
        self,
        authoritative_ns: tuple[str, ...],
        session: RetrySession,
    ) -> tuple[
        tuple[str | None, str | None, str | None, bool],
        str | None,
        bool,
    ]:
        """Label the DNS provider from the first resolvable NS host.

        Returns ``(labels, dns_error, ns_geo_stale)`` — the last flag
        is True when the labeling NS address hit the stale-geo
        enrichment snapshot, so the caller can mark the row degraded.

        Successful labels are cached per nameserver; failures are
        *negative-cached* (with a TTL on the logical clock) and counted
        against the per-nameserver circuit breaker, so dead
        authoritative infrastructure is skipped with a recorded reason
        instead of re-probed for every delegating site.
        """
        events = self.ns_cache_events
        failures: list[str] = []
        for ns_host in authoritative_ns:
            cached = self._ns_org_cache.get(ns_host)
            if cached is not None:
                result, expires_at, cached_stale = cached
                if result is not None:
                    events["hit"] += 1
                    return result, None, cached_stale
                if expires_at > self.resolver.clock:
                    events["negative_hit"] += 1
                    failures.append(
                        self._ns_failed(
                            ns_host, "nxdomain", "recently failed (negative cache)"
                        )
                    )
                    continue
                del self._ns_org_cache[ns_host]
            if not self.breaker.allow(ns_host):
                failures.append(
                    self._ns_failed(
                        ns_host, "circuit-open", self.breaker.reason(ns_host)
                    )
                )
                continue
            events["miss"] += 1
            try:
                ns_resolution = session.run(
                    f"ns:{ns_host}",
                    lambda: self.resolver.resolve(ns_host),
                    self._wait,
                )
            except ReproError as exc:
                self.breaker.record_failure(ns_host)
                self._ns_org_cache[ns_host] = (
                    None,
                    self.resolver.clock + Resolver.NEGATIVE_TTL,
                    False,
                )
                failures.append(
                    self._ns_failed(ns_host, failure_class(exc), exc)
                )
                continue
            if not ns_resolution.addresses:
                failures.append(
                    self._ns_failed(ns_host, "empty-answer", "no addresses")
                )
                continue
            self.breaker.record_success(ns_host)
            ns_ip = ns_resolution.addresses[0]
            ns_geo_stale = (
                self.fault_plan is not None
                and self.fault_plan.geo_stale(ns_ip)
            )
            if ns_geo_stale:
                # The stale enrichment snapshot has no entry for the
                # NS address: the row keeps its provider labels but
                # loses NS geolocation — and is degraded for it.
                ns_continent = None
            else:
                ns_continent = self.world.geo.continent_of(ns_ip)
            result = (
                self.world.asdb.org_of_ip(ns_ip),
                self.world.asdb.country_of_ip(ns_ip),
                ns_continent,
                self.world.anycast.is_anycast(ns_ip),
            )
            self._ns_org_cache[ns_host] = (result, 0.0, ns_geo_stale)
            return result, None, ns_geo_stale
        if failures:
            return _NO_DNS_INFRA, "dns: " + "; ".join(failures), False
        return _NO_DNS_INFRA, None, False

    def _ns_failed(self, ns_host: str, cls: str, detail: object) -> str:
        """Tally one labeling failure; returns its ``dns_error`` part."""
        key = (ns_host, cls)
        self.ns_failures[key] = self.ns_failures.get(key, 0) + 1
        return f"{ns_host}: {cls}: {detail}"

    # ------------------------------------------------------------------

    def measure_country(self, country: str) -> list[WebsiteMeasurement]:
        """Measure every site of one country's toplist, in rank order."""
        toplist = self.world.toplists.get(country)
        if toplist is None:
            raise PipelineError(
                f"world has no toplist for {country!r}; is it in the "
                f"config's country set?"
            )
        return [
            self.measure_site(domain, country, rank)
            for rank, domain in enumerate(toplist.domains, start=1)
        ]
