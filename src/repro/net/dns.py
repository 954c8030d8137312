"""An authoritative DNS namespace and iterative resolver.

Plays the role of both the real DNS hierarchy and the ZDNS scanner the
paper uses: a root zone delegates TLD zones, TLD zones delegate
registrable domains, and domain zones carry NS / A / CNAME records.
:class:`Resolver` walks the delegation chain like an iterative resolver
with a positive/negative TTL cache, returning the answer addresses
*and* the authoritative nameserver set (which the pipeline maps to the
DNS infrastructure provider).  A :class:`ZoneCache` is the walk the
campaign paths share: it plans each name once and answers every query
by executing a plan for the querying vantage, for the measurement
pipeline and the world-slice digest alike.

Geo-aware answers: an A record's value may be a mapping from continent
to address, modeling CDN front-end selection; the resolver picks the
entry matching the querying vantage's continent (falling back to the
record's ``"default"`` entry).  This is what makes the Section 3.4
vantage-point experiment meaningful.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import partial

from ..errors import (
    NXDomainError,
    ReproError,
    ResolutionError,
    ServFailError,
)
from .psl import PublicSuffixList, default_psl

__all__ = [
    "ResourceRecord",
    "Zone",
    "ResolutionResult",
    "Resolver",
    "Namespace",
    "ZoneCache",
]

_GEO_DEFAULT = "default"

#: Longest CNAME chain a walk follows before giving up.
MAX_CNAME_DEPTH = 8

#: Shared empty answer for :meth:`Zone.records` misses.
_NO_RECORDS: tuple["ResourceRecord", ...] = ()


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    """A single DNS resource record.

    ``value`` is the record data: a hostname for NS/CNAME, an address
    integer for A, or a continent→address mapping for geo-routed A
    records.
    """

    name: str
    rtype: str
    value: int | str | Mapping[str, int]
    ttl: int = 300

    def __post_init__(self) -> None:
        if self.rtype not in {"A", "NS", "CNAME", "SOA"}:
            raise ValueError(f"unsupported record type {self.rtype!r}")
        if self.ttl < 0:
            raise ValueError(f"negative TTL: {self.ttl}")

    def resolve_address(
        self, continent: str | None, country: str | None = None
    ) -> int:
        """Pick the A-record address for a querying vantage.

        Country-specific entries (``"cc:TH"`` keys — in-country CDN
        cache nodes) take precedence over continent entries, which take
        precedence over the ``"default"`` entry.
        """
        if self.rtype != "A":
            raise ValueError(f"not an A record: {self.rtype}")
        if isinstance(self.value, int):
            return self.value
        if isinstance(self.value, Mapping):
            if country is not None:
                specific = self.value.get(f"cc:{country}")
                if specific is not None:
                    return specific
            if continent is not None and continent in self.value:
                return self.value[continent]
            if _GEO_DEFAULT in self.value:
                return self.value[_GEO_DEFAULT]
            # Deterministic fallback: smallest key.
            return self.value[min(self.value)]
        raise ValueError(f"invalid A record value {self.value!r}")


class Zone:
    """One authoritative zone: an origin plus its records."""

    def __init__(self, origin: str) -> None:
        self.origin = origin.lower().rstrip(".")
        self._records: dict[tuple[str, str], list[ResourceRecord]] = {}
        self._names: set[str] = set()
        self._ns_names: tuple[str, ...] | None = None
        self.broken = False  # failure injection: SERVFAIL every query

    def add(
        self,
        name: str,
        rtype: str,
        value: int | str | Mapping[str, int],
        ttl: int = 300,
    ) -> ResourceRecord:
        """Add a record (name may be relative to the origin or absolute)."""
        fqdn = self.qualify(name)
        record = ResourceRecord(name=fqdn, rtype=rtype, value=value, ttl=ttl)
        self._records.setdefault((fqdn, rtype), []).append(record)
        self._names.add(fqdn)
        if rtype == "NS":
            self._ns_names = None
        return record

    def qualify(self, name: str) -> str:
        """Fully qualify a name relative to the zone origin."""
        name = name.lower().rstrip(".")
        if name == "@" or name == "":
            return self.origin
        if name == self.origin or name.endswith("." + self.origin):
            return name
        return f"{name}.{self.origin}"

    def lookup(self, name: str, rtype: str) -> list[ResourceRecord]:
        """Records matching (name, rtype) in this zone (a fresh list)."""
        return list(self.records(name, rtype))

    def records(self, name: str, rtype: str) -> Sequence[ResourceRecord]:
        """Records matching (name, rtype) without the defensive copy.

        The resolver's hot path — callers must treat the returned
        sequence as read-only.  External callers that may mutate their
        answer keep :meth:`lookup`.
        """
        return self._records.get((name.lower().rstrip("."), rtype), _NO_RECORDS)

    def has_name(self, name: str) -> bool:
        """True when any record exists under the name."""
        return name.lower().rstrip(".") in self._names

    def ns_names(self) -> tuple[str, ...]:
        """The zone's apex NS record values (memoized; add invalidates).

        Every uncached resolve returns the authoritative NS set, so
        rebuilding this tuple per query was a measurable share of the
        resolver's time when thousands of sites delegate to the same
        provider zone.
        """
        if self._ns_names is None:
            self._ns_names = tuple(
                str(r.value)
                for r in self._records.get((self.origin, "NS"), ())
            )
        return self._ns_names


@dataclass(frozen=True, slots=True)
class ResolutionResult:
    """Outcome of resolving one name.

    ``min_ttl`` is the smallest TTL seen across the answer's A records
    and any CNAMEs followed to reach them — the RFC 1034 rule for how
    long the whole answer may be cached.
    """

    name: str
    addresses: tuple[int, ...]
    cname_chain: tuple[str, ...]
    authoritative_ns: tuple[str, ...]
    from_cache: bool = False
    min_ttl: float = 300.0


@dataclass(slots=True)
class _CacheEntry:
    #: The answer pre-built with ``from_cache=True`` at insert time, so
    #: a hit returns one shared frozen object instead of rebuilding the
    #: result per query.
    cached: ResolutionResult
    expires_at: float


class Namespace:
    """The collection of zones making up the synthetic DNS hierarchy.

    Zones are indexed by origin; delegation is implicit in the
    public-suffix structure: resolving ``www.example.co.uk`` consults
    the zone for the registrable domain ``example.co.uk`` whose
    existence the TLD registry (``zones_under``) tracks.
    """

    def __init__(self, psl: PublicSuffixList | None = None) -> None:
        self._zones: dict[str, Zone] = {}
        self._psl = psl or default_psl()

    @property
    def psl(self) -> PublicSuffixList:
        """The public suffix list behind this namespace."""
        return self._psl

    def create_zone(self, origin: str) -> Zone:
        """Create a new authoritative zone (must not exist)."""
        origin = origin.lower().rstrip(".")
        if origin in self._zones:
            raise ValueError(f"zone {origin!r} already exists")
        zone = Zone(origin)
        self._zones[origin] = zone
        return zone

    def zone(self, origin: str) -> Zone | None:
        """Zone by exact origin (None if absent)."""
        return self._zones.get(origin.lower().rstrip("."))

    def zone_for(self, hostname: str) -> Zone | None:
        """The zone authoritative for a hostname (registrable domain)."""
        try:
            split = self._psl.split(hostname)
        except Exception:
            return None
        return self._zones.get(split.registrable)

    def __len__(self) -> int:
        return len(self._zones)

    def zones(self) -> list[Zone]:
        """All zones in the namespace."""
        return list(self._zones.values())


@dataclass(frozen=True, slots=True)
class _NamePlan:
    """The structural outcome of resolving one name.

    Everything that depends only on immutable zone contents: the zones
    the delegation walk visits (in hop order, for live ``broken``
    checks), the terminal answer records or error, the CNAME chain,
    the authoritative NS set, and the answer's minimum TTL.  What a
    plan deliberately does *not* capture: vantage-dependent geo answers
    (:meth:`ResourceRecord.resolve_address` runs at query time), fault
    hooks, and the resolver's TTL caches — those stay live so plan
    execution is observably identical to a fresh walk.
    """

    zones: tuple[Zone, ...]
    error: type[ReproError] | None
    error_msg: str
    a_records: tuple[ResourceRecord, ...]
    cname_chain: tuple[str, ...]
    ns: tuple[str, ...]
    min_ttl: float


class ZoneCache:
    """Per-name resolution plans, shared across resolvers.

    The one delegation walk of the campaign paths.  A fresh walk per
    query repeats a public-suffix split, zone dict walks and an NS
    lookup every time a name is asked for — and thousands of sites ask
    for the same provider nameservers.  A ``ZoneCache`` walks each name
    **once**, into a :class:`_NamePlan`, and :meth:`answer` executes
    the plan for a vantage: live ``broken`` checks in hop order, then
    the precomputed outcome, with geo-aware addresses picked per
    vantage at query time.  A resolver with a cache attached answers
    every uncached query through it, and
    :func:`~repro.worldgen.slices.project_country` projects the same
    answers, so the digest and the measurement read one set of plans.
    Faults, TTL caching, and the logical clock stay with the resolver,
    so planned output is byte-identical to per-site resolution — the
    property suite asserts exactly that under every fault profile.

    Purely world data: a cache carries no per-unit state, so one
    instance is shared across a campaign's per-country pipelines (and
    copy-on-write across forked workers) without breaking the
    country-unit purity sharding relies on.  The namespace must be
    immutable while the cache is attached; the campaign paths only
    attach caches to Worlds that are.
    """

    def __init__(self, namespace: Namespace) -> None:
        self._namespace = namespace
        self._plans: dict[str, _NamePlan] = {}
        #: Queries answered from an existing plan.
        self.hits = 0
        #: Queries that had to build their plan (one per name).
        self.misses = 0

    @property
    def namespace(self) -> Namespace:
        """The namespace the plans were built against."""
        return self._namespace

    def stats(self) -> dict[str, int]:
        """Hit/miss counters (plain ints, never registry metrics).

        Kept out of the observability registry on purpose: planned and
        per-site resolution must export byte-identical metrics, so the
        cache reports its own efficiency only through side channels
        (benchmarks, profiles).
        """
        return {"hits": self.hits, "misses": self.misses}

    def warm_shared_zones(self) -> None:
        """Pre-plan every NS-host name in the namespace.

        Provider (NS) zones are consulted by every site that delegates
        to them, so their plans pay off in every worker — building them
        once in the parent before a fork shares the table
        copy-on-write.  Site zones are deliberately *not* pre-planned:
        each is visited by exactly one country unit, so planning them
        here would serialize work the workers can do in parallel.
        """
        hosts: set[str] = set()
        for zone in self._namespace.zones():
            hosts.update(zone.ns_names())
        for host in sorted(hosts):
            self.plan(host.lower().rstrip("."))

    def plan(self, name: str) -> _NamePlan:
        """The plan for a (normalized) hostname, building on demand."""
        plan = self._plans.get(name)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
        plan = self._plans[name] = self._build_plan(name)
        return plan

    def answer(
        self, name: str, continent: str | None, country: str | None
    ) -> ResolutionResult:
        """Execute a (normalized) hostname's plan for one vantage.

        The broken-zone checks replay in the exact hop order the fresh
        walk would visit, so a zone broken *now* produces the same
        SERVFAIL (same origin in the message) whether or not the plan
        was built while it was healthy.  Geo answers are picked per
        vantage here, never at plan time.
        """
        plan = self.plan(name)
        for zone in plan.zones:
            if zone.broken:
                raise ServFailError(
                    f"zone {zone.origin} failed to answer"
                )
        if plan.error is not None:
            raise plan.error(plan.error_msg)
        return ResolutionResult(
            name=name,
            addresses=tuple(
                r.resolve_address(continent, country)
                for r in plan.a_records
            ),
            cname_chain=plan.cname_chain,
            authoritative_ns=plan.ns,
            min_ttl=plan.min_ttl,
        )

    def _build_plan(self, name: str) -> _NamePlan:
        """``Resolver._resolve_uncached``'s walk minus live state.

        The hop structure (zone_for per hop, A before CNAME, NODATA
        before NXDOMAIN, raw-string loop detection) must match the
        fresh walk exactly — the plan captures which zones the walk
        *would* visit and what it *would* return, and the broken-zone
        checks replay live at execution time.
        """
        zones: list[Zone] = []
        cname_chain: list[str] = []
        current = name
        min_ttl = float("inf")

        def failure(
            error: type[ReproError], message: str
        ) -> _NamePlan:
            return _NamePlan(
                zones=tuple(zones),
                error=error,
                error_msg=message,
                a_records=(),
                cname_chain=(),
                ns=(),
                min_ttl=300.0,
            )

        for _ in range(MAX_CNAME_DEPTH):
            zone = self._namespace.zone_for(current)
            if zone is None:
                return failure(
                    NXDomainError, f"{current!r} does not exist"
                )
            if zone not in zones:
                zones.append(zone)
            a_records = zone.records(current, "A")
            if a_records:
                min_ttl = min(
                    [min_ttl] + [float(r.ttl) for r in a_records]
                )
                return _NamePlan(
                    zones=tuple(zones),
                    error=None,
                    error_msg="",
                    a_records=tuple(a_records),
                    cname_chain=tuple(cname_chain),
                    ns=zone.ns_names(),
                    min_ttl=min_ttl if min_ttl != float("inf") else 300.0,
                )
            cnames = zone.records(current, "CNAME")
            if cnames:
                target = str(cnames[0].value)
                min_ttl = min(min_ttl, float(cnames[0].ttl))
                if target in cname_chain or target == current:
                    return failure(
                        ResolutionError,
                        f"CNAME loop resolving {name!r} at {target!r}",
                    )
                cname_chain.append(target)
                current = target
                continue
            if zone.has_name(current):
                return failure(
                    ResolutionError,
                    f"{current!r} has no address records",
                )
            return failure(NXDomainError, f"{current!r} does not exist")
        return failure(
            ResolutionError,
            f"CNAME chain longer than {MAX_CNAME_DEPTH} for {name!r}",
        )


class Resolver:
    """An iterative resolver over a :class:`Namespace` with caching.

    ``vantage_continent`` influences geo-routed A records (CDN mapping).
    The cache key includes the vantage (continent, country) so distinct
    vantages do not poison each other.  Time is a logical clock advanced
    by the caller, which keeps resolution deterministic.  Positive
    answers are cached for the answer's own minimum TTL (clamped to
    :data:`MAX_TTL`), so short-TTL CDN records actually expire.  With a
    ``zone_cache`` attached, every query that misses the TTL caches is
    answered by :meth:`ZoneCache.answer`.
    """

    #: TTL for cached negative answers (RFC 2308-style, in seconds of
    #: the logical clock).
    NEGATIVE_TTL = 300.0

    #: Cap on how long a positive answer may be cached, regardless of
    #: the records' own TTLs (resolver operators clamp absurd TTLs the
    #: same way).
    MAX_TTL = 86400.0

    def __init__(
        self,
        namespace: Namespace,
        vantage_continent: str | None = None,
        vantage_country: str | None = None,
        cache_enabled: bool = True,
        zone_cache: ZoneCache | None = None,
    ) -> None:
        if zone_cache is not None and zone_cache.namespace is not namespace:
            raise ValueError(
                "zone_cache was built for a different namespace"
            )
        self._ns = namespace
        self._zone_cache = zone_cache
        self._continent = vantage_continent
        self._country = vantage_country
        #: Caches are keyed by (name, vantage_continent, vantage_country)
        #: because geo-routed answers differ per vantage; a shared
        #: resolver switched between vantages must never serve another
        #: vantage's addresses.
        self._cache: dict[
            tuple[str, str | None, str | None], _CacheEntry
        ] = {}
        self._negative_cache: dict[
            tuple[str, str | None, str | None], float
        ] = {}
        self._cache_enabled = cache_enabled
        self._clock = 0.0
        self.queries = 0
        self.cache_hits = 0
        self.negative_cache_hits = 0
        #: Optional fault-injection hook, called as ``hook(name, clock)``
        #: for every query that misses the cache (cached answers never
        #: re-contact the authorities, so they are immune to injected
        #: authority faults).  The hook signals a fault by raising.
        self.fault_hook: Callable[[str, float], None] | None = None
        #: Optional telemetry observer (duck-typed; see
        #: :class:`repro.obs.instrument.Instrumentation`), notified of
        #: each cache miss that fails (``dns_uncached(name, error)``).
        #: Queries and hits it reads from the counters above.
        self.observer: object | None = None

    @property
    def clock(self) -> float:
        """Current value of the logical clock (seconds)."""
        return self._clock

    def clock_fn(self) -> Callable[[], float]:
        """A zero-argument reader of the logical clock.

        Built on :func:`functools.partial` + :func:`getattr`, so each
        read costs no Python frame — tracers read the clock twice per
        span, which makes this the hot path of instrumented runs.
        """
        return partial(getattr, self, "_clock")

    @property
    def vantage_continent(self) -> str | None:
        """Continent of the querying vantage (geo answers)."""
        return self._continent

    @property
    def vantage_country(self) -> str | None:
        """Country of the querying vantage (cache nodes)."""
        return self._country

    def set_vantage(
        self, continent: str | None, country: str | None = None
    ) -> None:
        """Move the resolver to a new vantage.

        Cached answers survive the move — they are keyed per vantage,
        so the new vantage simply resolves fresh while the old
        vantage's entries age out on the logical clock.
        """
        self._continent = continent
        self._country = country

    def advance_clock(self, seconds: float) -> None:
        """Advance the logical clock (expires cache entries)."""
        if seconds < 0:
            raise ValueError("clock cannot go backwards")
        self._clock += seconds

    def flush_cache(self) -> None:
        """Drop all cached answers, positive and negative."""
        self._cache.clear()
        self._negative_cache.clear()

    def resolve(self, hostname: str) -> ResolutionResult:
        """Resolve a hostname to A-record addresses.

        Raises :class:`NXDomainError` for names outside the namespace,
        :class:`ServFailError` when the authoritative zone is broken,
        and :class:`ResolutionError` for CNAME loops or dangling chains.
        """
        name = hostname.lower().rstrip(".")
        self.queries += 1
        cache_key = (name, self._continent, self._country)
        if self._cache_enabled:
            entry = self._cache.get(cache_key)
            if entry is not None and entry.expires_at > self._clock:
                self.cache_hits += 1
                return entry.cached
            # Negative caching (RFC 2308): a recent NXDOMAIN answers
            # repeated queries without bothering the authorities.
            negative_until = self._negative_cache.get(cache_key)
            if negative_until is not None and negative_until > self._clock:
                self.negative_cache_hits += 1
                raise NXDomainError(
                    f"{name!r} does not exist (negative cache)"
                )

        try:
            if self.fault_hook is not None:
                self.fault_hook(name, self._clock)
            result = self._resolve_uncached(name)
        except ReproError as exc:
            # Injected faults are SERVFAIL/timeout shaped, never
            # NXDOMAIN, so negative-caching here cannot cache a fault.
            if self._cache_enabled and isinstance(exc, NXDomainError):
                self._negative_cache[cache_key] = (
                    self._clock + self.NEGATIVE_TTL
                )
            if self.observer is not None:
                self.observer.dns_uncached(name, exc)
            raise
        if self._cache_enabled:
            self._cache[cache_key] = _CacheEntry(
                cached=replace(result, from_cache=True),
                expires_at=self._clock + min(result.min_ttl, self.MAX_TTL),
            )
        return result

    def _resolve_uncached(self, name: str) -> ResolutionResult:
        """One fresh answer: the attached :class:`ZoneCache`'s, or a
        walk of the delegation chain when none is attached (the
        reference the property suite holds plans to)."""
        cache = self._zone_cache
        if cache is not None:
            return cache.answer(name, self._continent, self._country)
        cname_chain: list[str] = []
        current = name
        min_ttl = float("inf")
        for _ in range(MAX_CNAME_DEPTH):
            zone = self._ns.zone_for(current)
            if zone is None:
                raise NXDomainError(f"{current!r} does not exist")
            if zone.broken:
                raise ServFailError(f"zone {zone.origin} failed to answer")
            a_records = zone.records(current, "A")
            if a_records:
                addresses = tuple(
                    r.resolve_address(self._continent, self._country)
                    for r in a_records
                )
                min_ttl = min(
                    [min_ttl] + [float(r.ttl) for r in a_records]
                )
                return ResolutionResult(
                    name=name,
                    addresses=addresses,
                    cname_chain=tuple(cname_chain),
                    authoritative_ns=zone.ns_names(),
                    min_ttl=min_ttl if min_ttl != float("inf") else 300.0,
                )
            cnames = zone.records(current, "CNAME")
            if cnames:
                target = str(cnames[0].value)
                min_ttl = min(min_ttl, float(cnames[0].ttl))
                if target in cname_chain or target == current:
                    raise ResolutionError(
                        f"CNAME loop resolving {name!r} at {target!r}"
                    )
                cname_chain.append(target)
                current = target
                continue
            if zone.has_name(current):
                # Name exists but has no A/CNAME: NODATA, treated as a
                # resolution failure for the pipeline's purposes.
                raise ResolutionError(f"{current!r} has no address records")
            raise NXDomainError(f"{current!r} does not exist")
        raise ResolutionError(
            f"CNAME chain longer than {MAX_CNAME_DEPTH} for {name!r}"
        )
