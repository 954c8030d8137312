"""Performance harness for the hot primitives.

Not a paper experiment: these benchmarks track the throughput of the
operations the full study leans on — the closed-form score, HHI and
top-N share over large count vectors, longest-prefix matches, and
resolver queries — so regressions in the substrate show up as timing
changes here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import centralization_score, hhi, top_n_share
from repro.net import Namespace, Prefix, PrefixTrie, Resolver


@pytest.fixture(scope="module")
def big_counts() -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.zipf(1.4, size=1_000_000).astype(float)


@pytest.mark.parametrize(
    "primitive",
    [centralization_score, hhi, lambda counts: top_n_share(counts, 5)],
    ids=["centralization_score", "hhi", "top_n_share"],
)
def test_perf_score_on_million_providers(
    benchmark, big_counts, primitive
) -> None:
    score = benchmark(primitive, big_counts)
    assert 0.0 < score < 1.0


@pytest.fixture(scope="module")
def routing_table() -> tuple[PrefixTrie[int], np.ndarray]:
    trie: PrefixTrie[int] = PrefixTrie()
    rng = np.random.default_rng(1)
    for asn in range(20_000):
        network = int(rng.integers(0, 1 << 32)) & ~((1 << 12) - 1)
        trie.insert(Prefix(network, 20), asn)
    probes = rng.integers(0, 1 << 32, size=2_000)
    return trie, probes


def test_perf_longest_prefix_match(benchmark, routing_table) -> None:
    trie, probes = routing_table

    def lookup_batch() -> int:
        hits = 0
        for address in probes:
            if trie.lookup(int(address)) is not None:
                hits += 1
        return hits

    hits = benchmark(lookup_batch)
    assert hits > 0


@pytest.fixture(scope="module")
def resolver_with_zones() -> tuple[Resolver, list[str]]:
    namespace = Namespace()
    names = []
    for i in range(2_000):
        domain = f"perf-site-{i:05d}.com"
        zone = namespace.create_zone(domain)
        zone.add("@", "NS", "ns1.perf-dns.com")
        zone.add("@", "A", 1000 + i)
        names.append(domain)
    dns_zone = namespace.create_zone("perf-dns.com")
    dns_zone.add("@", "NS", "ns1.perf-dns.com")
    dns_zone.add("ns1", "A", 99)
    return Resolver(namespace, cache_enabled=False), names


def test_perf_resolver_throughput(benchmark, resolver_with_zones) -> None:
    resolver, names = resolver_with_zones

    def resolve_all() -> int:
        total = 0
        for name in names:
            total += resolver.resolve(name).addresses[0]
        return total

    total = benchmark(resolve_all)
    assert total > 0
