"""IPv4 addressing: prefixes, allocation, and longest-prefix matching.

The substrate beneath pfx2as, geolocation, and anycast labeling.
Addresses are plain integers internally (fast for millions of lookups);
:class:`Prefix` handles parsing/formatting, :class:`PrefixTrie` answers
longest-prefix match from a flat interval table, and
:class:`PrefixAllocator` hands out non-overlapping blocks the way an
RIR would.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Generic, TypeVar

from ..errors import ReproError

__all__ = [
    "Prefix",
    "PrefixTrie",
    "PrefixAllocator",
    "KeyedPrefixAllocator",
    "AddressSpaceExhausted",
    "ip_to_int",
    "int_to_ip",
]

_MAX = (1 << 32) - 1

V = TypeVar("V")


class AddressSpaceExhausted(ReproError, RuntimeError):
    """Raised when the allocator runs out of IPv4 space."""


def ip_to_int(text: str) -> int:
    """Parse dotted-quad IPv4 text into an integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise ValueError(f"invalid IPv4 address {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format an integer as dotted-quad IPv4 text."""
    if not 0 <= value <= _MAX:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


@dataclass(frozen=True, slots=True)
class Prefix:
    """An IPv4 CIDR prefix (network integer + mask length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length must be 0..32, got {self.length}")
        if not 0 <= self.network <= _MAX:
            raise ValueError(f"network out of range: {self.network}")
        if self.network & (self.hostmask) != 0:
            raise ValueError(
                f"{int_to_ip(self.network)}/{self.length} has host bits set"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` CIDR notation."""
        if "/" not in text:
            raise ValueError(f"missing prefix length in {text!r}")
        addr, _, length_text = text.partition("/")
        length = int(length_text)
        return cls(network=ip_to_int(addr), length=length)

    @property
    def hostmask(self) -> int:
        """Host-bits mask of the prefix."""
        return (1 << (32 - self.length)) - 1

    @property
    def netmask(self) -> int:
        """Network-bits mask of the prefix."""
        return _MAX ^ self.hostmask

    @property
    def size(self) -> int:
        """Number of addresses covered."""
        return 1 << (32 - self.length)

    @property
    def first(self) -> int:
        """First (network) address."""
        return self.network

    @property
    def last(self) -> int:
        """Last (broadcast) address."""
        return self.network | self.hostmask

    def contains(self, address: int) -> bool:
        """True when the address falls inside this prefix."""
        return (address & self.netmask) == self.network

    def contains_prefix(self, other: "Prefix") -> bool:
        """True when the other prefix nests inside this one."""
        return self.length <= other.length and self.contains(other.network)

    def address(self, offset: int) -> int:
        """The ``offset``-th address in the prefix."""
        if not 0 <= offset < self.size:
            raise ValueError(
                f"offset {offset} outside /{self.length} prefix"
            )
        return self.network + offset

    def addresses(self) -> Iterator[int]:
        """Iterate every address in the prefix."""
        return iter(range(self.first, self.last + 1))

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


class PrefixTrie(Generic[V]):
    """IPv4 prefixes with longest-prefix match, answered from a flat table.

    The canonical structure behind pfx2as and prefix-based geolocation.
    Entries are kept in a dict; the first lookup after an insert
    flattens them into sorted, disjoint address intervals, each labelled
    with its innermost covering prefix, so a lookup is one ``bisect``
    instead of a walk down 32 bit-levels.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int], V] = {}
        # Interval starts (ascending, the first is 0), and per interval
        # the innermost covering (network, length) key and its value;
        # None until the first lookup after an insert.
        self._starts: list[int] | None = None
        self._keys: list[tuple[int, int] | None] = []
        self._values: list[V | None] = []

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or overwrite the value at ``prefix``."""
        self._entries[(prefix.network, prefix.length)] = value
        self._starts = None

    def _flatten(self) -> list[int]:
        # Prefixes nest or are disjoint, so one sweep in (network,
        # length) order with a stack of the open enclosing prefixes
        # yields every boundary: a prefix opens at its first address
        # and hands the rest of its parent back at its end.
        starts: list[int] = [0]
        keys: list[tuple[int, int] | None] = [None]

        def mark(address: int, key: tuple[int, int] | None) -> None:
            if starts[-1] == address:
                keys[-1] = key
            elif address <= _MAX:
                starts.append(address)
                keys.append(key)

        enclosing: list[tuple[int, tuple[int, int]]] = []
        for key in sorted(self._entries):
            network, length = key
            while enclosing and enclosing[-1][0] <= network:
                end, _ = enclosing.pop()
                mark(end, enclosing[-1][1] if enclosing else None)
            mark(network, key)
            enclosing.append((network + (1 << (32 - length)), key))
        while enclosing:
            end, _ = enclosing.pop()
            mark(end, enclosing[-1][1] if enclosing else None)

        entries = self._entries
        self._keys = keys
        self._values = [None if k is None else entries[k] for k in keys]
        self._starts = starts
        return starts

    def lookup(self, address: int) -> V | None:
        """Longest-prefix match for an address; None when uncovered."""
        starts = self._starts
        if starts is None:
            starts = self._flatten()
        return self._values[bisect_right(starts, address) - 1]

    def lookup_prefix(self, address: int) -> tuple[Prefix, V] | None:
        """Longest matching (prefix, value) pair; None when uncovered."""
        starts = self._starts
        if starts is None:
            starts = self._flatten()
        key = self._keys[bisect_right(starts, address) - 1]
        if key is None:
            return None
        return Prefix(*key), self._entries[key]

    def items(self) -> Iterator[tuple[Prefix, V]]:
        """All (prefix, value) pairs by ascending network, then length."""
        for key in sorted(self._entries):
            yield Prefix(*key), self._entries[key]


class PrefixAllocator:
    """Sequential, non-overlapping prefix allocation from a pool.

    Mimics an RIR handing providers address blocks.  Allocations are
    deterministic: the same request sequence yields the same prefixes.
    """

    def __init__(self, pool: Prefix | str = "10.0.0.0/8") -> None:
        self._pool = Prefix.parse(pool) if isinstance(pool, str) else pool
        self._cursor = self._pool.first

    @property
    def pool(self) -> Prefix:
        """The prefix pool being allocated from."""
        return self._pool

    @property
    def remaining(self) -> int:
        """Addresses still available in the pool."""
        return self._pool.last - self._cursor + 1

    def allocate(self, length: int) -> Prefix:
        """Allocate the next aligned /``length`` block."""
        if not self._pool.length <= length <= 32:
            raise ValueError(
                f"requested /{length} outside pool /{self._pool.length}"
            )
        size = 1 << (32 - length)
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self._pool.last:
            raise AddressSpaceExhausted(
                f"pool {self._pool} exhausted allocating /{length}"
            )
        self._cursor = aligned + size
        return Prefix(aligned, length)


class KeyedPrefixAllocator:
    """Per-key block allocation with hash-derived, stable placement.

    A sequential allocator makes every address depend on the *global*
    request order: insert one provider early and every later provider's
    prefixes shift.  That order-dependence is poison for incremental
    re-measurement, where a churned world should leave the unchanged
    providers' addresses alone.  Here each key (a provider, a cache
    node) owns a /``block_length`` block whose position is derived from
    ``sha256(key)``, and allocates sub-prefixes sequentially *inside*
    its own block — so a key's prefixes are a function of the key and
    its own request sequence only, independent of what other keys exist
    or in which order they allocated.

    Hash collisions (two keys landing on the same block) are resolved
    by deterministic linear probing; the probed key's placement then
    depends on whichever key claimed the block first, so collisions can
    degrade cross-world address stability — but never determinism
    within one world, and never correctness (consumers that need
    stability detect address changes by digest, not by assumption).
    """

    def __init__(
        self, pool: Prefix | str = "0.0.0.0/0", block_length: int = 16
    ) -> None:
        self._pool = Prefix.parse(pool) if isinstance(pool, str) else pool
        if not self._pool.length <= block_length <= 32:
            raise ValueError(
                f"block length /{block_length} outside pool "
                f"/{self._pool.length}"
            )
        self._block_length = block_length
        self._n_blocks = 1 << (block_length - self._pool.length)
        self._block_size = 1 << (32 - block_length)
        self._owner: dict[int, str] = {}
        self._blocks: dict[str, PrefixAllocator] = {}

    @property
    def pool(self) -> Prefix:
        """The prefix pool blocks are carved from."""
        return self._pool

    def _slot_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        base = int.from_bytes(digest[:8], "big")
        for probe in range(self._n_blocks):
            slot = (base + probe) % self._n_blocks
            owner = self._owner.get(slot)
            if owner is None:
                self._owner[slot] = key
                return slot
            if owner == key:
                return slot
        raise AddressSpaceExhausted(
            f"no free /{self._block_length} block in {self._pool} "
            f"for key {key!r}"
        )

    def block_of(self, key: str) -> Prefix:
        """The key's own block (claimed on first use)."""
        slot = self._slot_of(key)
        return Prefix(
            self._pool.network + slot * self._block_size,
            self._block_length,
        )

    def allocate(self, key: str, length: int) -> Prefix:
        """Allocate the key's next /``length`` prefix inside its block."""
        allocator = self._blocks.get(key)
        if allocator is None:
            allocator = self._blocks[key] = PrefixAllocator(
                self.block_of(key)
            )
        return allocator.allocate(length)
