"""Shared cache interfaces and statistics.

Every translation structure in the model — DevTLB, IOTLB, nested/page-walk
TLBs, prefetch buffer, context cache — implements :class:`TranslationCache`,
so the simulator and the experiment sweeps can treat them uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Optional


@dataclass(init=False)
class CacheStats:
    """Hit/miss/eviction counters for one cache instance.

    Slotted (fields carry no class-level defaults, so ``__init__`` is
    written out): it is pickled with the caches in every checkpoint.
    """

    __slots__ = ("hits", "misses", "fills", "evictions", "invalidations")

    hits: int
    misses: int
    fills: int
    evictions: int
    invalidations: int

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        fills: int = 0,
        evictions: int = 0,
        invalidations: int = 0,
    ):
        self.hits = hits
        self.misses = misses
        self.fills = fills
        self.evictions = evictions
        self.invalidations = invalidations

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when never accessed)."""
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Return a new :class:`CacheStats` summing ``self`` and ``other``."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            fills=self.fills + other.fills,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
        )


class TranslationCache(ABC):
    """Abstract key/value cache with hit/miss accounting.

    Keys are opaque hashables chosen by the owner (for example
    ``(sid, giova_page)`` for a DevTLB).  ``lookup`` returns the stored value
    or ``None``, updating statistics and recency state; ``probe`` inspects
    without side effects.

    Caches declare ``__slots__``: simulation checkpoints pickle them, and
    a slotted object stays as fast to access after pickling as before.
    """

    __slots__ = ("name", "stats", "eviction_listener")

    def __init__(self, name: str = "cache"):
        self.name = name
        self.stats = CacheStats()
        #: Optional observability hook ``callable(inserted_key, victim_key)``
        #: invoked on every capacity eviction (not on invalidations).  Left
        #: ``None`` unless an observer attaches one, so the only cost on the
        #: eviction path is a single ``is not None`` check — see
        #: :meth:`repro.obs.metrics.EvictionAttribution.listener_for`.
        self.eviction_listener = None

    @abstractmethod
    def lookup(self, key: Hashable) -> Optional[Any]:
        """Return the cached value for ``key`` or ``None``; updates stats."""

    @abstractmethod
    def insert(self, key: Hashable, value: Any, priority: int = 0) -> None:
        """Insert or update ``key``; may evict another entry.

        ``priority`` > 0 marks a prefetch fill whose entry should enter
        with elevated replacement priority: it must survive the window
        between install and predicted use.
        """

    @abstractmethod
    def probe(self, key: Hashable) -> Optional[Any]:
        """Return the cached value without touching stats or recency."""

    @abstractmethod
    def invalidate(self, key: Hashable) -> bool:
        """Drop ``key`` if present; return whether it was present."""

    @abstractmethod
    def invalidate_all(self) -> None:
        """Drop every entry (e.g. on an IOTLB flush)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of valid entries currently stored."""

    @abstractmethod
    def keys(self) -> Iterator[Hashable]:
        """Iterate over every cached key."""

    def contains(self, key: Hashable) -> bool:
        """Return whether ``key`` is cached (no stats side effects)."""
        return self.probe(key) is not None
