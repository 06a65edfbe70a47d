"""Set-associative cache: one insertion-ordered dict per set.

This is the workhorse structure behind the DevTLB, IOTLB and the L2/L3
page-walk caches.  The cache owns its replacement state directly, with no
per-set policy objects:

* every set is one ``key -> value`` dict whose insertion order is the
  replacement order — LRU re-inserts a key on every hit, FIFO, random and
  oracle never reorder;
* LFU adds a parallel ``key -> counter`` dict per set: the paper's 4-bit
  saturating counter per entry, and when any counter in a row saturates,
  every counter in that row is halved.  The victim is the first (oldest)
  key holding the row's lowest count;
* random keeps one ``Random(0)`` per set; the Belady *oracle* evicts the
  entry whose ``next_use`` lies furthest in the future (Section V-C).

How a key picks its set is fixed at construction: by the folded address
bits of the key (the default), by a caller-supplied ``indexer``, or — in
:class:`~repro.cache.partitioned.PartitionedCache` — by the SID partition.
"""

from __future__ import annotations

from random import Random
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.cache.base import TranslationCache

#: Replacement policies, by the names configs and the paper's figures use.
POLICIES = ("lru", "fifo", "lfu", "random", "oracle")

#: The LFU counter ceiling: 4 bits, as in the paper.
LFU_COUNTER_MAX = (1 << 4) - 1


class SetAssociativeCache(TranslationCache):
    """An ``num_sets`` x ``ways`` cache.

    Parameters
    ----------
    num_entries:
        Total capacity; must be divisible by ``ways``.
    ways:
        Associativity.  ``ways == num_entries`` makes it fully associative.
    policy:
        Replacement policy name (``lru``, ``lfu``, ``fifo``, ``random``,
        ``oracle``), case-insensitive.
    indexer:
        Optional ``callable(key, num_sets) -> set_index``; its result is
        range-checked on every probe.  Without one, a ``(sid, page)`` key
        with an ``int`` page indexes by the XOR-folded page (so tenants
        with identical gIOVA layouts compete for the same sets — the SID
        lives in the tag), and any other key by its hash.
    next_use:
        Future-knowledge callable, required when ``policy == "oracle"``.
    """

    __slots__ = (
        "num_entries",
        "ways",
        "num_sets",
        "policy_name",
        "pin_capacity",
        "_indexer",
        "_entries",
        "_lru",
        "_counts",
        "_rngs",
        "_next_use",
        "_pins",
    )

    def __init__(
        self,
        num_entries: int,
        ways: int,
        policy: str = "lru",
        name: str = "cache",
        indexer: Optional[Callable[[Hashable, int], int]] = None,
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        super().__init__(name=name)
        if num_entries < 1 or ways < 1:
            raise ValueError("num_entries and ways must be positive")
        if num_entries % ways != 0:
            raise ValueError(
                f"num_entries ({num_entries}) must be divisible by ways ({ways})"
            )
        lowered = policy.lower()
        if lowered not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(POLICIES)}"
            )
        if lowered == "oracle" and next_use is None:
            raise ValueError("oracle policy requires a next_use callable")
        self.num_entries = num_entries
        self.ways = ways
        num_sets = self.num_sets = num_entries // ways
        self.policy_name = lowered
        self._indexer = indexer
        self._entries: List[Dict[Hashable, Any]] = [{} for _ in range(num_sets)]
        self._lru = lowered == "lru"
        self._counts: Optional[List[Dict[Hashable, int]]] = (
            [{} for _ in range(num_sets)] if lowered == "lfu" else None
        )
        self._rngs: Optional[List[Random]] = (
            [Random(0) for _ in range(num_sets)] if lowered == "random" else None
        )
        self._next_use = next_use if lowered == "oracle" else None
        # Pinned prefetch entries per set (insertion-ordered so the oldest
        # pin is recycled first), allocated on the first pinned fill.  At
        # least two ways per set stay unpinned so victim selection can
        # never starve demand fills entirely.
        self._pins: Optional[List[Dict[Hashable, None]]] = None
        if ways > 2:
            self.pin_capacity = ways - 2
        elif ways == 2:
            self.pin_capacity = 1
        else:
            self.pin_capacity = 0

    # ------------------------------------------------------------------
    def _set_index(self, key: Hashable) -> int:
        indexer = self._indexer
        if indexer is None:
            if type(key) is tuple and len(key) == 2:
                page = key[1]
                if type(page) is int:
                    return (page ^ (page >> 9) ^ (page >> 18)) % self.num_sets
            return hash(key) % self.num_sets
        index = indexer(key, self.num_sets)
        if not 0 <= index < self.num_sets:
            raise ValueError(
                f"indexer returned {index}, outside 0..{self.num_sets - 1}"
            )
        return index

    def lookup(self, key: Hashable) -> Optional[Any]:
        index = self._set_index(key)
        entries = self._entries[index]
        if key not in entries:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if self._lru:
            value = entries[key] = entries.pop(key)
        else:
            value = entries[key]
            counts = self._counts
            if counts is not None:
                row = counts[index]
                count = row[key] + 1
                if count > LFU_COUNTER_MAX:
                    _halve(row)
                    count = row[key] + 1
                row[key] = count
        pins = self._pins
        if pins is not None:
            # First use of a pinned prefetch entry releases the pin.
            pins[index].pop(key, None)
        return value

    def insert(
        self, key: Hashable, value: Any, priority: int = 0, pinned: bool = False
    ) -> None:
        """Insert or update ``key``.

        ``priority`` > 0 counts that many extra uses on the entry's LFU
        counter; the other policies ignore it (an LRU fill or update
        already makes the entry most recent).  ``pinned`` marks a prefetch
        fill that must survive until its predicted use: pinned entries are
        excluded from victim selection until first hit, with at most
        :attr:`pin_capacity` pins per set (the oldest pin is released when
        the budget is exceeded).
        """
        index = self._set_index(key)
        entries = self._entries[index]
        counts = self._counts
        if key in entries:
            if self._lru:
                del entries[key]
            entries[key] = value
            if counts is not None:
                _bump(counts[index], key, 1 + priority)
            if pinned:
                self._pin(index, key)
            return
        if len(entries) >= self.ways:
            victim = self._victim(index, entries)
            del entries[victim]
            if counts is not None:
                del counts[index][victim]
            pins = self._pins
            if pins is not None:
                pins[index].pop(victim, None)
            self.stats.evictions += 1
            if self.eviction_listener is not None:
                self.eviction_listener(key, victim)
        entries[key] = value
        if counts is not None:
            row = counts[index]
            if priority:
                row[key] = 0
                _bump(row, key, 1 + priority)
            else:
                row[key] = 1
        if pinned:
            self._pin(index, key)
        self.stats.fills += 1

    def _victim(self, index: int, entries: Dict[Hashable, Any]) -> Hashable:
        """The key a fill into full set ``index`` evicts.

        Pinned keys are skipped; when every resident key is pinned (cannot
        happen while the pin budget leaves unpinned ways, but stay safe)
        the oldest pin is released and its key evicted.
        """
        pins = self._pins
        pinned = pins[index] if pins is not None else None
        counts = self._counts
        victim = None
        if counts is not None:
            # First (oldest) key holding the lowest counter.
            lowest = None
            for key, count in counts[index].items():
                if (lowest is None or count < lowest) and not (
                    pinned and key in pinned
                ):
                    victim, lowest = key, count
        elif self._rngs is not None:
            candidates = [key for key in entries if not (pinned and key in pinned)]
            if candidates:
                victim = self._rngs[index].choice(candidates)
        elif self._next_use is not None:
            next_use = self._next_use
            furthest = -1.0
            for key in entries:
                if pinned and key in pinned:
                    continue
                distance = next_use(key)
                if distance is None:
                    return key  # never used again: perfect victim
                if distance > furthest:
                    victim, furthest = key, distance
        elif pinned:
            for key in entries:
                if key not in pinned:
                    return key
        else:
            return next(iter(entries))
        if victim is None:
            victim = next(iter(pinned))
            del pinned[victim]
        return victim

    def _pin(self, index: int, key: Hashable) -> None:
        if self.pin_capacity == 0:
            return
        if self._pins is None:
            self._pins = [{} for _ in range(self.num_sets)]
        pins = self._pins[index]
        pins.pop(key, None)
        while len(pins) >= self.pin_capacity:
            del pins[next(iter(pins))]
        pins[key] = None

    def probe(self, key: Hashable) -> Optional[Any]:
        return self._entries[self._set_index(key)].get(key)

    def invalidate(self, key: Hashable) -> bool:
        index = self._set_index(key)
        entries = self._entries[index]
        if key not in entries:
            return False
        del entries[key]
        if self._counts is not None:
            del self._counts[index][key]
        if self._pins is not None:
            self._pins[index].pop(key, None)
        self.stats.invalidations += 1
        return True

    def invalidate_all(self) -> None:
        for rows in (self._entries, self._counts, self._pins):
            if rows is not None:
                for row in rows:
                    row.clear()
        self.stats.invalidations += 1

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries)

    # ------------------------------------------------------------------
    def set_occupancy(self, index: int) -> int:
        """Number of valid entries in set ``index`` (for tests/analysis)."""
        return len(self._entries[index])

    def state(self) -> tuple:
        """Every set's contents and replacement state, as one hashable tuple.

        Per set: its ``(key, value)`` pairs in replacement order, its LFU
        counters in the same order (empty for other policies), and its
        pinned keys.  For LRU, FIFO and LFU, caches with equal states
        behave identically from then on (random and oracle also depend
        on their generator or future).
        """
        counts = self._counts
        pins = self._pins
        return tuple(
            (
                tuple(entries.items()),
                tuple(counts[index].values()) if counts is not None else (),
                tuple(pins[index]) if pins is not None else (),
            )
            for index, entries in enumerate(self._entries)
        )

    def keys(self):
        """Iterate over all cached keys, set by set."""
        for entries in self._entries:
            yield from entries


def _halve(row: Dict[Hashable, int]) -> None:
    """LFU saturation: halve every counter in the row."""
    for key, count in row.items():
        row[key] = count >> 1


def _bump(row: Dict[Hashable, int], key: Hashable, steps: int) -> None:
    """Count ``steps`` uses of ``key``, halving the row on saturation."""
    for _ in range(steps):
        count = row[key] + 1
        if count > LFU_COUNTER_MAX:
            _halve(row)
            count = row[key] + 1
        row[key] = count


class FullyAssociativeCache(SetAssociativeCache):
    """Convenience subclass: one set holding every entry.

    Used for the paper's fully-associative DevTLB study (Figure 11c) and for
    the 8-entry Prefetch Buffer.
    """

    __slots__ = ()

    def __init__(
        self,
        num_entries: int,
        policy: str = "lru",
        name: str = "fa-cache",
        next_use: Optional[Callable[[Hashable], Optional[float]]] = None,
    ):
        super().__init__(
            num_entries=num_entries,
            ways=num_entries,
            policy=policy,
            name=name,
            next_use=next_use,
        )
