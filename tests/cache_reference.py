"""Reference translation cache: per-set replacement-policy objects.

This is the straightforward model of a set-associative cache that
:class:`repro.cache.setassoc.SetAssociativeCache` flattens into plain
per-set dicts.  Each set owns one policy object that is told about every
hit, fill and eviction and asked for a victim; the set's values live in a
separate dict.  ``tests/test_cache_reference.py`` drives both with the
same seeded operation streams and requires identical behaviour.

The LFU policy follows the paper exactly: a 4-bit saturating counter per
entry, and when any counter in a row saturates, every counter in that row
is halved.  Ties are broken by insertion order (oldest first).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional


class LruPolicy:
    """Least-recently-used eviction."""

    def __init__(self):
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key):
        self._order.move_to_end(key)

    def on_fill(self, key):
        self._order[key] = None
        self._order.move_to_end(key)

    def on_evict(self, key):
        del self._order[key]

    def promote(self, key, steps=1):
        self._order.move_to_end(key)

    def victim(self, excluding=frozenset()):
        if not self._order:
            raise LookupError("victim() on an empty set")
        for key in self._order:
            if key not in excluding:
                return key
        return None

    def keys(self):
        return self._order.keys()


class FifoPolicy(LruPolicy):
    """First-in-first-out eviction (insertion order, hits ignored)."""

    def on_hit(self, key):
        pass

    def on_fill(self, key):
        self._order[key] = None

    def promote(self, key, steps=1):
        pass


class LfuPolicy:
    """Least-frequently-used with saturating counters and row halving."""

    def __init__(self, counter_bits: int = 4):
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.counter_max = (1 << counter_bits) - 1
        self._counts: "OrderedDict[Hashable, int]" = OrderedDict()

    def on_hit(self, key):
        self._bump(key)

    def on_fill(self, key):
        self._counts[key] = 0
        self._bump(key)

    def promote(self, key, steps=1):
        for _ in range(steps):
            self._bump(key)

    def on_evict(self, key):
        del self._counts[key]

    def victim(self, excluding=frozenset()):
        if not self._counts:
            raise LookupError("victim() on an empty set")
        best_key, best_count = None, None
        for key, count in self._counts.items():
            if key in excluding:
                continue
            if best_count is None or count < best_count:
                best_key, best_count = key, count
        return best_key

    def keys(self):
        return self._counts.keys()

    def _bump(self, key):
        count = self._counts[key] + 1
        if count > self.counter_max:
            for other in self._counts:
                self._counts[other] //= 2
            count = self._counts[key] + 1
        self._counts[key] = count


class RandomPolicy:
    """Uniform-random eviction with a seeded generator."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self._keys: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key):
        pass

    def on_fill(self, key):
        self._keys[key] = None

    def on_evict(self, key):
        del self._keys[key]

    def promote(self, key, steps=1):
        pass

    def victim(self, excluding=frozenset()):
        if not self._keys:
            raise LookupError("victim() on an empty set")
        candidates = [key for key in self._keys if key not in excluding]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def keys(self):
        return self._keys.keys()


class OraclePolicy:
    """Belady: evict the key whose next use lies furthest in the future."""

    def __init__(self, next_use: Callable[[Hashable], Optional[float]]):
        self._next_use = next_use
        self._keys: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_hit(self, key):
        pass

    def on_fill(self, key):
        self._keys[key] = None

    def on_evict(self, key):
        del self._keys[key]

    def promote(self, key, steps=1):
        pass

    def victim(self, excluding=frozenset()):
        if not self._keys:
            raise LookupError("victim() on an empty set")
        best_key, best_distance = None, -1.0
        for key in self._keys:
            if key in excluding:
                continue
            distance = self._next_use(key)
            if distance is None:
                return key
            if distance > best_distance:
                best_key, best_distance = key, distance
        return best_key

    def keys(self):
        return self._keys.keys()


def make_policy(name: str, next_use=None):
    lowered = name.lower()
    if lowered == "oracle":
        if next_use is None:
            raise ValueError("oracle policy requires a next_use callable")
        return OraclePolicy(next_use)
    factories = {"lru": LruPolicy, "fifo": FifoPolicy, "lfu": LfuPolicy,
                 "random": RandomPolicy}
    if lowered not in factories:
        raise ValueError(f"unknown policy {name!r}")
    return factories[lowered]()


# ----------------------------------------------------------------------
# Set selection, written out helper by helper
# ----------------------------------------------------------------------
def fold_index(value: int) -> int:
    value = int(value)
    return value ^ (value >> 9) ^ (value >> 18)


def default_indexer(key, num_sets: int) -> int:
    if type(key) is tuple and len(key) == 2:
        value = key[1]
        if type(value) is int:
            return fold_index(value) % num_sets
    return hash(key) % num_sets


def partitioned_indexer(num_partitions: int):
    def index(key, num_sets: int) -> int:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise TypeError(f"partitioned caches require (sid, page) keys, got {key!r}")
        sid, secondary = key
        per_partition = num_sets // num_partitions
        base = (sid % num_partitions) * per_partition
        folded = fold_index(secondary) if isinstance(secondary, int) else hash(secondary)
        return base + folded % per_partition

    return index


class ReferenceCache:
    """``num_sets`` x ``ways`` cache over per-set policy objects."""

    def __init__(self, num_entries: int, ways: int, policy: str = "lru",
                 indexer=None, next_use=None):
        self.ways = ways
        self.num_sets = num_entries // ways
        self._indexer = indexer or default_indexer
        self.policies = [make_policy(policy, next_use) for _ in range(self.num_sets)]
        self.sets: List[Dict[Hashable, Any]] = [{} for _ in range(self.num_sets)]
        self.pinned: List[Dict[Hashable, None]] = [{} for _ in range(self.num_sets)]
        self.pin_capacity = ways - 2 if ways > 2 else (1 if ways == 2 else 0)
        self.hits = self.misses = self.fills = 0
        self.evictions = self.invalidations = 0
        self.eviction_listener = None

    def _set_for(self, key) -> int:
        index = self._indexer(key, self.num_sets)
        if not 0 <= index < self.num_sets:
            raise ValueError(f"indexer returned {index}")
        return index

    def lookup(self, key):
        index = self._set_for(key)
        entry_set = self.sets[index]
        if key in entry_set:
            self.hits += 1
            self.policies[index].on_hit(key)
            self.pinned[index].pop(key, None)
            return entry_set[key]
        self.misses += 1
        return None

    def insert(self, key, value, priority: int = 0, pinned: bool = False):
        index = self._set_for(key)
        entry_set = self.sets[index]
        policy = self.policies[index]
        pins = self.pinned[index]
        if key in entry_set:
            entry_set[key] = value
            policy.on_hit(key)
            if priority:
                policy.promote(key, priority)
            if pinned:
                self._pin(pins, key)
            return
        if len(entry_set) >= self.ways:
            victim = policy.victim(excluding=pins)
            if victim is None:
                victim = next(iter(pins))
                del pins[victim]
            policy.on_evict(victim)
            del entry_set[victim]
            pins.pop(victim, None)
            self.evictions += 1
            if self.eviction_listener is not None:
                self.eviction_listener(key, victim)
        entry_set[key] = value
        policy.on_fill(key)
        if priority:
            policy.promote(key, priority)
        if pinned:
            self._pin(pins, key)
        self.fills += 1

    def _pin(self, pins, key):
        if self.pin_capacity == 0:
            return
        pins.pop(key, None)
        while len(pins) >= self.pin_capacity:
            del pins[next(iter(pins))]
        pins[key] = None

    def probe(self, key):
        return self.sets[self._set_for(key)].get(key)

    def invalidate(self, key) -> bool:
        index = self._set_for(key)
        entry_set = self.sets[index]
        if key not in entry_set:
            return False
        self.policies[index].on_evict(key)
        del entry_set[key]
        self.pinned[index].pop(key, None)
        self.invalidations += 1
        return True

    def invalidate_all(self) -> None:
        for index, entry_set in enumerate(self.sets):
            for key in list(entry_set):
                self.policies[index].on_evict(key)
            entry_set.clear()
            self.pinned[index].clear()
        self.invalidations += 1
