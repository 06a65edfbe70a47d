"""Differential test: the flattened caches against the reference model.

:mod:`tests.cache_reference` keeps the per-set policy-object model of a
set-associative cache.  Every policy on every geometry is driven through
seeded random streams of ``lookup``, ``insert`` (with ``priority`` and
``pinned``), ``invalidate``, ``invalidate_all`` and ``probe``; after each
operation both caches must agree on the returned value, every set's keys
in replacement order, values, LFU counters and pins (``state()``), the
statistics, and the eviction-listener calls so far.
"""

import random

import pytest

from repro.cache import FullyAssociativeCache, PartitionedCache, SetAssociativeCache
from tests.cache_reference import ReferenceCache, partitioned_indexer

POLICIES = ("lru", "fifo", "lfu", "random", "oracle")

#: name -> (num_entries, ways, num_partitions or None for unpartitioned,
#: fully associative).
GEOMETRIES = {
    "direct-mapped": (8, 1, None, False),
    "2-way": (8, 2, None, False),
    "4x4": (16, 4, None, False),
    "fully-associative": (8, 8, None, True),
    "partitioned": (32, 4, 4, False),
}

SEEDS = (0, 1, 2)
OPERATIONS = 600


def build(policy, geometry, next_use):
    entries, ways, partitions, fully = GEOMETRIES[geometry]
    if fully:
        cache = FullyAssociativeCache(entries, policy=policy, next_use=next_use)
    elif partitions:
        cache = PartitionedCache(entries, ways, partitions, policy=policy,
                                 next_use=next_use)
    else:
        cache = SetAssociativeCache(entries, ways, policy=policy, next_use=next_use)
    reference = ReferenceCache(
        entries, ways, policy=policy, next_use=next_use,
        indexer=partitioned_indexer(partitions) if partitions else None,
    )
    return cache, reference


def key_pool(rng):
    """(sid, page) keys: a few tenants sharing gIOVA-like pages, 2 MB-aligned
    pages, and tuple secondaries that index by hash."""
    pages = [rng.randrange(1 << 20) for _ in range(6)]
    pages += [0xBBE00 + i * 0x200 for i in range(4)]
    pages += [(rng.randrange(100), 7) for _ in range(2)]
    return [(sid, page) for sid in range(5) for page in pages]


def reference_state(reference, policy):
    """The reference's sets in the shape of ``SetAssociativeCache.state()``."""
    state = []
    for entry_set, rule, pins in zip(reference.sets, reference.policies, reference.pinned):
        order = list(rule.keys())
        assert sorted(order, key=repr) == sorted(entry_set, key=repr)
        counts = tuple(rule._counts.values()) if policy == "lfu" else ()
        state.append((tuple((key, entry_set[key]) for key in order), counts, tuple(pins)))
    return tuple(state)


def stats_of(cache):
    stats = cache.stats
    return (stats.hits, stats.misses, stats.fills, stats.evictions, stats.invalidations)


def reference_stats(reference):
    return (reference.hits, reference.misses, reference.fills,
            reference.evictions, reference.invalidations)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@pytest.mark.parametrize("policy", POLICIES)
def test_matches_reference(policy, geometry, seed):
    rng = random.Random(seed)
    keys = key_pool(rng)
    # The oracle's future changes as the stream advances; both caches
    # consult the same table.
    future = {}

    def next_use(key):
        return future.get(key)

    cache, reference = build(policy, geometry, next_use)
    seen, expected = [], []
    cache.eviction_listener = lambda key, victim: seen.append((key, victim))
    reference.eviction_listener = lambda key, victim: expected.append((key, victim))
    for step in range(OPERATIONS):
        if step % 50 == 0:
            future = {key: rng.choice([None, rng.randrange(1000)]) for key in keys}
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.35:
            op = ("lookup", key)
        elif roll < 0.8:
            priority = rng.choice((0, 0, 0, 1, 2))
            pinned = rng.random() < 0.2
            op = ("insert", key, step, priority, pinned)
        elif roll < 0.9:
            op = ("invalidate", key)
        elif roll < 0.995:
            op = ("probe", key)
        else:
            op = ("invalidate_all",)
        name, *args = op
        got = getattr(cache, name)(*args)
        want = getattr(reference, name)(*args)
        assert got == want, (step, op)
        assert stats_of(cache) == reference_stats(reference), (step, op)
        assert cache.state() == reference_state(reference, policy), (step, op)
        assert seen == expected, (step, op)
        assert len(cache) == sum(len(entry_set) for entry_set in reference.sets)
    assert cache.stats.evictions > 0
