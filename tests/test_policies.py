"""Replacement policies, observed through the cache API.

Each test fills a one-set (fully-associative) cache and watches which key
the next fill evicts, via the cache's eviction listener.  Exclusion is
exercised with pinned fills, which victim selection skips.  The per-set
policy objects these behaviours used to live in survive as the reference
model in ``tests/cache_reference.py`` (see ``tests/test_cache_reference.py``).
"""

import random

import pytest

from repro.cache import FullyAssociativeCache, SetAssociativeCache
from tests.cache_reference import LfuPolicy, LruPolicy


def one_set(policy, entries, keys=(), next_use=None):
    """A fully-associative cache filled with ``keys``; its ``victims`` list
    records every key evicted from then on."""
    cache = FullyAssociativeCache(entries, policy=policy, next_use=next_use)
    victims = []
    cache.eviction_listener = lambda key, victim: victims.append(victim)
    for key in keys:
        cache.insert(key, key.upper())
    return cache, victims


def counters(cache):
    """The one set's LFU counters by key."""
    ((items, counts, _),) = cache.state()
    return {key: count for (key, _), count in zip(items, counts)}


class TestLru:
    def test_victim_is_least_recent(self):
        cache, victims = one_set("lru", 3, "abc")
        cache.insert("d", "D")
        assert victims == ["a"]

    def test_hit_refreshes_recency(self):
        cache, victims = one_set("lru", 3, "abc")
        cache.lookup("a")
        cache.insert("d", "D")
        assert victims == ["b"]

    def test_evict_removes_key(self):
        cache, _ = one_set("lru", 3, "ab")
        cache.invalidate("a")
        assert list(cache.keys()) == ["b"]

    def test_victim_respects_exclusion(self):
        cache, victims = one_set("lru", 4)
        cache.insert("a", "A", pinned=True)
        for key in "bcd":
            cache.insert(key, key.upper())
        cache.insert("e", "E")
        assert victims == ["b"]

    def test_victim_none_when_all_excluded(self):
        # The pin budget leaves unpinned ways, so a full set of pins cannot
        # arise from fills; should it, the oldest pin is released and
        # its key evicted.
        cache, _ = one_set("lru", 2, "ab")
        cache._pins = [{"a": None, "b": None}]
        assert cache._victim(0, cache._entries[0]) == "a"
        assert list(cache._pins[0]) == ["b"]

    def test_victim_on_empty_raises(self):
        # The reference model refuses to pick from an empty set; the cache
        # never asks, because a fill into a set with free ways evicts
        # nothing.
        with pytest.raises(LookupError):
            LruPolicy().victim()
        cache, victims = one_set("lru", 2, "a")
        cache.insert("b", "B")
        assert victims == [] and cache.stats.evictions == 0

    def test_promote_acts_as_touch(self):
        cache, victims = one_set("lru", 3, "abc")
        cache.insert("a", "A2", priority=1)
        cache.insert("d", "D")
        assert victims == ["b"]
        assert cache.probe("a") == "A2"


class TestFifo:
    def test_victim_is_oldest_insertion(self):
        cache, victims = one_set("fifo", 3, "abc")
        cache.lookup("a")  # hits do not matter for FIFO
        cache.insert("d", "D")
        assert victims == ["a"]

    def test_exclusion(self):
        cache, victims = one_set("fifo", 2)
        cache.insert("a", "A", pinned=True)
        cache.insert("b", "B")
        cache.insert("c", "C")
        assert victims == ["b"]


class TestLfu:
    def test_victim_is_least_frequent(self):
        cache, victims = one_set("lfu", 2, ["hot", "cold"])
        for _ in range(5):
            cache.lookup("hot")
        cache.insert("new", "NEW")
        assert victims == ["cold"]

    def test_tie_broken_by_insertion_order(self):
        cache, victims = one_set("lfu", 2, ["first", "second"])
        cache.insert("third", "THIRD")
        assert victims == ["first"]

    def test_counter_saturation_halves_row(self):
        """The paper's scheme: a 4-bit counter saturates at 15 and the whole
        row is halved."""
        cache, _ = one_set("lfu", 2, ["hot", "warm"])
        for _ in range(3):
            cache.lookup("warm")  # counter 4
        for _ in range(14):
            cache.lookup("hot")  # counter reaches 15
        cache.lookup("hot")  # triggers halving: hot 7->8, warm 2
        assert counters(cache) == {"hot": 8, "warm": 2}

    def test_promote_adds_steps(self):
        cache, _ = one_set("lfu", 2)
        cache.insert("a", "A", priority=2)  # fill counts 1, priority 2 more
        assert counters(cache) == {"a": 3}

    def test_relative_frequency_preserved_after_halving(self):
        cache, victims = one_set("lfu", 2, ["hot", "cold"])
        for _ in range(40):  # saturates and halves the row twice
            cache.lookup("hot")
        cache.insert("new", "NEW")
        assert victims == ["cold"]

    def test_invalid_counter_bits(self):
        # The cache's counters are the paper's fixed 4 bits; the reference
        # model's width is a parameter and must be positive.
        with pytest.raises(ValueError):
            LfuPolicy(counter_bits=0)

    def test_exclusion_picks_next_least_frequent(self):
        cache, victims = one_set("lfu", 3)
        cache.insert("a", "A", pinned=True)
        cache.insert("b", "B")
        cache.insert("c", "C")
        cache.lookup("b")
        cache.lookup("c")
        cache.insert("d", "D")
        assert victims == ["b"]


class TestRandom:
    def test_deterministic_with_seed(self):
        runs = []
        for _ in range(2):
            cache, victims = one_set("random", 3, "abc")
            for key in "defghi":
                cache.insert(key, key.upper())
            runs.append(victims)
        assert runs[0] == runs[1]
        # Each set draws from its own Random(0).
        assert runs[0][0] == random.Random(0).choice(list("abc"))

    def test_victim_among_tracked_keys(self):
        cache, victims = one_set("random", 3, "abc")
        cache.insert("d", "D")
        assert victims[0] in set("abc")
        assert set(cache.keys()) == set("abcd") - set(victims)

    def test_exclusion(self):
        cache, victims = one_set("random", 2)
        cache.insert("a", "A", pinned=True)
        cache.insert("b", "B")
        cache.insert("c", "C")
        assert victims == ["b"]


class TestOracle:
    def test_evicts_furthest_future_use(self):
        future = {"a": 10, "b": 3, "c": 7, "d": 1}
        cache, victims = one_set("oracle", 3, "abc", next_use=future.get)
        cache.insert("d", "D")
        assert victims == ["a"]

    def test_never_used_again_is_perfect_victim(self):
        future = {"a": 10, "b": None, "c": 1}
        cache, victims = one_set("oracle", 2, "ab", next_use=future.get)
        cache.insert("c", "C")
        assert victims == ["b"]

    def test_exclusion(self):
        future = {"a": 10, "b": 3, "c": 1}
        cache, victims = one_set("oracle", 2, next_use=future.get)
        cache.insert("a", "A", pinned=True)
        cache.insert("b", "B")
        cache.insert("c", "C")
        assert victims == ["b"]


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "lfu", "fifo", "random"])
    def test_known_policies(self, name):
        # Every set keeps its own replacement state.
        cache = SetAssociativeCache(8, 2, policy=name, indexer=lambda key, n: key % n)
        for key in (0, 4, 8, 1):
            cache.insert(key, key)
        assert cache.policy_name == name
        assert [cache.set_occupancy(i) for i in range(4)] == [2, 1, 0, 0]
        assert cache.stats.evictions == 1

    def test_case_insensitive(self):
        cache, victims = one_set("LFU", 2, ["hot", "cold"])
        cache.lookup("hot")
        cache.insert("new", "NEW")
        assert cache.policy_name == "lfu"
        assert victims == ["cold"]

    def test_oracle_requires_next_use(self):
        with pytest.raises(ValueError):
            FullyAssociativeCache(4, policy="oracle")

    def test_oracle_with_next_use(self):
        cache = FullyAssociativeCache(4, policy="oracle", next_use=lambda key: None)
        assert cache.policy_name == "oracle"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(4, 4, policy="mru")
