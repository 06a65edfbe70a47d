"""Translation-cache structures: set-associative and partitioned.

Public surface:

* :class:`~repro.cache.base.TranslationCache` / :class:`~repro.cache.base.CacheStats`
* :class:`~repro.cache.setassoc.SetAssociativeCache` and
  :class:`~repro.cache.setassoc.FullyAssociativeCache`
* :class:`~repro.cache.partitioned.PartitionedCache`
"""

from repro.cache.base import CacheStats, TranslationCache
from repro.cache.partitioned import PartitionedCache, partition_of
from repro.cache.setassoc import FullyAssociativeCache, SetAssociativeCache

__all__ = [
    "CacheStats",
    "TranslationCache",
    "SetAssociativeCache",
    "FullyAssociativeCache",
    "PartitionedCache",
    "partition_of",
]
