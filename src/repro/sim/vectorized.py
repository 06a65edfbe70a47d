"""Vectorized batch translation engine: the struct-of-arrays twin.

The analytic engine walks the trace one packet at a time, paying Python
call overhead for every cache probe, PTB transaction, and stat update.
This engine replays the *same model* in two batch passes over
struct-of-arrays packet data:

1. **Stage A — cache outcomes.**  All cache state (DevTLB, shared
   IOTLB/nested/PTE caches, context cache, walkers) is *timing
   independent* with prefetching off: a request's hit/miss outcome and
   walk latency are a pure function of the access order, and the
   analytic admission loop retries a rejected packet until it lands —
   every packet is eventually processed, in trace order.  Stage A
   therefore drives the real cache objects in trace order once,
   recording each request's DevTLB hit flag and chipset walk latency
   into flat numpy arrays (``numpy.bool_`` / ``numpy.float64``, one slot
   per gIOVA).

   On top of that pass sits a *block cycle detector*: periodic traces
   (the common steady state — round-robin tenants replaying per-page
   loops) drive the caches through a repeating state orbit.  The pass
   snapshots canonical cache state at tenant-block boundaries, and when
   a snapshot repeats it leaps over every following block whose input
   slice (SIDs + gIOVA pages, no invalidations) matches one period
   earlier: per-request outcomes are tiled with ``numpy.tile`` and the
   aggregate counters (cache/DRAM/walk stats) advance by ``periods x
   per-period delta``.  Cache state is untouched by construction — that
   is what the snapshot equality proved.

2. **Stage B — exact scalar timing.**  Arrival times, drop-and-retry
   admission, PTB occupancy, and latency accounting are replayed
   per packet with the exact float-operation sequence of the analytic
   engine (IEEE addition is order sensitive, so these sums cannot be
   vectorized without changing the bytes).  The PTB is folded into a
   running prefix over arrival/completion times: a single completion
   scalar for the paper's one-entry Base design, a plain ``heapq``
   mirror of :class:`~repro.core.ptb.PendingTranslationBuffer`
   otherwise; rejected arrivals are marked dropped and re-timed to the
   next free wire slot, exactly like ``DeviceEngine.try_admit``.

The result is **byte-identical** (serialized :class:`SimulationResult`)
to the analytic engine — pinned by ``tests/test_vectorized.py`` against
the golden file and a property-based cross-engine matrix.

Scope and honesty
-----------------
The batch pass runs only for the configurations it can reproduce
byte-exactly: a single device, translation on (``native=False``), no
telemetry/observability, no prefetch unit, and no IOVA history.  Any
other combination silently falls back to the inherited analytic loop
(same object model, same result) and records why in
:attr:`VectorizedSimulator.batch_stats`.  Fault plans and checkpointing
raise :class:`VectorizedUnsupportedError` instead — the CLI turns that
into a clean exit 2.

Two engine-internal aggregates are intentionally left stale by the
batch pass because no single-device :class:`SimulationResult` carries
them: the per-device ``DeviceEngine`` mirrors (``iotlb_hits``,
``walker_queue_delay_ns``, per-engine packet/latency stats) and
per-tenant ``WalkerStats`` under a cycle leap (the walker memo is
bypassed for leaped blocks).  The serialized result is unaffected.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Optional

import numpy as np

from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.obs.metrics import latency_bucket
from repro.sim.resources import UnboundedPool
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import HyperTrace

#: Cycle-detector ring depth: state periods up to this many tenant
#: blocks are found.  Steady-state traces lock at period 1; the ring
#: exists for phase-offset workloads.
MAX_PERIOD = 8

#: Replacement policies whose state the block snapshot canonicalises.
#: Anything else (oracle, random) disables cycle detection — the batch
#: pass still runs, it just never leaps.
_SNAPSHOT_POLICIES = ("lru", "fifo", "lfu")


class VectorizedUnsupportedError(RuntimeError):
    """A feature the vectorized engine does not support was requested.

    Raised for fault plans and checkpoint/resume — combinations whose
    per-packet barriers are meaningless under batch execution.  The CLI
    reports these as a clean exit 2 rather than a traceback.
    """


class VectorizedSimulator(HyperSimulator):
    """Batch twin of :class:`HyperSimulator` behind the same interface.

    Construction is identical to the analytic simulator; :meth:`run`
    dispatches to the two-stage batch pass when the configuration is
    batch-eligible and to the inherited analytic loop otherwise, so the
    returned :class:`SimulationResult` is byte-identical either way.
    """

    #: Engine kind for checkpoint headers; vectorized runs never write
    #: checkpoints, but the kind still names the engine in errors.
    _engine_kind = "vectorized"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self._injector is not None:
            raise VectorizedUnsupportedError(
                "fault plans are not supported by the vectorized engine; "
                "run with engine='analytic'"
            )
        #: Introspection of the last :meth:`run`: ``mode`` is ``"batch"``
        #: or ``"fallback"`` (with ``reason``), and the block counters
        #: say how much of Stage A was leaped over.
        self.batch_stats = {
            "mode": None,
            "reason": None,
            "blocks_simulated": 0,
            "blocks_leaped": 0,
        }

    # ------------------------------------------------------------------
    def run(
        self,
        max_packets: Optional[int] = None,
        warmup_packets: int = 0,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        checkpoint_hook=None,
    ) -> SimulationResult:
        if checkpoint_every or checkpoint_path is not None or checkpoint_hook is not None:
            raise VectorizedUnsupportedError(
                "checkpointing is not supported by the vectorized engine "
                "(batch execution has no per-packet barrier); run with "
                "engine='analytic'"
            )
        reason = self._fallback_reason()
        if reason is not None:
            self.batch_stats["mode"] = "fallback"
            self.batch_stats["reason"] = reason
            return super().run(
                max_packets=max_packets, warmup_packets=warmup_packets
            )
        trace_packets = self.trace.packets
        total = len(trace_packets)
        if max_packets is not None:
            total = min(total, max_packets)
        if warmup_packets >= total:
            raise ValueError(
                f"warmup ({warmup_packets}) must be shorter than the trace "
                f"({total} packets)"
            )
        self.batch_stats["mode"] = "batch"
        self.batch_stats["reason"] = None
        return self._run_batch(trace_packets[:total], warmup_packets)

    # ------------------------------------------------------------------
    def _fallback_reason(self) -> Optional[str]:
        """Why the batch pass cannot run, or ``None`` when it can.

        Each condition names a feature whose per-packet side channel the
        batch split (cache pass / timing pass) cannot reproduce
        byte-exactly.
        """
        if self.native:
            return "native (no-translation) runs"
        if self.fabric.num_devices != 1:
            return "multi-device fabrics interleave per-device cursors"
        if self.telemetry is not None:
            return "telemetry samples per-packet state"
        if (
            self._tracer is not None
            or self._metrics is not None
            or self._phases is not None
        ):
            return "observability hooks observe per-packet state"
        if self.fabric.devices[0].prefetch_unit is not None:
            return "prefetching couples cache state to packet timing"
        if self.fabric.chipset.iova_history is not None:
            return "IOVA history records per-request accesses"
        return None

    # ------------------------------------------------------------------
    # The batch pass
    # ------------------------------------------------------------------
    def _run_batch(self, packets, warmup_packets: int) -> SimulationResult:
        n = len(packets)
        timing = self.config.timing

        # Struct-of-arrays packet columns.
        sids = np.fromiter((p.sid for p in packets), dtype=np.int64, count=n)
        sizes = np.fromiter(
            (p.size_bytes for p in packets), dtype=np.int64, count=n
        )
        counts = np.fromiter(
            (len(p.giovas) for p in packets), dtype=np.int64, count=n
        )
        total_requests = int(counts.sum())
        uniform_r = None
        if n and int(counts.min()) == int(counts.max()):
            uniform_r = int(counts[0])
        # Wire time column: full frames tick at the link's interarrival,
        # anything else serialises at line rate.  ``int64 * 8`` is exact
        # and the float division is the same IEEE op the scalar engine
        # performs, so the column is bit-identical to per-packet calls.
        wire = np.where(
            sizes == timing.packet_bytes,
            timing.packet_interarrival_ns,
            sizes * 8 / timing.link_bandwidth_gbps,
        )
        inv_flags = np.fromiter(
            (bool(p.invalidations) for p in packets), dtype=np.bool_, count=n
        )

        # Stage A: per-request cache outcomes (hit flag + walk latency).
        hit_flags = np.zeros(total_requests, dtype=np.bool_)
        walk_latency = np.zeros(total_requests, dtype=np.float64)
        self._stage_a(
            packets, n, sids, counts, inv_flags, uniform_r,
            hit_flags, walk_latency,
        )

        # Stage B: exact scalar timing over the outcome arrays.
        return self._stage_b(
            n, counts, sids, sizes, wire, hit_flags, walk_latency,
            warmup_packets,
        )

    # ------------------------------------------------------------------
    # Stage A: cache-outcome pass with block cycle detection
    # ------------------------------------------------------------------
    def _stage_a(
        self, packets, n, sids, counts, inv_flags, uniform_r,
        hit_flags, walk_latency,
    ) -> None:
        block = max(1, self.trace.num_tenants)
        detect = (
            uniform_r is not None
            and self._oracle is None
            and n >= 4 * block
            and self._snapshot_supported()
        )
        stats = self.batch_stats
        if not detect:
            self._stage_a_range(packets, 0, n, 0, hit_flags, walk_latency)
            stats["blocks_simulated"] += (n + block - 1) // block
            return

        requests = uniform_r
        nblocks = n // block
        pages = np.fromiter(
            (g >> 12 for p in packets for g in p.giovas),
            dtype=np.int64,
            count=n * requests,
        )
        sid_blocks = sids[: nblocks * block].reshape(nblocks, block)
        page_blocks = pages[: nblocks * block * requests].reshape(
            nblocks, block * requests
        )
        inv_any = inv_flags[: nblocks * block].reshape(nblocks, block).any(axis=1)

        ring = deque(maxlen=MAX_PERIOD)  # (snapshot, block index)
        deltas = deque(maxlen=MAX_PERIOD)  # per-block counter deltas
        i = 0
        cursor = 0  # flat request index at packet i
        while i < n:
            b = i // block
            if b >= nblocks:
                # Trailing partial block.
                self._stage_a_range(
                    packets, i, n, cursor, hit_flags, walk_latency
                )
                stats["blocks_simulated"] += 1
                return
            snapshot = self._state_snapshot()
            leaped = False
            for prev_snapshot, m in reversed(ring):
                if prev_snapshot != snapshot:
                    continue
                period = b - m
                # Longest run of blocks whose *input* matches one period
                # back; state repetition plus input repetition proves the
                # outcomes repeat too.  Blocks with invalidations never
                # match — their cache flushes must run for real.
                same = (
                    (sid_blocks[b:] == sid_blocks[b - period : nblocks - period])
                    .all(axis=1)
                    & (
                        page_blocks[b:]
                        == page_blocks[b - period : nblocks - period]
                    ).all(axis=1)
                    & ~inv_any[b:]
                    & ~inv_any[b - period : nblocks - period]
                )
                mismatch = np.flatnonzero(~same)
                run = int(mismatch[0]) if mismatch.size else int(same.size)
                whole = (run // period) * period
                if whole >= period:
                    span = block * requests
                    source = slice((b - period) * span, b * span)
                    reps = whole // period
                    lo = b * span
                    hi = lo + whole * span
                    hit_flags[lo:hi] = np.tile(hit_flags[source], reps)
                    walk_latency[lo:hi] = np.tile(walk_latency[source], reps)
                    period_delta = [0] * len(deltas[-1])
                    for d in list(deltas)[-period:]:
                        for k, value in enumerate(d):
                            period_delta[k] += value
                    self._apply_counter_delta(period_delta, reps)
                    stats["blocks_leaped"] += whole
                    i += whole * block
                    cursor += whole * span
                    # The boundary history predates the leap; restart it.
                    ring.clear()
                    deltas.clear()
                    leaped = True
                break
            if leaped:
                continue
            ring.append((snapshot, b))
            before = self._counter_tuple()
            cursor = self._stage_a_range(
                packets, i, i + block, cursor, hit_flags, walk_latency
            )
            after = self._counter_tuple()
            deltas.append(tuple(x - y for x, y in zip(after, before)))
            stats["blocks_simulated"] += 1
            i += block

    def _stage_a_range(
        self, packets, lo, hi, cursor, hit_flags, walk_latency
    ) -> int:
        """Drive the real cache objects for packets ``[lo, hi)``.

        The exact per-request access order of ``complete_packet`` /
        ``process_request``, minus everything timing-related.  Returns
        the advanced flat request cursor.
        """
        device = self.fabric.devices[0]
        chipset = self.fabric.chipset
        lookup = device.devtlb.lookup
        insert = device.devtlb.insert
        devtlb_invalidate = device.devtlb.invalidate
        iotlb_invalidate = chipset.iommu.iotlb.invalidate
        translate = chipset.iommu.translate
        walker_for = self.trace.system.walker_for
        oracle = self._oracle
        consume = oracle.consume if oracle is not None else None
        hit_buffer = []
        latency_buffer = []
        for index in range(lo, hi):
            packet = packets[index]
            sid = packet.sid
            if packet.invalidations:
                for page in packet.invalidations:
                    self.invalidation_messages += 1
                    key = (sid, page)
                    devtlb_invalidate(key)
                    iotlb_invalidate(key)
                    walker_for(sid).invalidate(page << 12)
            for giova in packet.giovas:
                key = (sid, giova >> 12)
                if consume is not None:
                    consume(key)
                cached = lookup(key)
                if cached is None:
                    outcome = translate(sid, giova)
                    insert(key, (outcome.hpa, outcome.page_shift, False))
                    hit_buffer.append(False)
                    latency_buffer.append(outcome.latency_ns)
                else:
                    hit_buffer.append(True)
                    latency_buffer.append(0.0)
        count = len(hit_buffer)
        hit_flags[cursor : cursor + count] = hit_buffer
        walk_latency[cursor : cursor + count] = latency_buffer
        return cursor + count

    # ------------------------------------------------------------------
    # Snapshots and counters for the cycle detector
    # ------------------------------------------------------------------
    def _snapshot_caches(self):
        chipset = self.fabric.chipset
        return (
            self.fabric.devices[0].devtlb,
            chipset.iommu.iotlb,
            chipset.iommu.nested_tlb,
            chipset.iommu.pte_cache,
            chipset.context_cache._cache,
        )

    def _snapshot_supported(self) -> bool:
        return all(
            cache.policy_name in _SNAPSHOT_POLICIES
            for cache in self._snapshot_caches()
        )

    def _state_snapshot(self):
        """Canonical tuple of every cache's content and policy state.

        Two equal snapshots mean the model is at the same point of its
        state orbit: identical subsequent inputs produce identical
        outcomes and identical counter deltas.  The shared host frame
        allocator's bump cursor rides along — a block that backs new
        host frames can never alias a block that does not.
        """
        parts = [self.trace.system.host_allocator.frames_allocated]
        for cache in self._snapshot_caches():
            parts.extend(cache.state())
        return tuple(parts)

    def _counter_tuple(self):
        """Every aggregate Stage A mutates, as one flat tuple of ints."""
        values = []
        for cache in self._snapshot_caches():
            stats = cache.stats
            values.extend(
                (
                    stats.hits,
                    stats.misses,
                    stats.fills,
                    stats.evictions,
                    stats.invalidations,
                )
            )
        chipset = self.fabric.chipset
        memory = chipset.memory.stats
        values.extend(
            (
                memory.reads,
                memory.page_table_reads,
                memory.history_reads,
                chipset.iommu.walks_performed,
                self.invalidation_messages,
            )
        )
        return tuple(values)

    def _apply_counter_delta(self, delta, reps: int) -> None:
        """Advance the Stage A aggregates by ``reps`` periods at once."""
        it = iter(delta)
        for cache in self._snapshot_caches():
            stats = cache.stats
            stats.hits += next(it) * reps
            stats.misses += next(it) * reps
            stats.fills += next(it) * reps
            stats.evictions += next(it) * reps
            stats.invalidations += next(it) * reps
        chipset = self.fabric.chipset
        memory = chipset.memory.stats
        memory.reads += next(it) * reps
        memory.page_table_reads += next(it) * reps
        memory.history_reads += next(it) * reps
        chipset.iommu.walks_performed += next(it) * reps
        self.invalidation_messages += next(it) * reps

    # ------------------------------------------------------------------
    # Stage B: exact scalar timing
    # ------------------------------------------------------------------
    def _stage_b(
        self, n, counts, sids, sizes, wire, hit_flags, walk_latency,
        warmup_packets,
    ) -> SimulationResult:
        timing = self.config.timing
        device = self.fabric.devices[0]
        entries = device.ptb.effective_entries
        pool = self.fabric.chipset.walker_pool
        unbounded = isinstance(pool, UnboundedPool)

        hit_ns = timing.iotlb_hit_ns
        pcie = timing.pcie_one_way_ns
        # The same float product the scalar engine evaluates per miss.
        two_pcie = 2 * timing.pcie_one_way_ns
        ceil = math.ceil
        heappush = heapq.heappush
        heappop = heapq.heappop

        # ``tolist`` materialises exact Python floats/ints: round-tripping
        # float64 through numpy is value-preserving, so Stage B arithmetic
        # sees the very same numbers the scalar engine would.
        hits_list = hit_flags.tolist()
        walk_list = walk_latency.tolist()
        wire_list = wire.tolist()
        counts_list = counts.tolist()
        pool_heap = None if unbounded else [0.0] * pool.capacity

        rejects = 0
        wait_total = 0.0
        occupancy_accumulator = 0
        max_occupancy = 0
        latency_count = 0
        latency_total = 0.0
        latency_min = 0.0
        latency_max = 0.0
        buckets = {}
        bucket_memo = {}
        clock = 0.0
        last_completion = 0.0
        measure_from_ns = 0.0
        warmup_boundary = warmup_packets  # processed count at the boundary
        cursor = 0

        if entries == 1:
            # The paper's Base design: one in-flight translation.  The
            # whole PTB heap folds into a single running completion
            # scalar — a prefix over arrival/completion times.
            completion_last = 0.0
            for i in range(n):
                w = wire_list[i]
                arrival = clock + w
                while completion_last > arrival:
                    # Drop-and-retry: burn the slot, re-arrive at the
                    # next wire slot with a free entry.
                    rejects += 1
                    slots = ceil((completion_last - arrival) / w)
                    if slots < 1:
                        slots = 1
                    arrival = arrival + slots * w
                for _ in range(counts_list[i]):
                    if hits_list[cursor]:
                        latency = hit_ns
                    else:
                        at_chipset = arrival + pcie
                        walk = walk_list[cursor]
                        if unbounded:
                            chipset_time = (at_chipset + walk) - at_chipset
                        else:
                            earliest = heappop(pool_heap)
                            start = (
                                at_chipset
                                if earliest <= at_chipset
                                else earliest
                            )
                            served = start + walk
                            heappush(pool_heap, served)
                            chipset_time = served - at_chipset
                        latency = hit_ns + (two_pcie + chipset_time)
                    if completion_last > arrival:
                        wait_total += completion_last - arrival
                        completion_last = completion_last + latency
                    else:
                        completion_last = arrival + latency
                    if latency_count == 0 or latency < latency_min:
                        latency_min = latency
                    latency_count += 1
                    latency_total += latency
                    if latency > latency_max:
                        latency_max = latency
                    bucket = bucket_memo.get(latency)
                    if bucket is None:
                        bucket = latency_bucket(latency)
                        bucket_memo[latency] = bucket
                    seen = buckets.get(bucket)
                    buckets[bucket] = 1 if seen is None else seen + 1
                    cursor += 1
                clock = arrival
                if completion_last > last_completion:
                    last_completion = completion_last
                if i + 1 == warmup_boundary:
                    measure_from_ns = (
                        last_completion
                        if last_completion > arrival
                        else arrival
                    )
            occupancy_accumulator = latency_count
            max_occupancy = 1 if latency_count else 0
            issued = latency_count
        else:
            completions = []  # heapq mirror of the PTB
            for i in range(n):
                w = wire_list[i]
                arrival = clock + w
                while True:
                    while completions and completions[0] <= arrival:
                        heappop(completions)
                    if len(completions) < entries:
                        break
                    rejects += 1
                    free_at = completions[0]
                    slots = ceil((free_at - arrival) / w)
                    if slots < 1:
                        slots = 1
                    arrival = arrival + slots * w
                packet_completion = arrival
                for _ in range(counts_list[i]):
                    if hits_list[cursor]:
                        latency = hit_ns
                    else:
                        at_chipset = arrival + pcie
                        walk = walk_list[cursor]
                        if unbounded:
                            chipset_time = (at_chipset + walk) - at_chipset
                        else:
                            earliest = heappop(pool_heap)
                            start = (
                                at_chipset
                                if earliest <= at_chipset
                                else earliest
                            )
                            served = start + walk
                            heappush(pool_heap, served)
                            chipset_time = served - at_chipset
                        latency = hit_ns + (two_pcie + chipset_time)
                    while completions and completions[0] <= arrival:
                        heappop(completions)
                    if len(completions) < entries:
                        start = arrival
                    else:
                        start = completions[0]
                        wait_total += start - arrival
                        heappop(completions)
                    finished = start + latency
                    heappush(completions, finished)
                    occupancy = len(completions)
                    occupancy_accumulator += occupancy
                    if occupancy > max_occupancy:
                        max_occupancy = occupancy
                    if latency_count == 0 or latency < latency_min:
                        latency_min = latency
                    latency_count += 1
                    latency_total += latency
                    if latency > latency_max:
                        latency_max = latency
                    bucket = bucket_memo.get(latency)
                    if bucket is None:
                        bucket = latency_bucket(latency)
                        bucket_memo[latency] = bucket
                    seen = buckets.get(bucket)
                    buckets[bucket] = 1 if seen is None else seen + 1
                    if finished > packet_completion:
                        packet_completion = finished
                    cursor += 1
                clock = arrival
                if packet_completion > last_completion:
                    last_completion = packet_completion
                if i + 1 == warmup_boundary:
                    measure_from_ns = (
                        last_completion
                        if last_completion > arrival
                        else arrival
                    )
            issued = latency_count

        # ----- fold the columns back into the live stats objects -----
        packet_stats = self.packet_stats
        packet_stats.arrived = n
        packet_stats.accepted = n
        packet_stats.dropped = rejects
        packet_stats.retried = rejects
        if rejects:
            packet_stats.drop_causes["ptb_overflow"] = rejects
        packet_stats.bytes_processed = int(sizes.sum())
        unique_sids, first_index, tenant_counts = np.unique(
            sids, return_index=True, return_counts=True
        )
        for k in np.argsort(first_index, kind="stable"):
            packet_stats.per_tenant_processed[int(unique_sids[k])] = int(
                tenant_counts[k]
            )

        latency_stats = self.latency_stats
        latency_stats.count = latency_count
        latency_stats.total_ns = latency_total
        latency_stats.min_ns = latency_min
        latency_stats.max_ns = latency_max
        latency_stats.buckets = buckets

        ptb_stats = device.ptb.stats
        ptb_stats.issued = issued
        ptb_stats.rejected_packets = rejects
        ptb_stats.max_occupancy = max_occupancy
        ptb_stats.occupancy_accumulator = occupancy_accumulator
        ptb_stats.total_wait_ns = wait_total

        engine = self.engines[0]
        engine.clock = clock
        engine.last_completion = last_completion

        measure_from_bytes = (
            int(sizes[:warmup_packets].sum()) if warmup_packets else 0
        )
        return self._finish(
            last_completion,
            measure_from_ns=measure_from_ns,
            measure_from_bytes=measure_from_bytes,
        )


def simulate_vectorized(
    config: ArchConfig,
    trace: HyperTrace,
    native: bool = False,
    max_packets: Optional[int] = None,
    warmup_packets: int = 0,
    telemetry=None,
    observability=None,
    fault_plan=None,
    checkpoint_every: int = 0,
    checkpoint_path=None,
    checkpoint_hook=None,
    resume_from=None,
) -> SimulationResult:
    """One-call convenience mirroring :func:`repro.sim.simulator.simulate`.

    Accepts the full analytic signature so callers can switch engines
    with one argument; checkpoint/resume and fault plans raise
    :class:`VectorizedUnsupportedError`.
    """
    if resume_from is not None:
        raise VectorizedUnsupportedError(
            "resume is not supported by the vectorized engine "
            "(vectorized runs never write checkpoints); resume with "
            "engine='analytic'"
        )
    simulator = VectorizedSimulator(
        config,
        trace,
        native=native,
        telemetry=telemetry,
        observability=observability,
        fault_plan=fault_plan,
    )
    return simulator.run(
        max_packets=max_packets,
        warmup_packets=warmup_packets,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
        checkpoint_hook=checkpoint_hook,
    )
