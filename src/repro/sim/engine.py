"""Per-device engine components of the fabric performance model.

The simulator used to be a monolith driving one
:class:`~repro.core.hypertrio.TranslationPath`; with the multi-device
fabric (:mod:`repro.core.fabric`) its per-packet machinery lives here as a
:class:`DeviceEngine` — one per device path, all sharing the chipset
through the fabric.  An engine owns everything device-local: the packet
cursor and per-device clock, admission against this device's PTB, the
translation of each request through the *shared* IOMMU, the prefetch
pipeline with its pending-install heap, and per-device accounting
(packet/latency stats, shared-IOTLB outcomes, walker queueing).

Every driver runs the paper's per-packet sequence through two calls:
:meth:`DeviceEngine.load` places a packet on the cursor, and
:meth:`DeviceEngine.dispatch` makes one admission attempt at the
cursor's arrival time (first-arrival accounting, then either admission
plus the packet's translations or a drop that moves the cursor to the
retry slot).  The analytic :class:`~repro.sim.simulator.HyperSimulator`
merges per-device cursors by ``(next_time, device_id)`` and the service's
:class:`~repro.service.engine.ServiceEngine` re-dispatches one cursor
until admission; the event-driven oracle the tests check the merge loop
against schedules the same two calls through an event queue.  Keeping
every structure access inside the engine is what makes the drivers
step-for-step identical — and makes a single-device run behave exactly
like the pre-fabric monolith.

:class:`PacketRouter` splits one hyper-trace lazily across devices: the
trace stays a single stream (its interleaving is the tenant schedule), and
each device sees the sub-stream of packets whose SID routes to it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.results import RequestLatencyStats
from repro.device.packet import PacketStats
from repro.obs import events as ev
from repro.obs.phases import PHASE_LOOKUP, PHASE_PTB, PHASE_WALK


class PacketRouter:
    """Lazily deal one packet stream out to per-device queues.

    The hyper-trace is one wire-ordered stream; each device consumes the
    packets whose SID maps to it (``fabric.device_for_sid``).  Packets for
    other devices encountered while searching are parked in per-device
    deques, so the source is consumed exactly once and never materialised
    beyond the routing lookahead.

    The source cursor is an explicit index into the packet sequence (not
    an iterator) so a router mid-run is plain picklable state — simulation
    checkpoints snapshot it together with the engines.
    """

    def __init__(self, packets, fabric, limit: Optional[int] = None):
        self._packets = packets
        self._pos = 0
        self._limit = len(packets) if limit is None else min(limit, len(packets))
        self._queues: List[deque] = [deque() for _ in range(fabric.num_devices)]
        self._single = fabric.num_devices == 1
        self._route = fabric.device_for_sid

    def _next_source(self):
        if self._pos >= self._limit:
            return None
        packet = self._packets[self._pos]
        self._pos += 1
        return packet

    def next_packet(self, device_id: int):
        """The next packet destined for ``device_id``; ``None`` when done."""
        queue = self._queues[device_id]
        if queue:
            return queue.popleft()
        if self._single:
            return self._next_source()
        while True:
            packet = self._next_source()
            if packet is None:
                return None
            target = self._route(packet.sid)
            if target == device_id:
                return packet
            self._queues[target].append(packet)


class DeviceEngine:
    """The per-packet machinery of one device path.

    Holds this device's packet cursor (``current_packet`` /
    ``next_time``), clock, and accounting, and implements the admission /
    translation / prefetch steps against the device's own structures plus
    the fabric's shared chipset.  The driver decides *when* each
    :meth:`dispatch` runs; the engine guarantees what it does.
    """

    def __init__(self, sim, fabric, device_id: int):
        self.sim = sim
        self.device_id = device_id
        self.device = fabric.devices[device_id]
        self.chipset = fabric.chipset
        self.config = sim.config
        self.timing = sim.config.timing
        #: Shared fault injector (``None`` without a fault plan — the hot
        #: path then pays a single attribute check, like the obs layer).
        self._injector = sim._injector
        #: Shared phase profiler (``None`` unless the bundle carries one),
        #: resolved once like the injector so the disabled hot path pays a
        #: local ``is not None`` check per segment and nothing else.
        self._phases = sim._phases
        # Tenant-wide chipset flushes must also drop this device's
        # in-flight prefetch installs, or a prefetch issued before the
        # unmap would re-install the stale translation afterwards.
        self.chipset.iommu.add_invalidation_listener(self._on_tenant_invalidated)
        # Per-device clock and accounting.
        self.clock = 0.0
        self.last_completion = 0.0
        #: With one device the engine sees exactly the run-wide packet
        #: and request streams, so it shares the simulator's stats objects
        #: and each event is counted once.
        single = fabric.num_devices == 1
        self.packet_stats = sim.packet_stats if single else PacketStats()
        self.latency_stats = (
            sim.latency_stats if single else RequestLatencyStats()
        )
        self.invalidation_messages = 0
        #: Shared-IOTLB outcomes of this device's DevTLB misses, and the
        #: time its walks queued behind the shared walker pool — the
        #: cross-device contention signals `DeviceResult` reports.
        self.iotlb_hits = 0
        self.iotlb_misses = 0
        self.walker_queue_delay_ns = 0.0
        self.measure_from_bytes = 0
        # Prefetch plumbing: a (install_time, seq, ...) min-heap; the
        # monotonic seq keeps equal-time installs in issue order, matching
        # both the old stable sort and the event queue's tie-breaking.
        self._pending_installs: List[Tuple[float, int, int, int, int, int]] = []
        self._install_seq = itertools.count()
        self._inflight_prefetches: set = set()
        self._last_predicted_sid: Optional[int] = None
        # Packet cursor.
        self.current_packet = None
        self.current_is_retry = False
        self.next_time = 0.0
        self._trace_packet = False
        #: Event/metric labels: empty for a single-device fabric so its
        #: traces stay byte-identical to the pre-fabric model.
        self._extra: Dict[str, int] = (
            {} if fabric.num_devices == 1 else {"device": device_id}
        )
        if sim._metrics is not None:
            # Local instrument caches so the hot path skips the registry's
            # (name, labels) key construction per event.
            self._sid_latency: Dict[int, object] = {}
            self._sid_counters: Dict[Tuple[str, int], object] = {}

    # ------------------------------------------------------------------
    # Packet cursor
    # ------------------------------------------------------------------
    def wire_time(self, packet) -> float:
        """Per-packet wire time: small packets (e.g. key-value traffic)
        arrive faster than full frames."""
        timing = self.timing
        if packet.size_bytes == timing.packet_bytes:
            return timing.packet_interarrival_ns
        # Gb/s == bits/ns.
        return packet.size_bytes * 8 / timing.link_bandwidth_gbps

    def load(self, packet) -> None:
        """Place ``packet`` on the cursor, arriving one wire time after
        the device clock."""
        self.current_packet = packet
        self.current_is_retry = False
        self.next_time = self.clock + self.wire_time(packet)

    def fetch_next(self, router: PacketRouter) -> bool:
        """Load this device's next trace packet; False when none is left."""
        packet = router.next_packet(self.device_id)
        if packet is None:
            self.current_packet = None
            return False
        self.load(packet)
        return True

    def dispatch(self, arrival: float, drain_installs: bool = True) -> Optional[float]:
        """One admission attempt of the packet on the cursor at ``arrival``.

        The first attempt does the first-arrival accounting; a native run
        then processes the packet at line rate, otherwise it is admitted
        against this device's PTB and translated.  Returns the packet's
        completion time, or ``None`` when the PTB was full: the drop is
        counted and ``next_time`` has moved to the retry slot, where the
        driver dispatches again (drop-and-retry, Section IV-C).
        ``drain_installs`` is passed on to :meth:`complete_packet`.
        """
        if not self.current_is_retry:
            self.begin_packet()
        if self.sim.native:
            return self.process_native(arrival)
        if not self.try_admit(arrival):
            return None
        return self.complete_packet(arrival, drain_installs)

    def begin_packet(self) -> None:
        """First-arrival accounting (not repeated on admission retries)."""
        sim = self.sim
        sim.packet_stats.arrived += 1
        if self.packet_stats is not sim.packet_stats:
            self.packet_stats.arrived += 1
        tracer = sim._tracer
        if tracer is not None:
            self._trace_packet = tracer.sample_packet()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def try_admit(self, arrival: float) -> bool:
        """One admission attempt against this device's PTB.

        On rejection the drop is accounted and ``next_time`` advances to
        the next arrival slot with a free entry (drop-and-retry,
        Section IV-C); the caller re-dispatches at that time.

        An active fault injector hooks in here, before the PTB check:
        scheduled storms/resets/leaks due by ``arrival`` are applied at
        the same global dispatch point whatever drives the engine.
        """
        injector = self._injector
        if injector is not None and not self._apply_due_faults(injector, arrival):
            return False
        ptb = self.device.ptb
        if ptb.can_accept(arrival):
            return True
        ptb.reject_packet()
        self._record_drop("ptb_overflow", retried=1)
        if self._trace_packet:
            self.sim._tracer.emit(
                ev.PACKET_DROP,
                arrival,
                self.current_packet.sid,
                occupancy=ptb.occupancy(arrival),
                **self._extra,
            )
        wire_ns = self.wire_time(self.current_packet)
        free_at = ptb.earliest_free_time(arrival)
        slots = max(1, math.ceil((free_at - arrival) / wire_ns))
        self.next_time = arrival + slots * wire_ns
        self.current_is_retry = True
        return False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _apply_due_faults(self, injector, arrival: float) -> bool:
        """Apply scheduled faults due by ``arrival``; False drops the packet.

        Storms flush fabric-wide state; a device reset additionally
        drops the arriving packet (the device path is resetting) and
        schedules its retry; PTB leaks adjust this device's effective
        capacity before the admission check.
        """
        for storm in injector.due_storms(arrival):
            self.sim.apply_invalidation_storm(storm, arrival)
        if injector.due_reset(self.device_id, arrival):
            self._apply_device_reset(arrival)
            return False
        self.device.ptb.set_leak(
            injector.ptb_leaked_entries(self.device_id, arrival)
        )
        return True

    def _apply_device_reset(self, now: float) -> None:
        """Reset this device path's translation state mid-run.

        DevTLB, prefetch buffer, and in-flight prefetch bookkeeping are
        flushed and the PTB's in-flight entries are discarded.  Pending
        install completions are *not* purged here — clearing
        ``_inflight_prefetches`` makes :meth:`apply_install` skip them,
        which is the one mechanism that behaves identically for the
        analytic heap and the event queue's scheduled installs.
        """
        device = self.device
        for key in list(device.devtlb.keys()):
            device.devtlb.invalidate(key)
        if device.prefetch_unit is not None:
            buffer = device.prefetch_unit.buffer
            for key in list(buffer.keys()):
                buffer.invalidate(key)
        self._inflight_prefetches.clear()
        self._last_predicted_sid = None
        device.ptb.flush()
        self._record_drop("device_reset", retried=1)
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.emit(
                ev.FAULT_DEVICE_RESET,
                now,
                self.current_packet.sid,
                cause="device_reset",
                **self._extra,
            )
        self.next_time = now + self.wire_time(self.current_packet)
        self.current_is_retry = True

    def flush_tenant(self, sid: int) -> None:
        """Flush every device-local cached translation of ``sid``.

        The storm path: the chipset side is flushed by
        ``Iommu.invalidate_tenant`` (whose listeners purge this engine's
        in-flight prefetches); entries evicted here count as ATS
        invalidation messages, like per-page unmaps.
        """
        device = self.device
        flushed = 0
        for key in list(device.devtlb.keys()):
            if key[0] == sid:
                device.devtlb.invalidate(key)
                flushed += 1
        if device.prefetch_unit is not None:
            buffer = device.prefetch_unit.buffer
            for key in list(buffer.keys()):
                if key[0] == sid:
                    buffer.invalidate(key)
                    flushed += 1
        self.sim.invalidation_messages += flushed
        self.invalidation_messages += flushed

    def _on_tenant_invalidated(self, sid: int) -> None:
        """Drop in-flight prefetch installs for a flushed tenant.

        Without this, a prefetch issued before the tenant-wide unmap
        would re-install the stale translation when its completion time
        arrives.  Heap/event entries stay put; :meth:`apply_install`
        skips any install no longer in ``_inflight_prefetches``.
        """
        inflight = self._inflight_prefetches
        if not inflight:
            return
        for key in [key for key in inflight if key[0] == sid]:
            inflight.discard(key)

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------
    def _record_drop(self, cause: str, retried: int) -> None:
        """Count one drop of the packet on the cursor (``retried`` 1 when
        it will be retried), run-wide and, with several devices, per
        device."""
        run_wide = self.sim.packet_stats
        run_wide.record_drop(cause)
        run_wide.retried += retried
        own = self.packet_stats
        if own is not run_wide:
            own.record_drop(cause)
            own.retried += retried

    def _record_accepted(self, packet) -> None:
        """Count ``packet`` as accepted and processed, run-wide and, with
        several devices, per device."""
        run_wide = self.sim.packet_stats
        run_wide.accepted += 1
        run_wide.record_processed(packet)
        own = self.packet_stats
        if own is not run_wide:
            own.accepted += 1
            own.record_processed(packet)

    def process_native(self, arrival: float) -> float:
        """Native (no-translation) path: processed at line rate."""
        self._record_accepted(self.current_packet)
        self.clock = arrival
        self.last_completion = max(self.last_completion, arrival)
        return arrival

    def complete_packet(self, arrival: float, drain_installs: bool = True) -> float:
        """All the work of one *accepted* packet; returns its completion.

        ``drain_installs`` applies prefetch installs due by ``arrival``
        inline; an event-queue driver passes ``False`` and fires installs
        as their own events instead (see :meth:`pop_pending_installs`).
        """
        sim = self.sim
        packet = self.current_packet
        if self._trace_packet:
            sim._tracer.emit(
                ev.PACKET_ADMIT,
                arrival,
                packet.sid,
                size_bytes=packet.size_bytes,
                **self._extra,
            )
        if packet.invalidations:
            self.invalidate_pages(packet.sid, packet.invalidations)
        if drain_installs:
            self.drain_installs(arrival)
        if self.device.prefetch_unit is not None:
            self.maybe_prefetch(arrival, packet.sid)
        completion = arrival
        for giova in packet.giovas:
            finished = self.process_request(arrival, packet.sid, giova)
            if finished is None:
                # Degraded-mode retries exhausted (fault injection): the
                # packet is dropped mid-translation — counted by
                # process_request, never accepted/processed.
                self.clock = arrival
                self.last_completion = max(self.last_completion, completion)
                return completion
            completion = max(completion, finished)
        self._record_accepted(packet)
        self.clock = arrival
        self.last_completion = max(self.last_completion, completion)
        return completion

    # ------------------------------------------------------------------
    def process_request(self, now: float, sid: int, giova: int) -> Optional[float]:
        """Translate one gIOVA; returns its completion time.

        Returns ``None`` when fault injection made every IOMMU attempt
        fault and the degraded-mode retry budget
        (``TimingParams.fault_max_retries``) is exhausted — the caller
        drops the packet.
        """
        sim = self.sim
        timing = self.timing
        device = self.device
        chipset = self.chipset
        page = giova >> 12
        key = (sid, page)
        tracer = sim._tracer if self._trace_packet else None
        phases = self._phases

        if sim._oracle is not None:
            sim._oracle.consume(key)
        if chipset.iova_history is not None:
            chipset.iova_history.record(sid, page)

        if phases is not None:
            phase_started = phases.begin()
        latency = timing.iotlb_hit_ns  # DevTLB lookup itself
        cached = device.devtlb.lookup(key)
        hit = cached is not None
        if tracer is not None:
            tracer.emit(
                ev.DEVTLB_HIT if hit else ev.DEVTLB_MISS,
                now,
                sid,
                page=page,
                **self._extra,
            )
        if hit and cached[2]:
            # First demand hit on a prefetched entry: credit the prefetcher
            # and clear the provenance flag.
            device.prefetch_unit.stats.supplied_translations += 1
            device.devtlb.insert(key, (cached[0], cached[1], False))
            if tracer is not None:
                tracer.emit(
                    ev.PREFETCH_SUPPLY, now, sid, page=page, via="devtlb",
                    **self._extra,
                )
        if not hit and device.prefetch_unit is not None:
            if device.prefetch_unit.lookup(sid, page) is not None:
                hit = True
                device.prefetch_unit.stats.supplied_translations += 1
                if tracer is not None:
                    tracer.emit(ev.PB_HIT, now, sid, page=page, **self._extra)
                    tracer.emit(
                        ev.PREFETCH_SUPPLY, now, sid, page=page,
                        via="prefetch_buffer", **self._extra,
                    )
        if phases is not None:
            phases.end(PHASE_LOOKUP, phase_started)
        if not hit:
            # Miss: cross PCIe, translate at the shared chipset, cross back.
            if phases is not None:
                phase_started = phases.begin()
            injector = self._injector
            fault_latency = 0.0
            if injector is not None:
                # Degraded mode: each faulted IOMMU attempt costs a wasted
                # PCIe round trip plus capped exponential backoff, charged
                # to this request; an exhausted budget drops the packet.
                attempt = 0
                while injector.translation_fault(now, sid):
                    if tracer is not None:
                        tracer.emit(
                            ev.FAULT_TRANSLATION, now, sid,
                            page=page, attempt=attempt, **self._extra,
                        )
                    if attempt >= timing.fault_max_retries:
                        self._record_drop("translation_fault", retried=0)
                        drop_tracer = sim._tracer
                        if drop_tracer is not None:
                            drop_tracer.emit(
                                ev.FAULT_DROP, now, sid,
                                cause="translation_fault", page=page,
                                **self._extra,
                            )
                        if sim._metrics is not None:
                            self._record_fault_drop_metric(sid)
                        return None
                    fault_latency += (
                        2 * timing.pcie_one_way_ns
                        + timing.fault_backoff_ns * (2.0 ** attempt)
                    )
                    attempt += 1
                latency += fault_latency
            outcome = chipset.iommu.translate(sid, giova)
            at_chipset = now + fault_latency + timing.pcie_one_way_ns
            start, served = chipset.walker_pool.acquire(
                at_chipset, outcome.latency_ns
            )
            chipset_time = served - at_chipset
            latency += 2 * timing.pcie_one_way_ns + chipset_time
            if injector is not None:
                # Transient latency spikes: per-crossing PCIe and per-walk
                # DRAM penalties active at this request's issue time.
                latency += 2 * injector.pcie_extra_ns(now)
                latency += outcome.memory_accesses * injector.dram_extra_ns(now)
            device.devtlb.insert(key, (outcome.hpa, outcome.page_shift, False))
            if outcome.iotlb_hit:
                self.iotlb_hits += 1
            else:
                self.iotlb_misses += 1
            self.walker_queue_delay_ns += start - at_chipset
            if tracer is not None:
                self._emit_chipset_events(
                    tracer, sid, page, at_chipset, start, served, outcome
                )
            if phases is not None:
                phases.end(PHASE_WALK, phase_started)
        if phases is not None:
            phase_started = phases.begin()
        completion = device.ptb.issue(now, latency)
        if phases is not None:
            phases.end(PHASE_PTB, phase_started)
        sim.latency_stats.record(latency)
        if self.latency_stats is not sim.latency_stats:
            self.latency_stats.record(latency)
        if tracer is not None:
            tracer.emit(
                ev.PTB_ENQUEUE,
                now,
                sid,
                wait_ns=max(0.0, completion - latency - now),
                **self._extra,
            )
            tracer.emit(ev.PTB_RELEASE, completion, sid, **self._extra)
            tracer.emit(
                ev.REQUEST_TRANSLATE,
                now,
                sid,
                dur_ns=completion - now,
                page=page,
                hit=hit,
                **self._extra,
            )
        if sim._metrics is not None:
            self._record_request_metrics(sid, latency, hit)
        return completion

    # ------------------------------------------------------------------
    def _emit_chipset_events(
        self, tracer, sid: int, page: int, at_chipset: float, start: float,
        served: float, outcome,
    ) -> None:
        """Trace the chipset side of one DevTLB miss (IOTLB, walker pool)."""
        extra = self._extra
        if outcome.iotlb_hit:
            tracer.emit(ev.IOTLB_HIT, at_chipset, sid, page=page, **extra)
            return
        tracer.emit(ev.IOTLB_MISS, at_chipset, sid, page=page, **extra)
        tracer.emit(
            ev.WALKER_ACQUIRE, at_chipset, sid,
            queue_delay_ns=start - at_chipset, **extra,
        )
        tracer.emit(
            ev.WALKER_WALK,
            start,
            sid,
            dur_ns=served - start,
            memory_accesses=outcome.memory_accesses,
            nested_hits=outcome.nested_hits,
            nested_misses=outcome.nested_misses,
            **extra,
        )
        tracer.emit(ev.WALKER_RELEASE, served, sid, **extra)

    def _record_request_metrics(self, sid: int, latency: float, hit: bool) -> None:
        """Per-SID metric updates for one translation (metrics layer on)."""
        metrics = self.sim._metrics
        histogram = self._sid_latency.get(sid)
        if histogram is None:
            histogram = metrics.histogram(
                "translation_latency_ns", sid=sid, **self._extra
            )
            self._sid_latency[sid] = histogram
        histogram.record(latency)
        counter_key = ("devtlb.hit" if hit else "devtlb.miss", sid)
        counter = self._sid_counters.get(counter_key)
        if counter is None:
            counter = metrics.counter(
                counter_key[0], structure="devtlb", sid=sid, **self._extra
            )
            self._sid_counters[counter_key] = counter
        counter.inc()

    def _record_fault_drop_metric(self, sid: int) -> None:
        """Per-SID fault-drop counter (metrics layer on)."""
        counter_key = ("fault.drop", sid)
        counter = self._sid_counters.get(counter_key)
        if counter is None:
            counter = self.sim._metrics.counter(
                "fault.drop", cause="translation_fault", sid=sid, **self._extra
            )
            self._sid_counters[counter_key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    def sample_telemetry(self, now: float, packet) -> None:
        """One accepted-packet telemetry sample (device-local structures,
        run-global request/drop counts)."""
        device = self.device
        supplied = (
            device.prefetch_unit.stats.supplied_translations
            if device.prefetch_unit is not None
            else 0
        )
        self.sim.telemetry.on_packet(
            now_ns=now,
            size_bytes=packet.size_bytes,
            devtlb_stats=device.devtlb.stats,
            supplied=supplied,
            requests=self.sim.latency_stats.count,
            drops=self.sim.packet_stats.dropped,
            ptb_occupancy=device.ptb.occupancy(now),
        )

    # ------------------------------------------------------------------
    def invalidate_pages(self, sid: int, pages) -> None:
        """Flush unmapped pages from every translation structure.

        Driven by a trace's invalidation events (driver unmap before
        advancing to the next data page).  The nested TLB and PTE cache
        keep their entries — those cache page-table structure that survives
        a leaf remap — while the final-translation caches must drop theirs.
        """
        device = self.device
        chipset = self.chipset
        for page in pages:
            self.sim.invalidation_messages += 1
            self.invalidation_messages += 1
            key = (sid, page)
            device.devtlb.invalidate(key)
            chipset.iommu.iotlb.invalidate(key)
            if device.prefetch_unit is not None:
                device.prefetch_unit.buffer.invalidate(key)
            self._inflight_prefetches.discard(key)
            walker = self.sim.trace.system.walker_for(sid)
            walker.invalidate(page << 12)

    # ------------------------------------------------------------------
    # Prefetching
    # ------------------------------------------------------------------
    def maybe_prefetch(self, now: float, sid: int) -> None:
        """Observe the SID stream; issue a prefetch for the predicted SID."""
        pu = self.device.prefetch_unit
        history = self.chipset.iova_history
        predicted = pu.observe_and_predict(sid)
        if predicted is None or predicted == self._last_predicted_sid:
            return
        self._last_predicted_sid = predicted
        tracer = self.sim._tracer if self._trace_packet else None
        if tracer is not None:
            tracer.emit(
                ev.PREFETCH_PREDICT, now, sid, predicted_sid=predicted,
                **self._extra,
            )
        pages = history.most_recent(predicted)[: self.config.prefetch.pages_per_tenant]
        if not pages:
            return
        timing = self.timing
        # The chipset-side IOVA history reader: PCIe out, one memory read of
        # the history record, then concurrent IOMMU translations of the
        # predicted pages, PCIe back.
        base_latency = self.chipset.memory.read("history")
        issued = 0
        for page in pages:
            if pu.buffer.contains((predicted, page)):
                continue
            if (predicted, page) in self._inflight_prefetches:
                continue
            outcome = self.chipset.iommu.translate(predicted, page << 12)
            install_time = (
                now + 2 * timing.pcie_one_way_ns + base_latency + outcome.latency_ns
            )
            heapq.heappush(
                self._pending_installs,
                (
                    install_time,
                    next(self._install_seq),
                    predicted,
                    page,
                    outcome.hpa,
                    outcome.page_shift,
                ),
            )
            self._inflight_prefetches.add((predicted, page))
            issued += 1
            if tracer is not None:
                tracer.emit(
                    ev.PREFETCH_ISSUE, now, predicted,
                    page=page, install_at_ns=install_time, **self._extra,
                )
        if issued:
            pu.note_prefetch_issued(issued)

    def apply_install(
        self, install_time: float, sid: int, page: int, hpa: int, page_shift: int
    ) -> None:
        """Apply one completed prefetch at the device.

        The translation enters the Prefetch Buffer and the (partitioned)
        DevTLB, the latter with prefetch-aware insertion priority and a pin
        so demand-miss bursts cannot evict it before the predicted tenant's
        turn (DESIGN.md calls this install decision out for ablation).

        An install whose ``(sid, page)`` is no longer in flight was
        invalidated while crossing the fabric (per-page unmap,
        tenant-wide flush, or device reset) and is skipped — installing
        it would resurrect a stale translation.  The membership check is
        the only purge mechanism that treats the analytic engine's heap
        and the event engine's scheduled installs identically.
        """
        if (sid, page) not in self._inflight_prefetches:
            return
        self.device.prefetch_unit.install(sid, page, hpa, page_shift)
        self.device.devtlb.insert(
            (sid, page), (hpa, page_shift, True), priority=1, pinned=True
        )
        self._inflight_prefetches.discard((sid, page))
        if self._trace_packet:
            self.sim._tracer.emit(
                ev.PREFETCH_INSTALL, install_time, sid, page=page, **self._extra
            )

    def drain_installs(self, now: float) -> None:
        """Install prefetches whose completion is due by ``now``."""
        pending = self._pending_installs
        if self.device.prefetch_unit is None or not pending:
            return
        while pending and pending[0][0] <= now:
            install_time, _seq, sid, page, hpa, page_shift = heapq.heappop(pending)
            self.apply_install(install_time, sid, page, hpa, page_shift)

    def pop_pending_installs(self):
        """Drain the pending-install heap in (time, issue) order.

        An event-queue driver lifts these into install events right after
        each dispatch, so the heap never carries entries across packets
        there.
        """
        pending = self._pending_installs
        items = []
        while pending:
            items.append(heapq.heappop(pending))
        return items
