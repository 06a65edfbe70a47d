"""The service's incremental driver around :class:`HyperSimulator`.

The offline simulator consumes a whole trace through its merge loop; the
service receives packets one at a time over the wire.
:class:`ServiceEngine` bridges the two **without forking any model
state**: it owns a real :class:`~repro.sim.simulator.HyperSimulator`
(fabric, caches, PTBs, shared chipset) and drives its device engines
through the same two calls as the merge loop: ``load(packet)`` places a
submitted packet on its device's cursor, and ``dispatch(arrival)`` is
repeated at the cursor's advancing arrival time until the packet is
admitted (each drop moves the cursor to the next free arrival slot — the
paper's drop-and-retry).  :meth:`ServiceEngine.submit_batch` runs a
wire read's worth of packets that way; :meth:`ServiceEngine.submit` is
the one-packet case of it.  Each packet's :class:`PacketOutcome` is the
delta of the live counters the offline result is built from.

For a single-device fabric the offline merge loop is strictly sequential
per packet, so submitting a trace's packets in trace order through this
engine performs the *identical* sequence of structure accesses — the
parity tests pin that the resulting :class:`SimulationResult` objects
compare equal.  With several devices the service processes packets in
submission order rather than global ``(time, device)`` merge order, so
parity is only guaranteed at ``devices.count == 1`` (see
docs/SERVICE.md).

Everything here is synchronous and picklable: the asyncio server calls
the engine from its single dispatcher task, and warm restart pickles
the engine state through the simulation checkpoint machinery (engine
kind ``"service"``).  As offline, a service snapshot references the
tenant system instead of containing it; a warm restart rebinds it onto
the restarted server's trace.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import ArchConfig
from repro.core.results import SimulationResult
from repro.sim.checkpoint import CheckpointError, SimulationCheckpoint
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import HyperTrace
from repro.trace.records import PacketRecord
from repro.service.protocol import PacketOutcome

#: Engine kind recorded in service checkpoints.
SERVICE_ENGINE_KIND = "service"


class UnknownTenantError(KeyError):
    """A submitted SID is not a tenant of the service's tenant system."""


class ServiceEngine:
    """Feed packets one at a time through an offline-identical model.

    ``trace`` provides the tenant *system* (page tables, walkers, SIDs) —
    the service ignores ``trace.packets``; packets arrive via
    :meth:`submit`.  For parity with an offline run, construct the trace
    with the same arguments on both sides (tenant systems are seeded and
    deterministic) and submit the offline trace's packets in order.
    """

    def __init__(
        self,
        config: ArchConfig,
        trace: HyperTrace,
        observability=None,
        fault_plan=None,
    ):
        self.sim = HyperSimulator(
            config,
            trace,
            observability=observability,
            fault_plan=fault_plan,
        )
        self.config = config
        self._valid_sids = frozenset(trace.system.sids())
        self._last_completion = 0.0
        self.processed = 0
        self._flushed: Optional[SimulationResult] = None

    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return self.sim.fabric.num_devices

    def device_for_sid(self, sid: int) -> int:
        return self.sim.fabric.device_for_sid(sid)

    def knows_sid(self, sid: int) -> bool:
        return sid in self._valid_sids

    def sids(self):
        return sorted(self._valid_sids)

    # ------------------------------------------------------------------
    # Backpressure hooks (driven by the server's dispatcher)
    # ------------------------------------------------------------------
    def ptb_occupancy(self, device_id: int) -> int:
        """Modeled PTB occupancy of a device at its current virtual time."""
        engine = self.sim.engines[device_id]
        return engine.device.ptb.occupancy(engine.clock)

    def shed_slot(self, packet: PacketRecord) -> float:
        """Consume the packet's wire slot without processing it.

        Shed-mode backpressure: the packet is refused at the service
        layer, but its arrival still occupied the link — the device
        clock advances by one wire time, mirroring the paper's
        PTB-overflow drop (which also burns the arrival slot).  Returns
        the device's new virtual time.
        """
        engine = self.sim.engines[self.device_for_sid(packet.sid)]
        engine.clock += engine.wire_time(packet)
        return engine.clock

    def stall_until_drained(self, device_id: int, target_occupancy: int) -> float:
        """Pause-mode backpressure: stall the link until the PTB drains.

        Advances the device's virtual clock to the earliest time its PTB
        occupancy falls to ``target_occupancy`` — deterministic
        pause-the-link semantics.  Returns the new virtual time.
        """
        engine = self.sim.engines[device_id]
        drain_at = engine.device.ptb.drain_time_to(target_occupancy)
        if drain_at > engine.clock:
            engine.clock = drain_at
        return engine.clock

    # ------------------------------------------------------------------
    # The per-packet step sequence
    # ------------------------------------------------------------------
    def submit(self, packet: PacketRecord) -> PacketOutcome:
        """Run one packet through the model; returns its outcome.

        Exactly ``submit_batch((packet,))[0]``.
        """
        return self._submit((packet,))[0]

    def submit_batch(self, packets) -> "list[PacketOutcome]":
        """Run packets through the model in order; returns their outcomes.

        Each packet is loaded on its device's cursor and dispatched at
        its (advancing) arrival time until admitted — the merge loop
        specialised to one pending cursor.  A batch performs exactly the
        structure accesses of one :meth:`submit` per packet, with the
        lookups hoisted out of the loop.

        Raises :class:`UnknownTenantError` for a SID outside the tenant
        system (it has no page tables, so there is nothing to translate)
        and :class:`RuntimeError` after :meth:`flush`.  Validation is
        total: every SID is checked before any packet touches the model,
        so on either error the engine state is untouched.
        """
        return self._submit(packets)

    def _submit(self, packets) -> "list[PacketOutcome]":
        # ``submit`` and ``submit_batch`` both call this body directly,
        # so a profiler wrapping either method sees each call once.
        if self._flushed is not None:
            # Submitting after flush() would double-count the end-of-run
            # install drain; the server answers with an error reply.
            raise RuntimeError("ServiceEngine already flushed")
        valid = self._valid_sids
        for packet in packets:
            if packet.sid not in valid:
                raise UnknownTenantError(packet.sid)
        sim = self.sim
        engines = sim.engines
        device_for_sid = sim.fabric.device_for_sid
        stats = sim.packet_stats
        latency_stats = sim.latency_stats
        outcomes = []
        last_completion = self._last_completion
        for packet in packets:
            # Outcome capture: deltas of the same live counters the
            # offline result is built from.
            engine = engines[device_for_sid(packet.sid)]
            devtlb = engine.device.devtlb.stats
            before_accepted = stats.accepted
            before_retried = stats.retried
            before_causes = dict(stats.drop_causes)
            before_hits = devtlb.hits
            before_misses = devtlb.misses
            before_count = latency_stats.count
            before_total = latency_stats.total_ns

            engine.load(packet)
            first_arrival = engine.next_time
            completion = engine.dispatch(first_arrival)
            while completion is None:
                completion = engine.dispatch(engine.next_time)
            if completion > last_completion:
                last_completion = completion

            causes: Dict[str, int] = {}
            for cause, count in stats.drop_causes.items():
                delta = count - before_causes.get(cause, 0)
                if delta:
                    causes[cause] = delta
            outcomes.append(
                PacketOutcome(
                    sid=packet.sid,
                    accepted=stats.accepted - before_accepted > 0,
                    drop_causes=causes,
                    retried=stats.retried - before_retried,
                    arrival_ns=first_arrival,
                    completion_ns=completion,
                    translations=latency_stats.count - before_count,
                    devtlb_hits=devtlb.hits - before_hits,
                    devtlb_misses=devtlb.misses - before_misses,
                    latency_ns=latency_stats.total_ns - before_total,
                )
            )
        self._last_completion = last_completion
        self.processed += len(outcomes)
        return outcomes

    # ------------------------------------------------------------------
    def flush(self) -> SimulationResult:
        """End-of-stream accounting; returns the aggregate result.

        The tail of the offline run loop, at warmup 0: in-flight prefetch
        installs are applied and elapsed time is the latest of the last
        completion and every device clock.  Idempotent — repeated
        flushes return the same result object.
        """
        if self._flushed is None:
            self._flushed = self.sim._finish(self._last_completion)
        return self._flushed

    def peek_result(self) -> SimulationResult:
        """A mid-stream aggregate result (does *not* end the stream).

        Used by the ``stats`` endpoint; unlike :meth:`flush` it leaves
        in-flight prefetch installs pending, so it is safe to keep
        submitting afterwards.
        """
        if self._flushed is not None:
            return self._flushed
        return self.sim._finish(self._last_completion, drain_installs=False)

    # ------------------------------------------------------------------
    # Warm restart (PR 5 checkpoint path, engine kind "service")
    # ------------------------------------------------------------------
    def save_checkpoint(self, path, extra_state: Optional[dict] = None):
        """Snapshot this engine (and any ``extra_state``) to ``path``.

        The engine state pickles through the same crash-safe machinery as
        offline runs (atomic tmp+fsync+replace, versioned header, the
        trace recorded by identity only); a restored engine continues
        submitting where this one stopped.
        """
        state = {"service": self}
        if extra_state:
            state.update(extra_state)
        snapshot = SimulationCheckpoint(
            engine=SERVICE_ENGINE_KIND,
            packets_done=self.processed,
            config=self.sim._config_dict(),
            state=state,
            trace=self.sim.trace,
        )
        return snapshot.save(path)


def load_service_checkpoint(
    path,
    expect_config: Optional[ArchConfig] = None,
    trace: Optional[HyperTrace] = None,
):
    """Restore a :class:`ServiceEngine` checkpoint written by
    :meth:`ServiceEngine.save_checkpoint`.

    Returns ``(engine, state)`` where ``state`` is the full checkpoint
    state dict (the server stores its admission controller alongside the
    engine).  The engine is rebound onto ``trace`` (rebuilt from the
    snapshot's record when ``None``).  Cross-checks the engine kind, the
    trace, and the config when one is expected, as
    :meth:`repro.sim.checkpoint.SimulationCheckpoint.load` does.
    """
    snapshot = SimulationCheckpoint.load(
        path, trace=trace, expect_engine=SERVICE_ENGINE_KIND,
        expect_config=expect_config,
    )
    engine = snapshot.state["service"]
    if not isinstance(engine, ServiceEngine):
        raise CheckpointError(
            f"checkpoint {path} does not contain a service engine"
        )
    return engine, snapshot.state
