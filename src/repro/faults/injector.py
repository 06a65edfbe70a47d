"""The seeded runtime that applies a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is built per simulator when a plan is given
(``HyperSimulator(..., fault_plan=plan)``); with no plan the simulator's
injector slot is ``None`` and the per-packet hot path contains a single
attribute check — the same zero-cost-when-disabled pattern as the
observability layer.

Determinism: the injector owns the run's only fault RNG
(``random.Random(plan.seed)``), and every query site sits inside the
per-device engine dispatch path.  The analytic merge loop dispatches in
global ``(time, device_id)`` order — the order an event queue would pop
— so seeded plans replay bit-identically, checkpoint resumes included.  Scheduled faults
(storms, resets, leaks) use cursor state, never the RNG, and
probability-0 stochastic specs are filtered out up front so an inert
plan consumes no randomness at all.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.faults.plan import FaultPlan, InvalidationStormSpec


class FaultInjector:
    """Applies one plan's faults to one run, bit-reproducibly."""

    def __init__(self, plan: FaultPlan, num_devices: int = 1):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: Probability-0 specs are dropped so they can never consume RNG
        #: state — a zero-probability plan replays the no-plan stream.
        self._translation_faults = tuple(
            spec for spec in plan.translation_faults if spec.probability > 0.0
        )
        self._storms: List[InvalidationStormSpec] = sorted(
            plan.invalidation_storms, key=lambda spec: (spec.at_ns, spec.sid)
        )
        self._storm_cursor = 0
        self._resets: Dict[int, List[float]] = {}
        for spec in plan.device_resets:
            if spec.device_id < num_devices:
                self._resets.setdefault(spec.device_id, []).append(spec.at_ns)
        for times in self._resets.values():
            times.sort(reverse=True)  # pop() pops the earliest
        self._latency_spikes = tuple(plan.latency_spikes)
        self._ptb_leaks = tuple(plan.ptb_leaks)
        self._has_translation_faults = bool(self._translation_faults)
        self._has_leaks = bool(self._ptb_leaks)
        self._has_spikes = bool(self._latency_spikes)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def rng_state(self):
        """The RNG's internal state (snapshotted by simulation checkpoints)."""
        return self.rng.getstate()

    def set_rng_state(self, state) -> None:
        """Restore an :meth:`rng_state` snapshot, bit-exactly."""
        self.rng.setstate(state)

    # ------------------------------------------------------------------
    # Stochastic faults
    # ------------------------------------------------------------------
    def translation_fault(self, now: float, sid: int) -> bool:
        """Roll whether one IOMMU attempt for ``sid`` at ``now`` faults.

        Specs are consulted in plan order; the first triggering spec
        wins.  A spec with probability 1 triggers without consuming RNG
        state (it is not a stochastic choice).
        """
        if not self._has_translation_faults:
            return False
        for spec in self._translation_faults:
            if spec.sid is not None and spec.sid != sid:
                continue
            if now < spec.start_ns:
                continue
            if spec.end_ns is not None and now >= spec.end_ns:
                continue
            if spec.probability >= 1.0:
                return True
            if self.rng.random() < spec.probability:
                return True
        return False

    # ------------------------------------------------------------------
    # Scheduled faults (cursor state, no RNG)
    # ------------------------------------------------------------------
    def due_storms(self, now: float) -> List[InvalidationStormSpec]:
        """Storms scheduled at or before ``now`` not yet applied."""
        due: List[InvalidationStormSpec] = []
        storms = self._storms
        while self._storm_cursor < len(storms):
            spec = storms[self._storm_cursor]
            if spec.at_ns > now:
                break
            due.append(spec)
            self._storm_cursor += 1
        return due

    def due_reset(self, device_id: int, now: float) -> bool:
        """Whether a reset of ``device_id`` fires at or before ``now``.

        Multiple overdue resets coalesce into one (the state is already
        flushed).
        """
        times = self._resets.get(device_id)
        if not times or times[-1] > now:
            return False
        while times and times[-1] <= now:
            times.pop()
        return True

    def ptb_leaked_entries(self, device_id: int, now: float) -> int:
        """Entries leaked from ``device_id``'s PTB at time ``now``."""
        if not self._has_leaks:
            return 0
        leaked = 0
        for spec in self._ptb_leaks:
            if spec.device_id is not None and spec.device_id != device_id:
                continue
            if spec.start_ns <= now < spec.end_ns:
                leaked += spec.entries
        return leaked

    # ------------------------------------------------------------------
    # Latency spikes
    # ------------------------------------------------------------------
    def pcie_extra_ns(self, now: float) -> float:
        """Extra per-crossing PCIe latency active at ``now``."""
        if not self._has_spikes:
            return 0.0
        return sum(
            spec.extra_ns
            for spec in self._latency_spikes
            if spec.target == "pcie" and spec.start_ns <= now < spec.end_ns
        )

    def dram_extra_ns(self, now: float) -> float:
        """Extra per-DRAM-access latency active at ``now``."""
        if not self._has_spikes:
            return 0.0
        return sum(
            spec.extra_ns
            for spec in self._latency_spikes
            if spec.target == "dram" and spec.start_ns <= now < spec.end_ns
        )
