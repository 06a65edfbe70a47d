"""Shared pieces of the benchmark: run records, statistics, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: Repository root (the checkout the benchmark runs in).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout: checkpoints, span files, run records.
WORK = ROOT / ".perfbench"

#: Set-ups per run: at least this many, and more while they add up to
#: under SETUP_MIN_S (up to SETUP_MAX); ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 25

#: A service run's latency percentiles are computed per segment of this
#: many consecutive requests (so each segment's p99 has ten samples beyond
#: it), and the median over segments is reported: the tail of a typical
#: stretch of the stream.  A host stall lasts milliseconds and lands in a
#: few segments, where a whole-stream p99 would be set by the stalls
#: alone.  Every segment's value stays in the run record.
SEGMENT_REQUESTS = 1000

#: Seconds one :func:`reference_loop` takes on the reference host (the
#: 2-core build host in its fast phase).  See :class:`HostClock`.
REFERENCE_LOOP_S = 0.016


def reference_loop() -> float:
    """Time one run of a fixed pure-Python loop of dict and int work (the
    kind the model does); returns its wall seconds."""
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(150_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class HostClock:
    """Durations in reference seconds: host seconds scaled to the speed of
    the reference host.

    A shared host runs this process at speeds that drift by up to 1.6x in
    phases lasting tens of seconds to minutes, so whole runs land in a
    slow phase and raw figures spread 20–40% between runs.  The clock
    times the benchmark's own :func:`reference_loop` (code the program
    under test never touches) right before and right after each measured
    piece of work, in this process, and scales the work's duration by
    ``REFERENCE_LOOP_S`` over their mean.  A change to the program moves
    its figures as before; a change of host speed cancels.  The raw
    seconds and every factor stay in the run record.
    """

    def __init__(self) -> None:
        self._last = reference_loop()
        #: (raw seconds, speed factor) of every measured piece of work.
        self.log: List[Tuple[float, float]] = []

    def factor(self, before: float, after: float) -> float:
        return REFERENCE_LOOP_S / ((before + after) / 2.0)

    def measure(self, fn):
        """Run ``fn()``; returns (its result, its duration in reference s)."""
        before = self._last
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self._last = reference_loop()
        factor = self.factor(before, self._last)
        self.log.append((raw, factor))
        return result, raw * factor

    def around(self, fn, loops: int = 5):
        """Like :meth:`measure` for long work whose speed is read from the
        median of ``loops`` reference loops on each side.  Returns (result,
        raw seconds, speed factor)."""
        before = median([reference_loop() for _ in range(loops)])
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self._last = median([reference_loop() for _ in range(loops)])
        factor = self.factor(before, self._last)
        self.log.append((raw, factor))
        return result, raw, factor


def pin_one_cpu() -> int:
    """Confine this process, and every process it starts from now on, to
    one CPU (the highest-numbered it may use); returns that CPU.

    Each virtual CPU of a shared host runs at its own speed, changing
    within a second and independently of the others.  Confined, the
    reference loop reads the speed of the CPU the measured work runs on,
    and a service workload's server and client take turns on it instead
    of one of them running on a CPU the clock never sees.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def want_another_setup(times: List[float]) -> bool:
    """Whether a run with set-up times ``times`` should set up again."""
    if len(times) < SETUP_REPEATS:
        return True
    return sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: List[float]) -> float:
    return statistics.median(values)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live child process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # Fields 14 and 15 of stat(5), counted after the command name.
    return (int(fields[11]) + int(fields[12])) / ticks


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
    }


@dataclass
class Phase:
    """Requests sent, succeeded and failed in one phase of a run."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def ok(self, count: int = 1) -> None:
        self.sent += count
        self.succeeded += count

    def fail(self, count: int = 1) -> None:
        self.sent += count
        self.failed += count


@dataclass
class RunRecord:
    """Everything one run measured, checked and ran on."""

    workload: str
    seed: int
    why: str
    traced: bool
    metrics: Dict[str, Any] = field(default_factory=dict)
    units: Dict[str, str] = field(default_factory=dict)
    phases: Dict[str, Phase] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    engines: List[Dict[str, Any]] = field(default_factory=list)
    samples: Dict[str, int] = field(default_factory=dict)
    segments: Dict[str, List[float]] = field(default_factory=dict)
    labels: Dict[str, Any] = field(default_factory=dict)
    valid: bool = True
    invalid_reason: str = ""

    def phase(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = value
        self.units[name] = unit

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failure counts as a failed op."""
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def correct(self) -> bool:
        return self.valid and all(check["ok"] for check in self.checks)

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "why": self.why,
            "traced": self.traced,
            "host": host_facts(),
            "valid": self.valid,
            "invalid_reason": self.invalid_reason,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_fraction": (
                self.failed / self.attempted if self.attempted else 0.0
            ),
            "phases": {
                name: vars(phase) for name, phase in self.phases.items()
            },
            "checks": self.checks,
            "engines": self.engines,
            "samples": self.samples,
            "segments": self.segments,
            "labels": self.labels,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }
