"""Offline workloads: ``simulate`` in this process, one trace, many passes.

A run builds the workload's trace several times (``setup_s`` is the
median), simulates it once untimed as the reference (this also fills
the tenant walkers' memo, which every later pass then shares), and then
repeats rounds of three timed passes — analytic, vectorized,
checkpointed — until the time budget is spent.  Rates and job latencies
are medians over the passes, in reference seconds (``harness.HostClock``).
Every pass's result must hash to the reference; at the default seed the
reference must hash to the pinned digest.
"""

from __future__ import annotations

import gc
import json
import os
import time
from typing import Dict, List, Optional

from repro.runner.serialize import result_to_dict

from harness import (
    WORK,
    HostClock,
    RunRecord,
    median,
    own_peak_rss_mb,
    percentile,
    want_another_setup,
)
from layers import LayerRecorder
from report import put_layer_metrics
from workloads import (
    DEFAULT_SEED,
    Workload,
    arch_config,
    build_trace,
    canonical,
    result_digest,
)

#: Rounds run even when the budget is spent sooner.
MIN_ROUNDS = 5
#: A run holds 7–30 analytic jobs, as many as the host's speed lets the
#: budget fit, so a whole run's p99 would be its slowest job out of a
#: varying number.  The p99 is taken per segment of this many consecutive
#: jobs, and the median over segments is reported, as the service
#: workloads do with their requests.
JOB_SEGMENT = 3
ENGINES = ("analytic", "vectorized", "checkpointed")


class Passes:
    """Timed passes over one trace, each checked against the reference."""

    def __init__(self, record: RunRecord, workload: Workload, config, trace,
                 clock: HostClock, max_packets=None):
        self.record = record
        self.clock = clock
        self.workload = workload
        self.config = config
        self.trace = trace
        #: Simulate only this prefix of the trace (``None``: all of it).
        self.max_packets = max_packets
        self.reference = None
        self.reference_digest = ""
        #: Pass durations by engine, in reference and in host seconds.
        self.walls: Dict[str, List[float]] = {engine: [] for engine in ENGINES}
        self.raw_walls: Dict[str, List[float]] = {engine: [] for engine in ENGINES}

    def make_reference(self, seed: Optional[int]):
        """The untimed first pass every later pass must reproduce."""
        from repro.sim.simulator import simulate

        self.reference = simulate(self.config, self.trace, max_packets=self.max_packets)
        self.reference_digest = result_digest(self.reference)
        record = self.record
        if seed == DEFAULT_SEED and self.workload.digest is not None:
            ok = record.check(
                "pinned_digest",
                self.reference_digest == self.workload.digest,
                f"{self.reference_digest} vs pinned {self.workload.digest}",
            )
            if ok:
                record.phase("reference").ok()
            else:
                record.phase("reference").fail()
        else:
            record.phase("reference").ok()
        return self.reference

    def run(self, engine: str) -> float:
        """One timed pass of ``engine``; returns its duration in reference
        seconds (see ``harness.HostClock``)."""
        from repro.sim.simulator import simulate
        from repro.sim.vectorized import VectorizedSimulator

        config, trace, limit = self.config, self.trace, self.max_packets
        path = WORK / f"checkpoint-{os.getpid()}.ckpt"

        def analytic():
            return simulate(config, trace, max_packets=limit)

        def vectorized():
            simulator = VectorizedSimulator(config, trace)
            result = simulator.run(max_packets=limit)
            self._note_engine(dict(simulator.batch_stats, engine="vectorized"))
            return result

        def checkpointed():
            return simulate(
                config,
                trace,
                max_packets=limit,
                checkpoint_every=self.workload.checkpoint_every,
                checkpoint_path=path,
            )

        passes = {"analytic": analytic, "vectorized": vectorized, "checkpointed": checkpointed}
        result, wall = self.clock.measure(passes[engine])
        if engine == "checkpointed":
            path.unlink()
        digest = result_digest(result)
        if digest == self.reference_digest:
            self.record.phase(engine).ok()
        else:
            self.record.phase(engine).fail()
            self.record.check(f"{engine}_parity", False, f"{digest} vs {self.reference_digest}")
        self.walls[engine].append(wall)
        self.raw_walls[engine].append(self.clock.log[-1][0])
        return wall

    def round(self) -> None:
        for engine in ENGINES:
            self.run(engine)

    def _note_engine(self, stats) -> None:
        engines = self.record.engines
        if stats not in engines:
            engines.append(stats)


def set_up(record: RunRecord, workload: Workload, seed: int, clock: HostClock,
           repeat: bool):
    """Build trace and simulator, again while ``repeat`` wants more set-ups.

    Returns the config, the last trace, and the median set-up and
    trace-build durations in reference seconds.
    """
    from repro.sim.simulator import HyperSimulator

    config = arch_config(workload.config)
    totals: List[float] = []
    builds: List[float] = []
    trace = None
    while not totals or (repeat and want_another_setup(totals)):
        trace = None
        gc.collect()
        trace, build = clock.measure(lambda: build_trace(workload, seed, workload.packets))
        _, construct = clock.measure(lambda: HyperSimulator(config, trace))
        totals.append(build + construct)
        builds.append(build)
    record.phase("setup").ok(len(totals))
    record.samples["setup"] = len(totals)
    return config, trace, median(totals), median(builds)


def run_offline(workload: Workload, seed: int, seconds: float, traced: bool) -> RunRecord:
    WORK.mkdir(exist_ok=True)
    record = RunRecord(workload.name, seed, workload.why, traced)
    record.labels.update({
        "config": workload.config,
        "tenants": workload.tenants,
        "packets_per_pass": workload.packets,
        "checkpoint_every": workload.checkpoint_every,
    })
    record.engines.append({"engine": "analytic"})
    if traced:
        _traced(record, workload, seed)
        return record
    clock = HostClock()
    config, trace, setup_s, _ = set_up(record, workload, seed, clock, repeat=True)
    passes = Passes(record, workload, config, trace, clock)
    passes.make_reference(seed)
    started = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < started + seconds:
        passes.round()
        rounds += 1
    packets = len(trace.packets)
    walls = passes.walls
    record.put("setup_s", setup_s, "s")
    record.put("packets_per_s", packets / median(walls["analytic"]), "pkt/s")
    record.put("vectorized_packets_per_s", packets / median(walls["vectorized"]), "pkt/s")
    record.put(
        "checkpointed_packets_per_s", packets / median(walls["checkpointed"]), "pkt/s"
    )
    # Offline, one request is one simulate() job over the pass.
    jobs = walls["analytic"]
    record.put("latency_p50_ms", median(jobs) * 1000.0, "ms")
    per_segment = [
        percentile(jobs[first:first + JOB_SEGMENT], 99) * 1000.0
        for first in range(0, len(jobs) - JOB_SEGMENT + 1, JOB_SEGMENT)
    ]
    record.segments["latency_p99_ms"] = per_segment
    record.put("latency_p99_ms", median(per_segment), "ms")
    record.put("peak_rss_mb", own_peak_rss_mb(), "MiB")
    record.samples.update({engine: len(values) for engine, values in walls.items()})
    record.labels["rounds"] = rounds
    record.labels["pass_host_s"] = passes.raw_walls
    record.labels["host_speed"] = [factor for _, factor in clock.log]
    return record


def _traced(record: RunRecord, workload: Workload, seed: int) -> None:
    """Untraced baseline passes, then ``workload.traced`` traced rounds."""
    clock = HostClock()
    config, trace, _, build_s = set_up(record, workload, seed, clock, repeat=False)
    passes = Passes(record, workload, config, trace, clock)
    reference = passes.make_reference(seed)
    baseline = [passes.run("analytic") for _ in range(2)]
    passes.walls = {engine: [] for engine in ENGINES}
    passes.raw_walls = {engine: [] for engine in ENGINES}
    recorder = LayerRecorder().install()
    try:
        for _ in range(workload.traced):
            passes.round()
    finally:
        recorder.uninstall()
    traced_wall = sum(sum(walls) for walls in passes.raw_walls.values())
    put_layer_metrics(
        record,
        recorder.summary(),
        traced_wall,
        json.loads(canonical(result_to_dict(reference))),
        {
            "trace.build_s": build_s,
            "trace.overhead_ratio": median(passes.walls["analytic"]) / median(baseline),
        },
    )
    path = recorder.write_chrome_trace(
        WORK / f"{workload.name}-seed{seed}.trace.json", name=workload.name
    )
    record.labels["spans_file"] = os.path.relpath(path)
    record.labels["spans_kept"] = len(recorder.spans)
    record.samples.update({engine: len(values) for engine, values in passes.walls.items()})
