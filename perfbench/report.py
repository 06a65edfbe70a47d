"""Metric names, units and directions, and the per-layer computation.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists; every
run reports every name of its mode, so a layer a workload never reaches
reads 0 (its calls) rather than being absent.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from harness import RunRecord
from layers import CACHE_STRUCTURES, LAYERS

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median a metric may worsen by before a change counts as a regression.
#: The timing bounds sit at the 0.25 ceiling: across seeds, the work per
#: packet itself varies (hypertrio-16t: 12% between seeds in one process),
#: and what the reference clock leaves of the shared host's drift adds to
#: that (README.md).  Peak RSS repeats to within 1%.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("packets_per_s", "pkt/s", "higher", 0.25),
    ("vectorized_packets_per_s", "pkt/s", "higher", 0.25),
    ("checkpointed_packets_per_s", "pkt/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [("trace.build_s", "s", "lower")]
    for layer in LAYERS:
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.share", "ratio", "lower"))
    rows += [
        ("cache.lookup.calls", "count", "lower"),
        ("cache.insert.calls", "count", "lower"),
        ("cache.invalidate.calls", "count", "lower"),
        ("cache.lookup.self_s", "s", "lower"),
        ("cache.insert.self_s", "s", "lower"),
        ("cache.insert.share", "ratio", "lower"),
    ]
    for structure in CACHE_STRUCTURES:
        rows.append((f"cache.{structure}.self_s", "s", "lower"))
        rows.append((f"cache.{structure}.hit_ratio", "ratio", "higher"))
    rows += [
        ("iommu.translate.calls", "count", "lower"),
        ("mem.walk.calls", "count", "lower"),
        ("mem.dram_accesses", "count", "lower"),
        ("mem.walker_wait_ns", "sim_ns", "lower"),
        ("core.ptb.calls", "count", "lower"),
        ("core.ptb.reject_ratio", "ratio", "lower"),
        ("core.ptb.rejects_per_packet", "ratio", "lower"),
        ("core.prefetch.calls", "count", "lower"),
        ("core.prefetch.useful_ratio", "ratio", "higher"),
        ("core.results.record.calls", "count", "lower"),
        ("sim.checkpoint.save.calls", "count", "lower"),
        ("sim.checkpoint.bytes", "B", "lower"),
        ("sim.vectorized.leap_ratio", "ratio", "higher"),
        ("service.protocol.decode.calls", "count", "lower"),
        ("service.admission.denied", "count", "lower"),
        ("service.engine.submit.calls", "count", "lower"),
        ("service.engine.submit_batch.calls", "count", "lower"),
        ("service.engine.batch_mean", "pkt/call", "higher"),
        ("obs.metrics.calls", "count", "lower"),
        ("service.server.cpu_s", "s", "lower"),
        ("service.server.unattributed_share", "ratio", "lower"),
        ("service.server.residence_p50_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("coverage", "ratio", "higher"),
        ("client.lag_p99_ms", "ms", "lower"),
    ]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def _calls(totals: Dict[str, List[float]], prefix: str) -> int:
    return int(sum(
        entry[0] for key, entry in totals.items()
        if key == prefix or key.startswith(prefix + ".")
    ))


def _cache_method(totals: Dict[str, List[float]], method: str, index: int) -> float:
    return sum(
        entry[index] for key, entry in totals.items()
        if key.startswith("cache.") and key.endswith("." + method)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def put_layer_metrics(
    record: RunRecord,
    summary: Dict[str, Any],
    traced_wall_s: float,
    result: Dict[str, Any],
    extra: Dict[str, float],
) -> None:
    """Fill every per-layer metric from one traced run.

    ``summary`` is :meth:`layers.LayerRecorder.summary` output,
    ``traced_wall_s`` the wall time the traced work took, ``result`` the
    canonical result dict of one pass (simulated counts), and ``extra``
    the harness-level metrics the caller measured (``trace.build_s``,
    ``trace.overhead_ratio``, the ``service.server.*`` figures,
    ``client.lag_p99_ms``).
    """
    totals = summary["totals"]
    layer_self = summary["layer_self"]
    counters = summary["counters"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
        values[f"{layer}.share"] = _ratio(layer_self[layer], traced_wall_s)
    for method in ("lookup", "insert", "invalidate"):
        values[f"cache.{method}.calls"] = int(_cache_method(totals, method, 0))
    values["cache.lookup.self_s"] = _cache_method(totals, "lookup", 1)
    values["cache.insert.self_s"] = _cache_method(totals, "insert", 1)
    values["cache.insert.share"] = _ratio(values["cache.insert.self_s"], traced_wall_s)
    cache_stats = result.get("cache_stats", {})
    for structure in CACHE_STRUCTURES:
        values[f"cache.{structure}.self_s"] = sum(
            entry[1] for key, entry in totals.items()
            if key.startswith(f"cache.{structure}.")
        )
        stats = cache_stats.get(structure, {})
        values[f"cache.{structure}.hit_ratio"] = _ratio(
            stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0)
        )
    arrived = result["packets"]["arrived"]
    rejected = result["ptb"]["rejected_packets"]
    values.update({
        "iommu.translate.calls": _calls(totals, "iommu.translate"),
        "mem.walk.calls": _calls(totals, "mem.walk"),
        "mem.dram_accesses": result["dram"]["reads"],
        "mem.walker_wait_ns": counters["mem.walker_wait_ns"],
        "core.ptb.calls": _calls(totals, "core.ptb"),
        "core.ptb.reject_ratio": _ratio(rejected, arrived + rejected),
        "core.ptb.rejects_per_packet": _ratio(rejected, arrived),
        "core.prefetch.calls": _calls(totals, "core.prefetch"),
        "core.prefetch.useful_ratio": _ratio(
            result["prefetch_supplied"], result["prefetch_requests"]
        ),
        "core.results.record.calls": _calls(totals, "core.results.record"),
        "sim.checkpoint.save.calls": _calls(totals, "sim.checkpoint.save"),
        "sim.checkpoint.bytes": counters["sim.checkpoint.bytes"],
        "service.protocol.decode.calls": _calls(totals, "service.protocol.decode"),
        "service.admission.denied": counters["service.admission.denied"],
        "service.engine.submit.calls": _calls(totals, "service.engine.submit"),
        "service.engine.submit_batch.calls": _calls(
            totals, "service.engine.submit_batch"
        ),
        "obs.metrics.calls": _calls(totals, "obs"),
    })
    runs = summary["vectorized_runs"]
    simulated = sum(run["blocks_simulated"] for run in runs)
    leaped = sum(run["blocks_leaped"] for run in runs)
    values["sim.vectorized.leap_ratio"] = _ratio(leaped, simulated + leaped)
    submits = values["service.engine.submit.calls"]
    batches = values["service.engine.submit_batch.calls"]
    values["service.engine.batch_mean"] = _ratio(
        submits + counters["service.engine.batched_packets"], submits + batches
    )
    values["coverage"] = _ratio(sum(layer_self.values()), traced_wall_s)
    values.update({
        "service.server.cpu_s": 0.0,
        "service.server.unattributed_share": 0.0,
        "service.server.residence_p50_ms": 0.0,
        "client.lag_p99_ms": 0.0,
    })
    values.update(extra)
    for name, unit, _ in PER_LAYER:
        record.put(name, values[name], unit)
    record.labels["entry_points"] = {
        key: {"calls": int(calls), "self_s": own} for key, (calls, own) in totals.items()
    }
    if runs:
        record.labels["vectorized_mode"] = runs[-1]["mode"]
        record.labels["vectorized_fallback_reason"] = runs[-1]["reason"]
