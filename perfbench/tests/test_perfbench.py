"""The benchmark's own tests: its workloads still stress what they claim,
its per-layer shares follow a slowed layer, and its correctness gate
fails a perturbed result.

    python3 -m pytest perfbench/tests -q

Traced runs have fixed sizes; untraced runs here use a short budget.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import LAYERS, install_slowdown
from offline import run_offline
from online import run_service
from report import END_TO_END, PER_LAYER
from workloads import BENCHMARK_WORKLOADS, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
#: Share points a layer that was not slowed may gain between two traced
#: runs of the same work (host noise).
SHARE_NOISE = 0.02


def _run(name, traced, seconds=0.5, slow=()):
    workload = WORKLOADS[name]
    if workload.kind == "offline":
        restore = [install_slowdown(dotted) for dotted in slow]
        try:
            return run_offline(workload, 0, seconds, traced)
        finally:
            for undo in restore:
                undo()
    return run_service(workload, 0, seconds, traced, slow=tuple(slow))


@pytest.fixture(scope="module")
def traced():
    runs = {}

    def get(name):
        if name not in runs:
            runs[name] = _run(name, traced=True)
        return runs[name]

    return get


def test_benchmark_json_matches_the_metrics_the_runs_report():
    document = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(BENCHMARK_WORKLOADS)
    assert all(WORKLOADS[w["name"]].why == w["why"] for w in document["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in document["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_correct_and_reports_every_layer(traced, name):
    record = traced(name)
    assert record.correct and record.failed == 0
    for metric, _, _ in PER_LAYER:
        assert metric in record.metrics
    assert record.metrics["coverage"] > 0
    assert record.metrics["trace.overhead_ratio"] > 0


def test_hypertrio_16t_is_device_bound(traced):
    metrics = traced("hypertrio-16t").metrics
    assert metrics["core.ptb.rejects_per_packet"] < 0.01
    assert metrics["core.prefetch.useful_ratio"] > 0
    assert metrics["sim.checkpoint.save.calls"] > 0
    assert metrics["sim.vectorized.leap_ratio"] == 0
    assert traced("hypertrio-16t").labels["vectorized_mode"] == "fallback"


def test_ptb32_1024t_is_walk_bound(traced):
    record = traced("ptb32-1024t")
    metrics = record.metrics
    assert metrics["core.ptb.rejects_per_packet"] >= 0.9
    assert metrics["core.prefetch.useful_ratio"] == 0
    assert metrics["core.prefetch.calls"] == 0
    assert record.labels["vectorized_mode"] == "batch"
    # The chipset does the translation work: of the time spent in the
    # named layers, checkpoint pickling aside, IOMMU, walks and cache
    # fills take the majority.
    translation = sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS if layer != "sim.checkpoint"
    )
    chipset = metrics["iommu.self_s"] + metrics["mem.self_s"] + metrics["cache.insert.self_s"]
    assert chipset / translation > 0.5


def test_service_workloads_take_the_batch_and_per_packet_paths(traced):
    replay = traced("service-replay").metrics
    paced = traced("service-paced").metrics
    assert replay["service.engine.batch_mean"] > 8
    assert paced["service.engine.batch_mean"] < 1.5
    assert paced["service.engine.submit.calls"] > paced["service.engine.submit_batch.calls"]
    for metrics in (replay, paced):
        assert metrics["core.prefetch.useful_ratio"] > 0
        assert metrics["obs.metrics.calls"] > 0
        assert metrics["service.protocol.decode.calls"] > 0


def _entry_self_s(record, prefix, method):
    return sum(
        entry["self_s"] for key, entry in record.labels["entry_points"].items()
        if key.startswith(prefix) and key.endswith("." + method)
    )


def _assert_only_slowed_share_rises(base, slowed, layer, method):
    """A 2x slower entry point adds its own share to its layer's; every
    other layer's share may only fall, up to noise."""
    layer_share = base.metrics[f"{layer}.share"]
    entry_share = layer_share * (
        _entry_self_s(base, layer + ".", method) / base.metrics[f"{layer}.self_s"]
    )
    assert slowed.metrics[f"{layer}.share"] > layer_share + 0.5 * entry_share
    for other in LAYERS:
        if other != layer:
            assert (
                slowed.metrics[f"{other}.share"]
                <= base.metrics[f"{other}.share"] + SHARE_NOISE
            ), other


def test_slowing_cache_lookup_shows_in_its_layer_and_end_to_end(traced):
    lookup = "repro.cache.setassoc.SetAssociativeCache.lookup"
    base = traced("hypertrio-16t")
    slowed = _run("hypertrio-16t", traced=True, slow=[lookup])
    _assert_only_slowed_share_rises(base, slowed, "cache", "lookup")
    assert slowed.metrics["cache.lookup.self_s"] > 1.5 * base.metrics["cache.lookup.self_s"]
    fast = _run("hypertrio-16t", traced=False)
    slow = _run("hypertrio-16t", traced=False, slow=[lookup])
    assert slow.metrics["packets_per_s"] < fast.metrics["packets_per_s"]


def test_slowing_wire_decode_in_the_server_shows_in_its_layer_and_end_to_end(traced):
    decode = "repro.service.protocol.decode"
    base = traced("service-replay")
    slowed = _run("service-replay", traced=True, slow=[decode])
    _assert_only_slowed_share_rises(base, slowed, "service.protocol", "decode")
    # Decoding is a few percent of the server's time, so doubling it moves a
    # one-second run's rate less than the host does; ten times shows.
    fast = _run("service-replay", traced=False, seconds=1.0)
    slow = _run("service-replay", traced=False, seconds=1.0, slow=[decode + "=10"])
    assert slow.metrics["packets_per_s"] < fast.metrics["packets_per_s"]


def test_gate_fails_a_perturbed_result_at_the_pinned_seed():
    from repro.core import results

    original = results.RequestLatencyStats.record

    def off_by_one(self, latency_ns):
        original(self, latency_ns + 1.0)

    results.RequestLatencyStats.record = off_by_one
    try:
        record = run_offline(WORKLOADS["hypertrio-16t"], 0, 0.1, traced=False)
    finally:
        results.RequestLatencyStats.record = original
    assert not record.correct
    assert record.failed >= 1
    assert [c["check"] for c in record.checks if not c["ok"]] == ["pinned_digest"]


def test_gate_fails_an_engine_that_diverges_at_any_seed():
    from repro.sim.vectorized import VectorizedSimulator

    original = VectorizedSimulator.run

    def diverging(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        result.elapsed_ns += 1.0
        return result

    VectorizedSimulator.run = diverging
    try:
        record = run_offline(WORKLOADS["hypertrio-16t"], 7, 0.1, traced=False)
    finally:
        VectorizedSimulator.run = original
    assert not record.correct
    assert record.failed == record.phases["vectorized"].sent > 0
    assert {c["check"] for c in record.checks if not c["ok"]} == {"vectorized_parity"}


def test_cli_exits_non_zero_without_a_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hypertrio-16t",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

