"""SLO watch engine, Prometheus export, and fleet aggregation tests.

The asyncio pieces run under ``asyncio.run`` inside synchronous tests
(the environment has no pytest-asyncio).
"""

import asyncio
import json

import pytest

from repro.core.config import hypertrio_config
from repro.obs import MetricsRegistry, Observability
from repro.obs import events as ev
from repro.obs.fleet import fleet_registry
from repro.obs.prom import counter_line, gauge_line, registry_to_prom
from repro.obs.slo import (
    SLO_SCHEMA,
    SloFormatError,
    SloRule,
    SloSample,
    SloWatcher,
    load_slo_rules,
    rules_from_dict,
)
from repro.obs.tracer import RecordingTracer
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.engine import ServiceEngine
from repro.service.server import SLO_EVAL_INTERVAL, ServiceServer
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name

TENANTS = 8
PACKETS = 80


def make_trace(packets=PACKETS):
    return construct_trace(
        profile_by_name("mediastream"),
        num_tenants=TENANTS,
        packets_per_tenant=200_000,
        max_packets=packets,
    )


def make_sample(p99=100.0, drop_rates=None, occupancy=0):
    rates = drop_rates or {}
    return SloSample(
        latency_percentile=lambda quantile: p99,
        drop_rate=lambda cause: rates.get(cause, 0.0),
        ptb_occupancy=occupancy,
    )


class TestPromRendering:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("devtlb.hit", structure="devtlb", sid=3).inc(7)
        registry.gauge("queue_depth").set(4)
        histogram = registry.histogram("translation_latency_ns", sid=1)
        for value in (100.0, 200.0, 400.0):
            histogram.record(value)
        text = registry_to_prom(registry.snapshot())
        assert '# TYPE repro_devtlb_hit_total counter' in text
        assert 'repro_devtlb_hit_total{sid="3",structure="devtlb"} 7' in text
        assert "repro_queue_depth 4" in text
        assert 'repro_translation_latency_ns{quantile="0.99",sid="1"}' in text
        assert 'repro_translation_latency_ns_count{sid="1"} 3' in text
        assert text.endswith("\n")

    def test_extra_lines_and_helpers(self):
        extra = [
            counter_line("service_requests", {}, 12),
            gauge_line("slo_breached", {"rule": "tail", "kind": "k"}, 1),
        ]
        text = registry_to_prom({}, extra_lines=extra)
        assert "repro_service_requests_total 12" in text
        assert 'repro_slo_breached{kind="k",rule="tail"} 1' in text

    def test_label_escaping(self):
        text = gauge_line("g", {"cause": 'a"b\\c\nd'}, 1)
        assert '\\"' in text and "\\\\" in text and "\\n" in text


class TestSloRules:
    def good_document(self):
        return {
            "schema": SLO_SCHEMA,
            "rules": [
                {"name": "tail", "kind": "latency_quantile",
                 "quantile": 99, "max_ns": 4000},
                {"name": "drops", "kind": "drop_rate",
                 "cause": "ptb_overflow", "max_rate": 0.05},
                {"name": "dwell", "kind": "ptb_dwell",
                 "watermark": 24, "max_dwell_s": 2.0},
            ],
        }

    def test_parses_all_kinds(self):
        rules = rules_from_dict(self.good_document())
        assert [rule.name for rule in rules] == ["tail", "drops", "dwell"]
        assert rules[0].threshold == 4000.0
        assert rules[1].cause == "ptb_overflow"
        assert rules[2].watermark == 24

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(schema="repro-slo/999"),
            lambda d: d.update(rules=[]),
            lambda d: d["rules"].append({"name": "x", "kind": "nope"}),
            lambda d: d["rules"].append(dict(d["rules"][0])),  # dup name
            lambda d: d["rules"][0].update(max_ns="fast"),
            lambda d: d["rules"][1].update(max_rate=1.5),
            lambda d: d["rules"][2].update(watermark=0),
        ],
    )
    def test_strict_validation(self, mutate):
        document = self.good_document()
        mutate(document)
        with pytest.raises(SloFormatError):
            rules_from_dict(document)

    def test_load_slo_rules_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(self.good_document()), encoding="utf-8")
        assert len(load_slo_rules(path)) == 3
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(SloFormatError):
            load_slo_rules(path)


class TestSloWatcher:
    def test_transitions_only_on_state_change(self):
        tracer = RecordingTracer(sample_rate=1.0)
        rule = SloRule(name="tail", kind="latency_quantile", threshold=1000.0)
        watcher = SloWatcher([rule], tracer=tracer)

        assert watcher.evaluate(make_sample(p99=500.0)) == []
        breach = watcher.evaluate(make_sample(p99=2000.0))
        assert [t["state"] for t in breach] == ["breach"]
        assert watcher.any_breached
        # Steady breached state stays silent.
        assert watcher.evaluate(make_sample(p99=3000.0)) == []
        recover = watcher.evaluate(make_sample(p99=500.0))
        assert [t["state"] for t in recover] == ["recover"]
        assert not watcher.any_breached
        kinds = [event.kind for event in tracer.events]
        assert kinds == [ev.SLO_BREACH, ev.SLO_RECOVER]
        assert watcher.transitions == 2

    def test_drop_rate_rule_by_cause(self):
        rule = SloRule(
            name="drops", kind="drop_rate", threshold=0.05, cause="reset"
        )
        watcher = SloWatcher([rule])
        assert watcher.evaluate(
            make_sample(drop_rates={"reset": 0.01, "any": 0.9})
        ) == []
        assert watcher.evaluate(make_sample(drop_rates={"reset": 0.2}))[0][
            "state"
        ] == "breach"

    def test_dwell_needs_sustained_occupancy(self):
        clock_now = [0.0]
        rule = SloRule(
            name="dwell", kind="ptb_dwell", threshold=2.0, watermark=16
        )
        watcher = SloWatcher([rule], clock=lambda: clock_now[0])

        assert watcher.evaluate(make_sample(occupancy=20)) == []  # timer starts
        clock_now[0] = 1.0
        assert watcher.evaluate(make_sample(occupancy=20)) == []  # under 2 s
        clock_now[0] = 1.5
        assert watcher.evaluate(make_sample(occupancy=2)) == []   # timer resets
        clock_now[0] = 5.0
        assert watcher.evaluate(make_sample(occupancy=20)) == []  # restarted
        clock_now[0] = 8.0
        transitions = watcher.evaluate(make_sample(occupancy=20))
        assert [t["state"] for t in transitions] == ["breach"]

    def test_snapshot_shape(self):
        rule = SloRule(name="tail", kind="latency_quantile", threshold=10.0)
        watcher = SloWatcher([rule])
        watcher.evaluate(make_sample(p99=99.0))
        snapshot = watcher.snapshot()
        assert snapshot["any_breached"] is True
        assert snapshot["rules"][0] == {
            "name": "tail", "kind": "latency_quantile",
            "threshold": 10.0, "breached": True,
        }


class TestFleetRegistry:
    def test_folds_heartbeats_and_results(self, tmp_path):
        heartbeat_dir = tmp_path / "heartbeats"
        heartbeat_dir.mkdir()
        (heartbeat_dir / "abc.json").write_text(json.dumps({
            "spec_hash": "abc", "status": "running",
            "updated_at": 95.0, "packets_done": 500, "rss_kb": 2048,
        }), encoding="utf-8")
        (heartbeat_dir / "bad.json").write_text("{torn", encoding="utf-8")
        with (tmp_path / "results.jsonl").open("w", encoding="utf-8") as f:
            f.write(json.dumps({"status": "ok", "duration_s": 2.0}) + "\n")
            f.write(json.dumps(
                {"status": "failed", "exit_cause": "watchdog",
                 "duration_s": 7.0}
            ) + "\n")
            f.write("not json\n")

        registry = fleet_registry(tmp_path, now=lambda: 100.0)
        assert registry.gauge(
            "runner_heartbeat_age_s", spec="abc", status="running"
        ).value == 5.0
        assert registry.gauge("runner_packets_done", spec="abc").value == 500
        assert registry.gauge("runner_workers", status="running").value == 1
        assert registry.counter("runner_jobs", status="ok").value == 1
        assert registry.counter("runner_jobs", status="failed").value == 1
        assert registry.counter("runner_jobs_exit", cause="watchdog").value == 1
        assert registry.histogram("runner_job_duration_ns").count == 2

    def test_empty_run_dir_is_fine(self, tmp_path):
        registry = fleet_registry(tmp_path)
        assert registry.snapshot()["counters"] == []


def serve_with_slo(rules, slo_backpressure=False, packets=PACKETS, window=16):
    """Replay against a server with an armed SLO watcher."""

    async def run():
        trace = make_trace(packets=packets)
        obs = Observability.metrics_only()
        engine = ServiceEngine(hypertrio_config(), trace, observability=obs)
        watcher = SloWatcher(rules) if rules else None
        server = ServiceServer(
            engine, slo_watcher=watcher, slo_backpressure=slo_backpressure
        )
        await server.start()
        client = ServiceClient("127.0.0.1", server.port)
        await client.connect()
        outcomes = await client.replay(trace.packets, window=window)
        stats = await client.stats()
        prom = await client.stats("prom")
        await client.close()
        await server.shutdown()
        return server, outcomes, stats, prom

    return asyncio.run(run())


class TestServiceSlo:
    def test_breach_shows_in_stats_and_prom(self):
        rules = [
            SloRule(name="tail", kind="latency_quantile", threshold=0.0),
            SloRule(name="drops", kind="drop_rate", threshold=1.0),
        ]
        server, outcomes, stats, prom = serve_with_slo(rules)
        assert len(outcomes) == PACKETS
        slo = stats["slo"]
        by_name = {rule["name"]: rule for rule in slo["rules"]}
        assert by_name["tail"]["breached"] is True   # p99 > 0 always
        assert by_name["drops"]["breached"] is False
        assert prom["format"] == "prom"
        text = prom["text"]
        assert 'repro_slo_breached{kind="latency_quantile",rule="tail"} 1' in text
        assert 'repro_slo_breached{kind="drop_rate",rule="drops"} 0' in text
        assert "repro_service_requests_total" in text
        assert "repro_translation_latency_ns" in text

    @pytest.mark.parametrize("window", [16, 64])
    def test_slo_backpressure_sheds_requests(self, window):
        rules = [SloRule(name="tail", kind="latency_quantile", threshold=0.0)]
        server, outcomes, stats, _ = serve_with_slo(
            rules, slo_backpressure=True, window=window
        )
        assert server.admission.slo_latched is True
        shed = [
            reply for reply in outcomes
            if reply.get("code") == protocol.E_BACKPRESSURE
        ]
        accepted = [
            reply for reply in outcomes if reply.get("type") == protocol.RESULT
        ]
        # The watcher runs every SLO_EVAL_INTERVAL dispatches: requests up
        # to the first evaluation land, everything after it is shed —
        # however many requests the client keeps in flight.
        assert len(accepted) == SLO_EVAL_INTERVAL
        assert shed, "expected backpressure sheds after the first breach"
        assert len(accepted) + len(shed) == PACKETS

    def test_no_rules_means_no_slo_block(self):
        _, outcomes, stats, prom = serve_with_slo(None)
        assert len(outcomes) == PACKETS
        assert "slo" not in stats
        assert "repro_slo_breached" not in prom["text"]


class TestTopCli:
    def test_render_stats_table(self):
        from repro.cli import _render_stats_table

        reply = {
            "processed": 10, "queue_depth": 1,
            "requests_received": 12, "results_sent": 10,
            "packets": {"arrived": 10, "accepted": 9, "dropped": 1,
                        "drop_causes": {"ptb_overflow": 1}},
            "admission": {"0": {"admitted": 10, "rate_limited": 2}},
            "per_sid": {"3": {"count": 5, "mean_ns": 100.0, "p50_ns": 90.0,
                              "p95_ns": 200.0, "p99_ns": 300.0,
                              "devtlb_hits": 8, "devtlb_misses": 2}},
            "slo": {"rules": [{"name": "tail", "kind": "latency_quantile",
                               "threshold": 10.0, "breached": True}]},
        }
        text = _render_stats_table(reply)
        assert "processed 10" in text
        assert "ptb_overflow=1" in text
        assert "rate-limited 2" in text
        assert "80.0%" in text  # devtlb hit rate of SID 3
        assert "slo tail" in text and "BREACHED" in text

    def test_top_run_dir_offline_mode(self, tmp_path, capsys):
        from repro.cli import main

        heartbeat_dir = tmp_path / "heartbeats"
        heartbeat_dir.mkdir()
        (heartbeat_dir / "abc.json").write_text(json.dumps({
            "spec_hash": "abc", "status": "running",
            "updated_at": 0.0, "packets_done": 42, "rss_kb": 100,
        }), encoding="utf-8")
        (tmp_path / "results.jsonl").write_text(
            json.dumps({"status": "ok", "duration_s": 1.0}) + "\n",
            encoding="utf-8",
        )
        assert main(["top", "--run-dir", str(tmp_path),
                     "--iterations", "1"]) == 0
        table = capsys.readouterr().out
        assert "workers: running=1" in table
        assert "jobs: ok=1" in table

        assert main(["top", "--run-dir", str(tmp_path), "--iterations", "1",
                     "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert 'repro_runner_jobs_total{status="ok"} 1' in prom

    def test_top_missing_run_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", "--run-dir", str(tmp_path / "nope"),
                     "--iterations", "1"]) == 2
