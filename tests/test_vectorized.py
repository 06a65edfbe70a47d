"""The vectorized batch engine must be byte-identical to the analytic one.

Three layers of evidence:

* the pinned ``devices=1`` goldens (``tests/data/golden_devices1.json``)
  recomputed through :class:`VectorizedSimulator` key by key;
* a property-based cross-engine matrix over random small configurations
  (policies, PTB depths, bounded walkers, interleavings, seeds) comparing
  fully serialised results;
* targeted regimes the batch path optimises specially — the drop-heavy
  PTB-overflow case and the block-cycle leap — plus the refusal matrix
  (fault plans, checkpointing, resume raise
  :class:`VectorizedUnsupportedError` instead of silently degrading).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TlbConfig, base_config, hypertrio_config
from repro.runner.serialize import result_to_dict
from repro.sim.simulator import HyperSimulator, simulate
from repro.sim.vectorized import (
    VectorizedSimulator,
    VectorizedUnsupportedError,
    simulate_vectorized,
)
from repro.trace.constructor import construct_trace
from repro.trace.tenant import profile_by_name
from tests.golden_common import GOLDEN_PATH, GOLDEN_POINTS, _build_config


def _trace(benchmark="mediastream", tenants=8, packets=900,
           interleaving="RR1", seed=0):
    return construct_trace(
        profile_by_name(benchmark),
        num_tenants=tenants,
        packets_per_tenant=100_000,
        interleaving=interleaving,
        seed=seed,
        max_packets=packets,
    )


def _config(policy="lfu", ptb=1, walkers=None):
    """Base geometry with every TLB level on ``policy``."""

    def tlb(template):
        return TlbConfig(
            num_entries=template.num_entries,
            ways=template.ways,
            num_partitions=template.num_partitions,
            policy=policy,
        )

    config = base_config()
    return config.with_overrides(
        devtlb=tlb(config.devtlb),
        l2_tlb=tlb(config.l2_tlb),
        l3_tlb=tlb(config.l3_tlb),
        ptb_entries=ptb,
        iommu_walkers=walkers,
    )


def _dump(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


def _assert_parity(config, **trace_kwargs):
    warmup = trace_kwargs.pop("warmup", 0)
    analytic = HyperSimulator(config, _trace(**trace_kwargs)).run(
        warmup_packets=warmup
    )
    vectorized = VectorizedSimulator(config, _trace(**trace_kwargs)).run(
        warmup_packets=warmup
    )
    assert _dump(analytic) == _dump(vectorized)
    return analytic, vectorized


class TestGoldenParity:
    """The pinned goldens, recomputed through the vectorized engine."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
    def test_point_matches_pinned_golden(self, golden, name):
        spec = GOLDEN_POINTS[name]
        trace = construct_trace(
            profile_by_name(spec["benchmark"]),
            num_tenants=spec["tenants"],
            packets_per_tenant=200_000,
            interleaving=spec["interleaving"],
            seed=0,
            max_packets=spec["packets"],
        )
        config = _build_config(spec["config"])
        result = VectorizedSimulator(config, trace).run(
            warmup_packets=spec["warmup"]
        )
        fresh = json.loads(json.dumps(result_to_dict(result)))
        pinned = golden["points"][name]
        assert set(fresh) == set(pinned), name
        for key in pinned:
            assert fresh[key] == pinned[key], f"{name}: field {key!r} diverged"


class TestCrossEngineProperty:
    """Random small configurations: serialised results must be identical."""

    @settings(max_examples=15, deadline=None)
    @given(
        benchmark=st.sampled_from(["mediastream", "iperf3", "keyvalue"]),
        tenants=st.sampled_from([2, 4, 8]),
        interleaving=st.sampled_from(["RR1", "RR2", "RAND1"]),
        policy=st.sampled_from(["lru", "lfu", "fifo"]),
        ptb=st.sampled_from([1, 4]),
        walkers=st.sampled_from([None, 2]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_config_identical(
        self, benchmark, tenants, interleaving, policy, ptb, walkers, seed
    ):
        _assert_parity(
            _config(policy=policy, ptb=ptb, walkers=walkers),
            benchmark=benchmark,
            tenants=tenants,
            packets=600,
            interleaving=interleaving,
            seed=seed,
        )


class TestTargetedRegimes:
    def test_drop_heavy_ptb_overflow(self):
        analytic, _ = _assert_parity(
            _config(policy="lfu", ptb=1),
            benchmark="keyvalue",
            tenants=16,
            packets=1500,
        )
        assert analytic.packets.dropped > 0
        assert analytic.packets.drop_causes.get("ptb_overflow", 0) > 0

    def test_block_cycle_leap_engages_and_stays_identical(self):
        # Deterministic per-tenant streams (iperf3) over a round-robin
        # interleaving settle into a steady state the engine detects and
        # leaps over; the leap must not move a single serialised byte.
        config = _config(policy="lru")
        trace_kwargs = dict(benchmark="iperf3", tenants=32, packets=6400)
        analytic = HyperSimulator(config, _trace(**trace_kwargs)).run()
        simulator = VectorizedSimulator(config, _trace(**trace_kwargs))
        vectorized = simulator.run()
        assert _dump(analytic) == _dump(vectorized)
        assert simulator.batch_stats["mode"] == "batch"
        assert simulator.batch_stats["blocks_leaped"] > 0

    def test_warmup_accounting_identical(self):
        _assert_parity(_config(), packets=1200, warmup=300)

    def test_engine_latency_stats_are_the_run_wide_stats(self):
        # At devices=1 the device engine's latency and packet mirrors
        # must not go stale, whichever engine ran: after the batch pass
        # they hold exactly what the run-wide stats (and the result)
        # report.
        config = _config(policy="lfu", ptb=4)
        for simulator in (
            HyperSimulator(config, _trace()),
            VectorizedSimulator(config, _trace()),
        ):
            result = simulator.run()
            engine = simulator.engines[0]
            assert engine.latency_stats == simulator.latency_stats
            assert engine.latency_stats.count == result.latency.count > 0
            assert engine.packet_stats == simulator.packet_stats
            assert engine.packet_stats.arrived == result.packets.arrived > 0
            assert engine.packet_stats.dropped == result.packets.dropped > 0
        assert simulator.batch_stats["mode"] == "batch"

    def test_prefetch_config_falls_back_with_reason(self):
        # HyperTRIO's prefetcher couples cache state to packet timing, so
        # the batch two-stage split is unsound there; the engine must
        # fall back to the analytic loop (parity by construction) and
        # say why.
        config = hypertrio_config()
        analytic = HyperSimulator(config, _trace()).run()
        simulator = VectorizedSimulator(config, _trace())
        vectorized = simulator.run()
        assert _dump(analytic) == _dump(vectorized)
        assert simulator.batch_stats["mode"] == "fallback"
        assert simulator.batch_stats["reason"]


class TestRefusals:
    def test_fault_plan_refused_at_construction(self):
        from repro.faults import FaultPlan, TranslationFaultSpec

        plan = FaultPlan(
            seed=0,
            translation_faults=(TranslationFaultSpec(probability=0.5),),
        )
        with pytest.raises(VectorizedUnsupportedError) as refused:
            VectorizedSimulator(_config(), _trace(), fault_plan=plan)
        _assert_points_at_analytic(refused.value)

    def test_checkpointing_refused(self, tmp_path):
        simulator = VectorizedSimulator(_config(), _trace())
        with pytest.raises(VectorizedUnsupportedError) as refused:
            simulator.run(
                checkpoint_every=100, checkpoint_path=tmp_path / "x.ckpt"
            )
        _assert_points_at_analytic(refused.value)

    def test_resume_refused(self):
        with pytest.raises(VectorizedUnsupportedError) as refused:
            simulate_vectorized(_config(), None, resume_from="whatever.ckpt")
        _assert_points_at_analytic(refused.value)


def _assert_points_at_analytic(error):
    """A refusal names the engine that does support the feature, and
    only engines that still exist."""
    assert "engine='analytic'" in str(error)
    assert "evented" not in str(error)


class TestEngineDispatch:
    def test_simulate_engine_vectorized_matches_analytic(self):
        analytic = simulate(_config(), _trace(), engine="analytic")
        vectorized = simulate(_config(), _trace(), engine="vectorized")
        assert _dump(analytic) == _dump(vectorized)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(_config(), _trace(), engine="quantum")


class TestJobSpecEngine:
    def test_default_engine_leaves_hash_unchanged(self):
        from repro.analysis.scale import RunScale
        from repro.runner.spec import JobSpec

        scale = RunScale(
            name="t", tenant_counts=(4,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=500,
        )
        plain = JobSpec.from_point(_config(), "mediastream", 4, "RR1", scale)
        explicit = JobSpec.from_point(
            _config(), "mediastream", 4, "RR1", scale, engine="analytic"
        )
        assert "engine" not in plain.to_dict()
        assert plain.spec_hash == explicit.spec_hash

    def test_vectorized_engine_changes_hash_and_label(self):
        from repro.analysis.scale import RunScale
        from repro.runner.spec import JobSpec

        scale = RunScale(
            name="t", tenant_counts=(4,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=500,
        )
        plain = JobSpec.from_point(_config(), "mediastream", 4, "RR1", scale)
        vector = JobSpec.from_point(
            _config(), "mediastream", 4, "RR1", scale, engine="vectorized"
        )
        assert vector.to_dict()["engine"] == "vectorized"
        assert vector.spec_hash != plain.spec_hash
        assert vector.label.endswith("/vectorized")
        round_tripped = JobSpec.from_dict(vector.to_dict())
        assert round_tripped.spec_hash == vector.spec_hash


class TestServiceBatch:
    def test_submit_batch_matches_sequential_submit(self):
        from repro.service.engine import ServiceEngine

        config = _config()
        trace = _trace(tenants=8, packets=1200)
        packets = list(trace.packets)

        sequential = ServiceEngine(config, trace)
        outcomes_seq = [sequential.submit(p) for p in packets]
        result_seq = sequential.flush()

        batched = ServiceEngine(config, trace)
        outcomes_bat = []
        step = 37  # deliberately not a divisor: exercises a ragged tail
        for start in range(0, len(packets), step):
            outcomes_bat.extend(
                batched.submit_batch(packets[start:start + step])
            )
        result_bat = batched.flush()

        assert [o.__dict__ for o in outcomes_seq] == [
            o.__dict__ for o in outcomes_bat
        ]
        assert _dump(result_seq) == _dump(result_bat)

    def test_submit_batch_rejects_unknown_sid_before_any_state_change(self):
        from repro.service.engine import ServiceEngine, UnknownTenantError

        config = _config()
        trace = _trace(tenants=4, packets=400)
        packets = list(trace.packets)
        bad = packets[0].__class__(
            sid=9999, giovas=packets[0].giovas,
            size_bytes=packets[0].size_bytes,
        )
        engine = ServiceEngine(config, trace)
        with pytest.raises(UnknownTenantError):
            engine.submit_batch([packets[0], bad, packets[1]])
        # Total prevalidation: the good packets before the bad one must
        # not have been translated either.
        assert engine.processed == 0


class TestCliEngineFlag:
    def test_vectorized_with_fault_plan_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--tenants", "2", "--packets", "200",
            "--config", "base", "--engine", "vectorized",
            "--fault-plan", "plan.json",
        ])
        assert code == 2
        assert "does not support --fault-plan" in capsys.readouterr().err

    def test_vectorized_with_checkpointing_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--tenants", "2", "--packets", "200",
            "--config", "base", "--engine", "vectorized",
            "--checkpoint-every", "100",
        ])
        assert code == 2
        assert "does not support --checkpoint-every" in capsys.readouterr().err

    def test_vectorized_simulate_runs(self):
        from repro.cli import main

        assert main([
            "simulate", "--tenants", "2", "--packets", "400",
            "--config", "base", "--engine", "vectorized",
        ]) == 0
