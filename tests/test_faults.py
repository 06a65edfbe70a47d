"""Fault-injection subsystem: plan format, determinism, degraded mode.

The bit-reproducibility contract under test:

* no plan (and a zero-probability plan) must leave results **byte**
  identical to a fault-free run — the injector path costs nothing when
  it injects nothing;
* any seeded plan must produce byte-identical results across repeated
  runs — fault schedules are part of the experiment, not noise;
* every injected drop is attributed to a cause, and the per-cause
  breakdown always sums to the total drop counter.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TimingParams, base_config, hypertrio_config
from repro.core.config_io import config_from_dict, config_to_dict
from repro.faults import (
    DeviceResetSpec,
    FaultInjector,
    FaultPlan,
    FaultPlanFormatError,
    InvalidationStormSpec,
    LatencySpikeSpec,
    PtbLeakSpec,
    TranslationFaultSpec,
    load_plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    save_plan,
)
from repro.runner.serialize import result_to_dict
from repro.runner.spec import JobSpec
from repro.analysis.scale import RunScale
from repro.sim.simulator import HyperSimulator, simulate
from repro.trace.constructor import construct_trace
from repro.trace.tenant import MEDIASTREAM

from tests.des_oracle import simulate_evented


def _trace(tenants=4, packets=800, interleaving="RR1"):
    return construct_trace(
        MEDIASTREAM,
        num_tenants=tenants,
        packets_per_tenant=100_000,
        interleaving=interleaving,
        max_packets=packets,
    )


def _run_bytes(config, trace, fault_plan=None, native=False, warmup=0):
    """Canonical serialisation of one run (the byte-identity probe)."""
    result = simulate(
        config, trace, native=native, warmup_packets=warmup,
        fault_plan=fault_plan,
    )
    return json.dumps(result_to_dict(result), sort_keys=True)


# ----------------------------------------------------------------------
# Plan format: round-trip, strictness, validation
# ----------------------------------------------------------------------

def _full_plan():
    return FaultPlan(
        seed=42,
        translation_faults=(
            TranslationFaultSpec(probability=0.25),
            TranslationFaultSpec(
                probability=0.5, sid=3, start_ns=100.0, end_ns=5000.0
            ),
        ),
        invalidation_storms=(InvalidationStormSpec(sid=1, at_ns=2000.0),),
        device_resets=(DeviceResetSpec(device_id=0, at_ns=3000.0),),
        latency_spikes=(
            LatencySpikeSpec(
                target="dram", start_ns=0.0, end_ns=1000.0, extra_ns=75.0
            ),
        ),
        ptb_leaks=(PtbLeakSpec(entries=4, start_ns=500.0, end_ns=9000.0),),
    )


class TestPlanFormat:
    def test_round_trip_identity(self):
        plan = _full_plan()
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plan_from_json(plan_to_json(plan)) == plan

    def test_file_round_trip(self, tmp_path):
        plan = _full_plan()
        path = save_plan(plan, tmp_path / "plan.json")
        assert load_plan(path) == plan

    def test_null_plan_serialises_minimal(self):
        assert plan_to_dict(FaultPlan()) == {"seed": 0}
        assert FaultPlan().is_null
        assert not _full_plan().is_null

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FaultPlanFormatError, match="unknown"):
            plan_from_dict({"seed": 1, "translation_fautls": []})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(FaultPlanFormatError, match="unknown"):
            plan_from_dict(
                {"translation_faults": [{"probability": 0.1, "sids": 3}]}
            )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            TranslationFaultSpec(probability=1.5)
        with pytest.raises(ValueError):
            TranslationFaultSpec(probability=0.5, start_ns=10.0, end_ns=5.0)
        with pytest.raises(ValueError):
            LatencySpikeSpec(target="nvme", start_ns=0.0, end_ns=1.0,
                             extra_ns=10.0)
        with pytest.raises(ValueError):
            PtbLeakSpec(entries=0, start_ns=0.0, end_ns=1.0)


# ----------------------------------------------------------------------
# Injector unit behaviour
# ----------------------------------------------------------------------

class TestInjector:
    def test_zero_probability_consumes_no_rng(self):
        plan = FaultPlan(
            seed=9,
            translation_faults=(TranslationFaultSpec(probability=0.0),),
        )
        injector = FaultInjector(plan)
        state = injector.rng.getstate()
        assert not injector.translation_fault(10.0, 0)
        assert injector.rng.getstate() == state

    def test_certain_fault_consumes_no_rng(self):
        plan = FaultPlan(
            seed=9,
            translation_faults=(TranslationFaultSpec(probability=1.0),),
        )
        injector = FaultInjector(plan)
        state = injector.rng.getstate()
        assert injector.translation_fault(10.0, 0)
        assert injector.rng.getstate() == state

    def test_window_and_sid_filtering(self):
        plan = FaultPlan(
            translation_faults=(
                TranslationFaultSpec(
                    probability=1.0, sid=2, start_ns=100.0, end_ns=200.0
                ),
            ),
        )
        injector = FaultInjector(plan)
        assert injector.translation_fault(150.0, 2)
        assert not injector.translation_fault(150.0, 1)
        assert not injector.translation_fault(50.0, 2)
        assert not injector.translation_fault(250.0, 2)

    def test_storm_cursor_fires_once(self):
        plan = FaultPlan(
            invalidation_storms=(
                InvalidationStormSpec(sid=1, at_ns=100.0),
                InvalidationStormSpec(sid=2, at_ns=100.0),
                InvalidationStormSpec(sid=3, at_ns=900.0),
            ),
        )
        injector = FaultInjector(plan)
        assert [s.sid for s in injector.due_storms(50.0)] == []
        assert [s.sid for s in injector.due_storms(100.0)] == [1, 2]
        assert [s.sid for s in injector.due_storms(100.0)] == []
        assert [s.sid for s in injector.due_storms(1e9)] == [3]

    def test_reset_coalesces_overdue_firings(self):
        plan = FaultPlan(
            device_resets=(
                DeviceResetSpec(device_id=0, at_ns=10.0),
                DeviceResetSpec(device_id=0, at_ns=20.0),
            ),
        )
        injector = FaultInjector(plan)
        assert injector.due_reset(0, 50.0)
        assert not injector.due_reset(0, 60.0)
        assert not injector.due_reset(1, 60.0)

    def test_spike_windows_sum(self):
        plan = FaultPlan(
            latency_spikes=(
                LatencySpikeSpec(target="pcie", start_ns=0.0, end_ns=100.0,
                                 extra_ns=10.0),
                LatencySpikeSpec(target="pcie", start_ns=50.0, end_ns=100.0,
                                 extra_ns=5.0),
                LatencySpikeSpec(target="dram", start_ns=0.0, end_ns=100.0,
                                 extra_ns=7.0),
            ),
        )
        injector = FaultInjector(plan)
        assert injector.pcie_extra_ns(75.0) == 15.0
        assert injector.pcie_extra_ns(25.0) == 10.0
        assert injector.pcie_extra_ns(500.0) == 0.0
        assert injector.dram_extra_ns(75.0) == 7.0


# ----------------------------------------------------------------------
# Byte-identity and determinism through the simulator
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_no_plan_matches_zero_probability_plan(self):
        config = hypertrio_config()
        plain = _run_bytes(config, _trace())
        zero = FaultPlan(
            seed=77,
            translation_faults=(TranslationFaultSpec(probability=0.0),),
        )
        assert _run_bytes(config, _trace(), fault_plan=zero) == plain

    def test_seeded_plan_bit_identical_across_runs(self):
        config = hypertrio_config()
        plan = _full_plan()
        first = _run_bytes(config, _trace(), fault_plan=plan)
        second = _run_bytes(config, _trace(), fault_plan=plan)
        assert first == second

    def test_different_seeds_diverge(self):
        config = base_config()
        plan = FaultPlan(
            seed=1, translation_faults=(TranslationFaultSpec(probability=0.5),)
        )
        other = dataclasses.replace(plan, seed=2)
        trace = _trace(tenants=8, packets=1500)
        a = simulate(base_config(), _trace(tenants=8, packets=1500),
                     fault_plan=plan)
        b = simulate(config, trace, fault_plan=other)
        assert a.packets.drop_causes != b.packets.drop_causes

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        probability=st.floats(min_value=0.0, max_value=1.0),
        storm_at=st.floats(min_value=0.0, max_value=60_000.0),
        leak=st.integers(min_value=1, max_value=64),
    )
    def test_any_seeded_plan_is_reproducible(
        self, seed, probability, storm_at, leak
    ):
        plan = FaultPlan(
            seed=seed,
            translation_faults=(
                TranslationFaultSpec(probability=probability),
            ),
            invalidation_storms=(InvalidationStormSpec(sid=1, at_ns=storm_at),),
            ptb_leaks=(PtbLeakSpec(entries=leak, start_ns=0.0,
                                   end_ns=storm_at + 10_000.0),),
        )
        config = hypertrio_config()
        first = _run_bytes(config, _trace(tenants=2, packets=300),
                           fault_plan=plan)
        second = _run_bytes(config, _trace(tenants=2, packets=300),
                            fault_plan=plan)
        assert first == second


# ----------------------------------------------------------------------
# Degraded-mode behaviour
# ----------------------------------------------------------------------

class TestDegradedMode:
    def test_drop_causes_sum_to_total(self):
        plan = FaultPlan(
            seed=3,
            translation_faults=(TranslationFaultSpec(probability=0.6),),
            device_resets=(DeviceResetSpec(device_id=0, at_ns=20_000.0),),
        )
        result = simulate(base_config(), _trace(tenants=8, packets=2000),
                          fault_plan=plan)
        causes = result.packets.drop_causes
        assert sum(causes.values()) == result.packets.dropped
        assert causes.get("translation_fault", 0) > 0

    def test_certain_faults_drop_every_walk(self):
        plan = FaultPlan(
            translation_faults=(TranslationFaultSpec(probability=1.0),),
        )
        result = simulate(base_config(), _trace(), fault_plan=plan)
        causes = result.packets.drop_causes
        assert causes.get("translation_fault", 0) > 0
        # No walk ever completes, so the IOMMU's walkers stay idle.
        assert result.cache_stats["iotlb"].hits == 0

    def test_retry_backoff_charges_latency(self):
        # Same trace, same seed; only the retry budget differs.  More
        # retries -> faulted packets that eventually succeed pay more
        # backoff, and fewer drop.
        lenient = TimingParams(fault_max_retries=8)
        plan = FaultPlan(
            seed=5, translation_faults=(TranslationFaultSpec(probability=0.7),)
        )
        trace_args = dict(tenants=16, packets=2000)
        strict_run = simulate(base_config(), _trace(**trace_args),
                              fault_plan=plan)
        lenient_run = simulate(base_config(timing=lenient),
                               _trace(**trace_args), fault_plan=plan)
        strict_drops = strict_run.packets.drop_causes.get("translation_fault", 0)
        lenient_drops = lenient_run.packets.drop_causes.get(
            "translation_fault", 0
        )
        assert lenient_drops < strict_drops

    def test_device_reset_drops_and_flushes(self):
        plan = FaultPlan(
            device_resets=(DeviceResetSpec(device_id=0, at_ns=15_000.0),),
        )
        result = simulate(hypertrio_config(), _trace(), fault_plan=plan)
        assert result.packets.drop_causes.get("device_reset") == 1

    def test_ptb_leak_increases_overflow_drops(self):
        trace_args = dict(tenants=16, packets=2500)
        healthy = simulate(hypertrio_config(), _trace(**trace_args))
        plan = FaultPlan(
            ptb_leaks=(PtbLeakSpec(entries=31, start_ns=0.0, end_ns=1e12),),
        )
        leaked = simulate(hypertrio_config(), _trace(**trace_args),
                          fault_plan=plan)
        assert (
            leaked.packets.drop_causes.get("ptb_overflow", 0)
            > healthy.packets.drop_causes.get("ptb_overflow", 0)
        )

    def test_pcie_spike_raises_latency(self):
        plan = FaultPlan(
            latency_spikes=(
                LatencySpikeSpec(target="pcie", start_ns=0.0, end_ns=1e12,
                                 extra_ns=500.0),
            ),
        )
        baseline = simulate(base_config(), _trace())
        spiked = simulate(base_config(), _trace(), fault_plan=plan)
        assert spiked.latency.mean_ns > baseline.latency.mean_ns

    def test_invalidation_storm_flushes_tenant(self):
        plan = FaultPlan(
            invalidation_storms=(InvalidationStormSpec(sid=0, at_ns=20_000.0),),
        )
        baseline = simulate(hypertrio_config(), _trace())
        stormed = simulate(hypertrio_config(), _trace(), fault_plan=plan)
        assert stormed.invalidation_messages > baseline.invalidation_messages

    def test_analytic_and_evented_agree_under_faults(self):
        config = hypertrio_config()
        plan = _full_plan()
        analytic = simulate(config, _trace(), fault_plan=plan)
        evented = simulate_evented(config, _trace(), fault_plan=plan)
        assert result_to_dict(evented) == result_to_dict(analytic)


# ----------------------------------------------------------------------
# Stale-prefetch invalidation (the satellite fix)
# ----------------------------------------------------------------------

class TestStalePrefetchInvalidation:
    def _engine(self):
        sim = HyperSimulator(hypertrio_config(), _trace(packets=50))
        return sim, sim.engines[0]

    def test_apply_install_skips_cancelled_prefetch(self):
        _sim, engine = self._engine()
        unit = engine.device.prefetch_unit
        engine.apply_install(0.0, 7, 123, 0xABC000, 12)
        assert unit.lookup(7, 123) is None

    def test_inflight_install_lands_when_not_invalidated(self):
        _sim, engine = self._engine()
        engine._inflight_prefetches.add((7, 123))
        engine.apply_install(0.0, 7, 123, 0xABC000, 12)
        assert engine.device.prefetch_unit.lookup(7, 123) is not None
        assert (7, 123) not in engine._inflight_prefetches

    def test_tenant_invalidation_purges_inflight_installs(self):
        sim, engine = self._engine()
        engine._inflight_prefetches.update({(7, 1), (7, 2), (8, 3)})
        sim.fabric.chipset.iommu.invalidate_tenant(7)
        assert engine._inflight_prefetches == {(8, 3)}
        engine.apply_install(0.0, 7, 1, 0xABC000, 12)
        assert engine.device.prefetch_unit.lookup(7, 1) is None


# ----------------------------------------------------------------------
# Config and job-spec integration
# ----------------------------------------------------------------------

class TestConfigIntegration:
    def test_fault_knobs_omitted_at_default(self):
        document = config_to_dict(base_config())
        assert "fault_max_retries" not in document["timing"]
        assert "fault_backoff_ns" not in document["timing"]

    def test_fault_knobs_round_trip(self):
        timing = TimingParams(fault_max_retries=5, fault_backoff_ns=80.0)
        config = base_config(timing=timing)
        document = config_to_dict(config)
        assert document["timing"]["fault_max_retries"] == 5
        assert document["timing"]["fault_backoff_ns"] == 80.0
        assert config_from_dict(document) == config

    def test_job_spec_hash_stable_without_plan(self):
        scale = RunScale(
            name="t", tenant_counts=(4,), interleavings=("RR1",),
            benchmarks=("mediastream",), max_packets=100,
            packets_per_tenant=1000, warmup_fraction=0.25,
        )
        spec = JobSpec.from_point(base_config(), "mediastream", 4, "RR1", scale)
        assert "fault_plan" not in spec.to_dict()
        faulted = JobSpec.from_point(
            base_config(), "mediastream", 4, "RR1", scale,
            fault_plan=FaultPlan(seed=1),
        )
        assert faulted.spec_hash != spec.spec_hash
        assert faulted.to_dict()["fault_plan"] == {"seed": 1}
