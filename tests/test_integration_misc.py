"""Cross-cutting integration tests: engine combinations and teardown paths."""

import pytest

from repro.core.config import base_config, hypertrio_config
from repro.iommu.iommu import Iommu
from repro.sim.simulator import HyperSimulator
from repro.sim.telemetry import Telemetry
from repro.trace.constructor import construct_trace
from repro.trace.tenant import IPERF3, MEDIASTREAM
from repro.trace.validate import validate_trace

from tests.des_oracle import EventDrivenSimulator


def _trace(**overrides):
    defaults = dict(
        profile=MEDIASTREAM, num_tenants=8, packets_per_tenant=100_000,
        interleaving="RR1", max_packets=700,
    )
    defaults.update(overrides)
    profile = defaults.pop("profile")
    return construct_trace(profile, **defaults)


class TestDesWithTelemetry:
    def test_both_engines_produce_same_windows(self):
        analytic_telemetry = Telemetry(window_packets=100)
        evented_telemetry = Telemetry(window_packets=100)
        HyperSimulator(
            hypertrio_config(), _trace(), telemetry=analytic_telemetry
        ).run()
        EventDrivenSimulator(
            hypertrio_config(), _trace(), telemetry=evented_telemetry
        ).run()
        assert len(analytic_telemetry.windows) == len(evented_telemetry.windows)
        for a, b in zip(analytic_telemetry.windows, evented_telemetry.windows):
            assert a.bytes == b.bytes
            assert a.devtlb_hits == b.devtlb_hits
            assert a.end_ns == pytest.approx(b.end_ns)


class TestTenantTeardown:
    def test_invalidate_tenant_across_partitioned_caches(self):
        trace = _trace()
        simulator = HyperSimulator(hypertrio_config(), trace)
        simulator.run(max_packets=300)
        iommu: Iommu = simulator.path.iommu
        target = trace.packets[0].sid
        iommu.invalidate_tenant(target)
        for cache in (iommu.iotlb, iommu.nested_tlb, iommu.pte_cache):
            assert all(key[0] != target for key in cache.keys())

    def test_other_tenants_survive_teardown(self):
        trace = _trace()
        simulator = HyperSimulator(hypertrio_config(), trace)
        simulator.run(max_packets=300)
        iommu = simulator.path.iommu
        before = len(iommu.nested_tlb)
        iommu.invalidate_tenant(trace.packets[0].sid)
        assert 0 < len(iommu.nested_tlb) <= before


class TestTraceReusability:
    def test_same_trace_can_be_simulated_twice(self):
        """Simulators own their cache state; the trace (and its page
        tables) is read-only and reusable."""
        trace = _trace()
        first = HyperSimulator(base_config(), trace).run()
        second = HyperSimulator(base_config(), trace).run()
        assert second.achieved_bandwidth_gbps == pytest.approx(
            first.achieved_bandwidth_gbps
        )

    def test_trace_still_valid_after_simulation(self):
        trace = _trace()
        HyperSimulator(hypertrio_config(), trace).run()
        assert validate_trace(trace, sample_stride=7).ok


class TestMaxPacketsInteractions:
    def test_max_packets_shorter_than_warmup_rejected(self):
        trace = _trace()
        simulator = HyperSimulator(base_config(), trace)
        with pytest.raises(ValueError):
            simulator.run(max_packets=100, warmup_packets=100)

    def test_max_packets_with_warmup(self):
        trace = _trace()
        result = HyperSimulator(base_config(), trace).run(
            max_packets=400, warmup_packets=100
        )
        assert result.packets.arrived == 400


class TestSmallestConfigurations:
    def test_single_tenant_single_packet(self):
        trace = construct_trace(IPERF3, 1, 10, max_packets=1)
        result = HyperSimulator(base_config(), trace).run()
        assert result.packets.accepted == 1
        assert result.latency.count == 3

    def test_one_way_devtlb(self):
        from repro.core.config import TlbConfig

        config = base_config().with_overrides(
            devtlb=TlbConfig(num_entries=8, ways=1, policy="lru")
        )
        trace = construct_trace(IPERF3, 2, 10_000, max_packets=200)
        result = HyperSimulator(config, trace).run()
        assert 0.0 < result.link_utilization <= 1.0
