"""Cross-validation: the event-driven engine must match the analytic one."""

import pytest

from repro.core.config import DeviceConfig, base_config, hypertrio_config
from repro.runner.serialize import result_to_dict
from repro.sim.simulator import HyperSimulator
from repro.trace.constructor import construct_trace
from repro.trace.tenant import IPERF3, KEYVALUE, MEDIASTREAM

from tests.des_oracle import EventDrivenSimulator, EventKind, EventQueue, simulate_evented


def _fresh_trace(profile=MEDIASTREAM, tenants=8, packets=900, interleaving="RR1"):
    return construct_trace(
        profile,
        num_tenants=tenants,
        packets_per_tenant=100_000,
        interleaving=interleaving,
        max_packets=packets,
    )


def _compare(config, profile=MEDIASTREAM, tenants=8, packets=900,
             interleaving="RR1", warmup=0, native=False):
    analytic = HyperSimulator(config, _fresh_trace(profile, tenants, packets,
                                                   interleaving),
                              native=native).run(warmup_packets=warmup)
    evented = EventDrivenSimulator(config, _fresh_trace(profile, tenants,
                                                        packets, interleaving),
                                   native=native).run(warmup_packets=warmup)
    return analytic, evented


def _assert_identical(analytic, evented):
    assert evented.achieved_bandwidth_gbps == pytest.approx(
        analytic.achieved_bandwidth_gbps, rel=1e-9
    )
    assert evented.elapsed_ns == pytest.approx(analytic.elapsed_ns, rel=1e-9)
    assert evented.packets.arrived == analytic.packets.arrived
    assert evented.packets.dropped == analytic.packets.dropped
    assert evented.packets.bytes_processed == analytic.packets.bytes_processed
    assert evented.latency.count == analytic.latency.count
    assert evented.latency.total_ns == pytest.approx(
        analytic.latency.total_ns, rel=1e-9
    )
    for name, stats in analytic.cache_stats.items():
        other = evented.cache_stats[name]
        assert (other.hits, other.misses, other.evictions) == (
            stats.hits, stats.misses, stats.evictions,
        ), name


class TestEngineEquivalence:
    def test_base_config_identical(self):
        _assert_identical(*_compare(base_config()))

    def test_hypertrio_with_prefetch_identical(self):
        _assert_identical(*_compare(hypertrio_config()))

    def test_heavy_drop_regime_identical(self):
        _assert_identical(*_compare(base_config(), tenants=32, packets=1200))

    def test_rand_interleaving_identical(self):
        _assert_identical(*_compare(hypertrio_config(), interleaving="RAND1"))

    def test_variable_packet_sizes_identical(self):
        _assert_identical(*_compare(hypertrio_config(), profile=KEYVALUE))

    def test_warmup_accounting_identical(self):
        _assert_identical(*_compare(hypertrio_config(), warmup=200))

    def test_native_mode_identical(self):
        _assert_identical(*_compare(base_config(), native=True))

    def test_iperf_small_identical(self):
        _assert_identical(*_compare(base_config(), profile=IPERF3, tenants=2,
                                    packets=400))

    def test_convenience_wrapper(self):
        trace = _fresh_trace()
        result = simulate_evented(hypertrio_config(), trace, warmup_packets=100)
        assert 0.0 < result.link_utilization <= 1.0


class TestMultiDeviceParity:
    """Analytic vs event-driven over the fabric dimension.

    The matrix crosses device counts with interleavings on a config that
    exercises every mechanism the engines must agree on per device:
    prefetch installs (heap vs install events), invalidations, and a
    bounded walker pool shared across devices.  Results are compared via
    their full serialised documents — every counter, histogram bucket,
    per-device breakdown, and fabric aggregate must be identical.
    """

    @staticmethod
    def _config(devices):
        return hypertrio_config().with_overrides(
            iommu_walkers=2,
            devices=DeviceConfig(count=devices, sid_map="round_robin"),
        )

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("interleaving", ["RR1", "RR4", "RAND1"])
    def test_serialised_results_identical(self, devices, interleaving):
        config = self._config(devices)
        analytic, evented = _compare(
            config, profile=KEYVALUE, interleaving=interleaving, warmup=100
        )
        assert result_to_dict(evented) == result_to_dict(analytic)

    @pytest.mark.parametrize("devices", [2, 4])
    def test_device_breakdowns_match(self, devices):
        analytic, evented = _compare(self._config(devices))
        assert len(analytic.device_results) == devices
        for left, right in zip(analytic.device_results, evented.device_results):
            assert left == right
        assert analytic.fabric == evented.fabric

    def test_hash_map_identical(self):
        config = hypertrio_config().with_overrides(
            iommu_walkers=2,
            devices=DeviceConfig(count=4, sid_map="hash"),
        )
        analytic, evented = _compare(config)
        assert result_to_dict(evented) == result_to_dict(analytic)


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(5.0, EventKind.PACKET_ARRIVAL, "late")
        queue.schedule(1.0, EventKind.PACKET_ARRIVAL, "early")
        assert queue.pop().payload == "early"
        assert queue.pop().payload == "late"

    def test_install_precedes_arrival_at_same_time(self):
        queue = EventQueue()
        queue.schedule(2.0, EventKind.PACKET_ARRIVAL, "pkt")
        queue.schedule(2.0, EventKind.PREFETCH_INSTALL, "ins")
        assert queue.pop().payload == "ins"

    def test_fifo_among_equal_events(self):
        queue = EventQueue()
        queue.schedule(1.0, EventKind.PACKET_ARRIVAL, "first")
        queue.schedule(1.0, EventKind.PACKET_ARRIVAL, "second")
        assert queue.pop().payload == "first"

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek_time(self):
        queue = EventQueue()
        queue.schedule(3.0, EventKind.PACKET_ARRIVAL)
        assert queue.peek_time() == 3.0
        with pytest.raises(IndexError):
            EventQueue().peek_time()

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0, EventKind.PACKET_ARRIVAL)
        assert len(queue) == 1
        assert queue
