"""Unit tests for simulator components: resources, oracle."""

import pytest

from repro.sim.oracle import FutureOracle, devtlb_key_sequence, oracle_for_trace
from repro.sim.resources import ResourcePool, UnboundedPool
from repro.trace.records import PacketRecord


class TestResourcePool:
    def test_serves_immediately_when_free(self):
        pool = ResourcePool(capacity=2)
        start, done = pool.acquire(10.0, 5.0)
        assert (start, done) == (10.0, 15.0)

    def test_queues_when_busy(self):
        pool = ResourcePool(capacity=1)
        pool.acquire(0.0, 100.0)
        start, done = pool.acquire(10.0, 5.0)
        assert start == 100.0
        assert done == 105.0

    def test_parallel_capacity(self):
        pool = ResourcePool(capacity=3)
        completions = [pool.acquire(0.0, 100.0)[1] for _ in range(3)]
        assert completions == [100.0, 100.0, 100.0]

    def test_queue_delay_accounting(self):
        pool = ResourcePool(capacity=1)
        pool.acquire(0.0, 100.0)
        pool.acquire(0.0, 100.0)
        assert pool.mean_queue_delay_ns == pytest.approx(50.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourcePool(0)
        with pytest.raises(ValueError):
            ResourcePool(1).acquire(0.0, -1.0)


class TestUnboundedPool:
    def test_never_queues(self):
        pool = UnboundedPool()
        for _ in range(100):
            start, done = pool.acquire(5.0, 10.0)
            assert (start, done) == (5.0, 15.0)
        assert pool.mean_queue_delay_ns == 0.0


class TestFutureOracle:
    def test_key_sequence_expands_packets(self):
        packets = [PacketRecord(sid=1, giovas=(0x1000, 0x2000, 0x3000))]
        keys = devtlb_key_sequence(packets)
        assert keys == [(1, 1), (1, 2), (1, 3)]

    def test_next_use_reports_future_position(self):
        oracle = FutureOracle(["a", "b", "a", "c"])
        assert oracle.next_use("a") == 0
        oracle.consume("a")
        assert oracle.next_use("a") == 2
        oracle.consume("b")
        oracle.consume("a")
        assert oracle.next_use("a") is None

    def test_consume_order_enforced(self):
        oracle = FutureOracle(["a", "b"])
        with pytest.raises(ValueError):
            oracle.consume("b")

    def test_consume_past_end(self):
        oracle = FutureOracle(["a"])
        oracle.consume("a")
        with pytest.raises(RuntimeError):
            oracle.consume("a")

    def test_unknown_key_never_used(self):
        oracle = FutureOracle(["a"])
        assert oracle.next_use("zzz") is None

    def test_oracle_for_trace(self):
        packets = [
            PacketRecord(sid=0, giovas=(0x1000, 0x2000, 0x3000)),
            PacketRecord(sid=0, giovas=(0x1000, 0x2000, 0x3000)),
        ]
        oracle = oracle_for_trace(packets)
        assert oracle.length == 6
        oracle.consume((0, 1))
        assert oracle.next_use((0, 1)) == 3
