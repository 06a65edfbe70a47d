"""The HyperSIO performance model: analytic trace-driven timing."""

from repro.sim.oracle import FutureOracle, devtlb_key_sequence, oracle_for_trace
from repro.sim.resources import ResourcePool, UnboundedPool
from repro.sim.simulator import SIMULATE_ENGINES, HyperSimulator, simulate
from repro.sim.telemetry import Telemetry, WindowSample
from repro.sim.vectorized import (
    VectorizedSimulator,
    VectorizedUnsupportedError,
    simulate_vectorized,
)

__all__ = [
    "FutureOracle",
    "devtlb_key_sequence",
    "oracle_for_trace",
    "ResourcePool",
    "UnboundedPool",
    "HyperSimulator",
    "SIMULATE_ENGINES",
    "simulate",
    "VectorizedSimulator",
    "VectorizedUnsupportedError",
    "simulate_vectorized",
    "Telemetry",
    "WindowSample",
]
