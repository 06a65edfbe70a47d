"""Subprocess driver for the SIGKILL/resume chaos tests.

Runs one simulation with periodic checkpoints and writes the serialised
result as canonical JSON.  The chaos test launches it, SIGKILLs it after
the first snapshot lands, relaunches with ``--resume``, and asserts the
eventual result file is byte-identical to an uninterrupted in-process
run.  Lives in its own module (not the test file) so it works as
``python -m tests.checkpoint_driver`` under any multiprocessing/start
conditions.
"""

import argparse
import json
import sys
from pathlib import Path


def build_fault_plan():
    """A non-trivial plan: random faults, a storm, and a DRAM spike."""
    from repro.faults import (
        FaultPlan,
        InvalidationStormSpec,
        LatencySpikeSpec,
        TranslationFaultSpec,
    )

    return FaultPlan(
        seed=11,
        translation_faults=(TranslationFaultSpec(probability=0.005),),
        invalidation_storms=(InvalidationStormSpec(sid=0, at_ns=40_000.0),),
        latency_spikes=(
            LatencySpikeSpec(
                target="dram", start_ns=0.0, end_ns=150_000.0, extra_ns=25.0
            ),
        ),
    )


def run_clean(engine: str, packets: int):
    """The uninterrupted reference run (also used in-process by the test)."""
    from repro.core.config import hypertrio_config
    from tests.des_oracle import simulate_evented
    from repro.sim.simulator import simulate
    from repro.trace.constructor import construct_trace
    from repro.trace.tenant import profile_by_name

    run = {"analytic": simulate, "event": simulate_evented}[engine]
    trace = construct_trace(
        profile_by_name("mediastream"),
        num_tenants=4,
        packets_per_tenant=max(2_000, packets),
        interleaving="RR1",
        seed=3,
        max_packets=packets,
    )
    return run(
        hypertrio_config(), trace, warmup_packets=packets // 4,
        fault_plan=build_fault_plan(),
    )


def main(argv=None) -> int:
    from repro.core.config import hypertrio_config
    from repro.runner.serialize import result_to_dict
    from tests.des_oracle import simulate_evented
    from repro.sim.simulator import simulate
    from repro.trace.constructor import construct_trace
    from repro.trace.tenant import profile_by_name

    parser = argparse.ArgumentParser()
    parser.add_argument("--engine", choices=("analytic", "event"), required=True)
    parser.add_argument("--packets", type=int, required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--checkpoint-path", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)

    run = {"analytic": simulate, "event": simulate_evented}[args.engine]
    if args.resume:
        result = run(
            hypertrio_config(), None, resume_from=args.checkpoint_path
        )
    else:
        trace = construct_trace(
            profile_by_name("mediastream"),
            num_tenants=4,
            packets_per_tenant=max(2_000, args.packets),
            interleaving="RR1",
            seed=3,
            max_packets=args.packets,
        )
        result = run(
            hypertrio_config(), trace, warmup_packets=args.packets // 4,
            fault_plan=build_fault_plan(),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
        )
    Path(args.out).write_text(
        json.dumps(result_to_dict(result), sort_keys=True), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
