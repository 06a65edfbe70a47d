"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hypertrio-16t --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run
that gives the per-layer metrics.  The run record (provenance, checks,
per-phase request counts) is printed as JSON on standard error and
written under ``.perfbench/``; the last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when a correctness check failed or the run was invalid, 2 when the
benchmark could not run at all.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminated(signum, frame):
    # Unwind through every ``finally`` so child servers are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    from harness import WORK, pin_one_cpu

    cpu = pin_one_cpu()
    if workload.kind == "offline":
        from offline import run_offline

        record = run_offline(workload, args.seed, args.seconds, bool(args.trace))
    else:
        from online import run_service

        record = run_service(workload, args.seed, args.seconds, bool(args.trace))

    record.labels["cpu"] = cpu
    from report import END_TO_END, PER_LAYER

    names = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    missing = [name for name in names if name not in record.metrics]
    if missing:
        raise RuntimeError(f"run did not measure {missing}")
    document = record.to_dict()
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(document, indent=2), file=sys.stderr)
    for check in record.checks:
        if not check["ok"]:
            print(f"perfbench: check {check['check']} FAILED: {check['detail']}",
                  file=sys.stderr)
    if not record.valid:
        print(f"perfbench: run invalid: {record.invalid_reason}", file=sys.stderr)
    print(json.dumps({
        "correct": record.correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": record.metrics[name], "unit": record.units[name]}
            for name in names
        },
    }))
    return 0 if record.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
