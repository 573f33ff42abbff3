"""End-to-end benchmark of the ScaleBricks gateway.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload forward --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with alternating untraced and traced windows and prints the
per-layer split.  The second-to-last line of standard output is the full
report (host fingerprint, oracle tally, every metric, time accounting);
the last line is the result object ``{"correct", "attempted", "failed",
"metrics"}``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment switches that would swap the GPT or fabric backend.
_BACKEND_ENV = ("REPRO_GPT_BACKEND", "REPRO_FABRIC_BACKEND")


def result_units(trace: bool):
    """``(name, unit)`` of the metrics the result line carries.

    They are the ``end_to_end`` (untraced) or ``per_layer`` (traced)
    entries of ``BENCHMARK.json``; the report line prints every metric
    the run computed, the p99 latencies and ``failed_frac`` included.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return [(entry["name"], entry["unit"]) for entry in spec[key]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("forward", "churn", "wire"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(report, units):
    """The last stdout line: correctness, tallies and the named metrics."""
    oracle = report["oracle"]
    accounting = report.get("accounting")
    correct = (
        oracle["failed"] == 0
        and not report["leaked_processes"]
        and (accounting is None or (
            accounting["restored"]
            and accounting["roots_traced"] == accounting["calls_traced"]
            and accounting["error"] < 1e-6
        ))
    )
    return {
        "correct": correct,
        "attempted": int(oracle["attempted"]),
        "failed": int(oracle["failed"]),
        "metrics": {
            name: {"value": report["metrics"][name], "unit": unit}
            for name, unit in units
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("e2ebench: --seconds must be positive", file=sys.stderr)
        return 2
    units = result_units(bool(args.trace))
    for var in _BACKEND_ENV:
        os.environ.pop(var, None)
    # One CPU for the benchmark and the daemons it forks: the wire loop
    # has one busy process at a time, and letting the scheduler place
    # three processes on two CPUs made whole runs fast or slow at random.
    # The highest CPU, because the lowest also takes the interrupts.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, HERE]

    from repro.utils.env import environment_fingerprint

    import workloads

    report = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    report["environment"] = environment_fingerprint()
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(report, units)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
