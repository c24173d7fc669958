"""Run the benchmark: one workload, or every workload in turn.

    python3 roadbench/run.py --workload point-edge --seed 1 --seconds 22 --trace 0
    python3 roadbench/run.py --seed 1            # every workload

Run from the root of a checkout.  One workload runs in this interpreter;
without ``--workload`` (or with ``--workload all``) each workload runs in
a fresh interpreter of its own, one after the other, so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone.

Each run prints its environment, every metric by name and unit, the
operations attempted and failed, and, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the
traced run, reports the per-layer metrics and writes its spans under
``.roadbench/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("point-edge", "analysis-batch", "zipf-churn", "paged-cold")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse_overrides() -> None:
    """The program reads REPRO_* variables (ServiceConfig.from_env, the
    freeze backend default, the dataset scale); any of them would change
    what is measured without a trace in the output."""
    stray = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if stray:
        sys.exit(f"roadbench: unset {', '.join(stray)} before running")


def run_all(args) -> int:
    """Every workload in a fresh interpreter; the last line sums them up."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0


def run_one(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs
    import selftest
    import workloads

    files = inputs.network_files(ROOT)
    data = inputs.Inputs(*files, seed=args.seed)
    oracle_ok = selftest.run() == []
    metrics, notes, tally, tracer, config = workloads.run(
        args.workload, data, args.seconds, bool(args.trace)
    )
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "config": config,
    }
    print("env " + json.dumps(env, sort_keys=True))
    if tracer is not None:
        traces = os.path.join(ROOT, ".roadbench", "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans  written to {os.path.relpath(path, ROOT)}")
        print(f"tracing overhead {metrics['trace.overhead_pct'][0]:+.2f}% "
              f"(traced vs untraced rounds, time per batched query)")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name:32s} {value:14.6f} {unit}")
    print(f"ops    attempted {tally.attempted} failed {tally.failed}")
    for reason in tally.reasons:
        print(f"failed {reason}")
    if not oracle_ok:
        print("oracle self-test failed: answers were not checked reliably")
    result = {
        "correct": oracle_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    refuse_overrides()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
