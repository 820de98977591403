#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solo-mix --seed 1 --seconds 10 --trace 0

Workloads: ``solo-mix``, ``stream-fanout``, ``compile-suite`` (see
README.md).  ``--trace 0`` prints the end-to-end metrics of an untraced
run; ``--trace 1`` prints the per-layer metrics of a traced run.  The
second-to-last line of standard output is a JSON record with the run's
provenance and details; the last line is the result::

    {"correct": true, "attempted": 207, "failed": 0, "metrics": {...}}

Run it from the root of a source checkout: it imports ``repro`` from
``src/`` and exits non-zero, printing no result, where that is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solo-mix", "stream-fanout", "compile-suite")


def _source_digest() -> str:
    """SHA-256 over the package sources (a checkout need not be a git
    repository, so this names the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics a run prints, in ``BENCHMARK.json``'s
    order: the per-layer ones when traced, else the end-to-end ones."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    trace = bool(args.trace)
    if args.workload == "compile-suite":
        from perfbench.suite import run_suite

        outcome = run_suite(args.seed, args.seconds, trace)
    else:
        from perfbench.serving import run_serve

        outcome = run_serve(ROOT, args.workload, args.seed, args.seconds, trace)

    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in metric_units(trace).items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "correct": outcome.correct,
        "metrics": metrics,
        "details": outcome.details,
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
