#!/usr/bin/env python3
"""The repository benchmark: one seeded workload, measured and checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_chain_open --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload half untraced and half traced and
reports the per-layer metrics instead.  Every answer is checked against
an in-process reference.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``perfbench details ...``) carries the tail percentile and
sample count, the failure breakdown by cause and any notes.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("serve_chain_open", "serve_magnitude_closed",
             "serve_cached_repeat", "sweep_hybrid")

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("answers_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("correct_share", "share", "higher"),
    ("exact_share", "share", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run it from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    if args.trace:
        outcome = workloads.trace_workload(args.workload, args.seed,
                                           args.seconds)
        table = [(name, unit, outcome.layers.get(name, 0.0))
                 for name, unit, _ in layers.PER_LAYER]
    else:
        outcome = workloads.measure_workload(args.workload, args.seed,
                                             args.seconds)
        values = outcome.end_to_end()
        table = [(name, unit, values[name]) for name, unit, _ in END_TO_END]
    wrong = outcome.causes.get("wrong", 0)
    for name, unit, value in table:
        print(f"{name:44s} {value:14.6g} {unit}", file=sys.stderr)
    print("perfbench details " + json.dumps(
        {"workload": args.workload, "seed": args.seed,
         **outcome.details()}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.attempted - outcome.ok,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
