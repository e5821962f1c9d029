"""Traced and untraced runs of every workload, with the tracing overhead.

    python3 bench/trace.py [--seed 1] [--seconds 30]

For each workload, runs the benchmark once untraced and once traced (same
seed, same length) and writes to bench/out/:

* ``spans-<workload>-seed<seed>.jsonl``: every span of the traced run;
* ``layers-<workload>.json``: the per-layer metrics;
* ``trace-summary.json``: per workload, untraced and traced ``verdict_s``
  and their difference, the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    summary = {}
    for workload in run.inputs.WORKLOADS:
        plain = run.run(workload, args.seed, args.seconds, trace=False)
        traced = run.run(workload, args.seed, args.seconds, trace=True)
        layers = {k: v["value"] for k, v in traced["line"]["metrics"].items()}
        (run.OUT / f"layers-{workload}.json").write_text(json.dumps(layers, indent=1) + "\n")
        untraced_v, traced_v = plain["detail"]["verdict_s"], traced["detail"]["verdict_s"]
        summary[workload] = {
            "seed": args.seed,
            "untraced_verdict_s": untraced_v,
            "traced_verdict_s": traced_v,
            "overhead_s": traced_v - untraced_v,
            "overhead_share": (traced_v - untraced_v) / untraced_v,
            "correct": plain["line"]["correct"] and traced["line"]["correct"],
        }
        print(f"{workload}: verdict_s untraced {untraced_v:.4f} traced {traced_v:.4f} "
              f"overhead {traced_v - untraced_v:+.4f} s", flush=True)
        for name, value in layers.items():
            if value:
                print(f"  {name:50s} {value:.6g}")
    (run.OUT / "trace-summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
