"""Repeat the benchmark and print each end-to-end metric's spread.

    python3 bench/spread.py [--workloads suite,window-norms] [--runs 10]
                            [--first-seed 1] [--seconds 30]

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...) on each
workload and prints, per metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (Q3 - Q1) / median,
and the bound from BENCHMARK.json; ``ok`` means the spread is below a third of
the bound.  It also prints the failed share, which must be the same in every
run, the spread ``verdict_s`` would have if each check's median over its
passes were summed instead of its minimum, and the spreads of the timings
before the host-speed scale.  The full table goes to
bench/out/spread-<workloads>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        lines, medians_sum, details = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            out = proc.stdout.strip().splitlines()
            detail, line = json.loads(out[-2]), json.loads(out[-1])
            if not line["correct"]:
                print(proc.stderr, file=sys.stderr)
            lines.append(line)
            details.append(detail)
            medians_sum.append(detail["host_scale"] * sum(
                statistics.median(s) for s in detail["samples_s"].values()))
            print(f"{workload} seed {seed}: passes {detail['passes']} "
                  + " ".join(f"{k}={v['value']:.5g} {v['unit']}" for k, v in line["metrics"].items())
                  + f" failed {line['failed']}/{line['attempted']} correct {line['correct']}",
                  flush=True)
        rows = {}
        for name in bounds:
            rows[name] = spread([ln["metrics"][name]["value"] for ln in lines])
            rows[name]["bound"] = bounds[name]
        rows["verdict_s(sum of per-check medians)"] = spread(medians_sum)
        for name in details[0]["raw"]:
            rows[f"{name}(unscaled)"] = spread([d["raw"][name] for d in details])
        table[workload] = {
            "metrics": rows,
            "failed_share": sorted({ln["failed"] / ln["attempted"] for ln in lines}),
            "all_correct": all(ln["correct"] for ln in lines),
        }
        print(f"\n{workload}: failed share {table[workload]['failed_share']}, "
              f"all correct {table[workload]['all_correct']}")
        for name, r in rows.items():
            bound = r.get("bound")
            flag = "" if bound is None else ("ok" if r["spread"] < bound / 3 else "WIDE")
            print(f"  {name:40s} median {r['median']:.6g}  q1 {r['q1']:.6g}  q3 {r['q3']:.6g}"
                  f"  spread {r['spread']:.4f}  bound {bound}  {flag}")
        print(flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    path = BENCH / "out" / f"spread-{args.workloads.replace(',', '+')}.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
