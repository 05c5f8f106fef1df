#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json on each workload with several seeds and,
for every end-to-end metric, prints the median of the per-run values and
their spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Also prints the bench.calib_s drift the runs reported.

    python3 farbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the repository root. Raw results go to farbench/out/spread.jsonl.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs("farbench/out", exist_ok=True)
    log = open("farbench/out/spread.jsonl", "a")
    ok = True
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        calib = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - started
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(lines[-1])
            m = re.search(r"bench.calib_s: ([0-9.]+) s at start, ([0-9.]+) s at end", out.stdout)
            run_calib = [float(m.group(1)), float(m.group(2))] if m else []
            calib += run_calib
            log.write(json.dumps({"workload": name, "seed": seed, "wall_s": wall, "calib_s": run_calib,
                                  "result": result, "stderr": out.stderr}) + "\n")
            log.flush()
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<22}{'median':>12}{'spread':>9}{'bound':>7}")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<22}{'missing':>12}")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            flag = "" if spread <= m["bound"] / 3 or m["name"] == "setup_s" else "  > bound/3"
            print(f"  {m['name']:<22}{statistics.median(v):>12.4f}{spread:>9.3f}{m['bound']:>7}{flag}")
        if calib:
            print(f"  bench.calib_s {min(calib):.4f}..{max(calib):.4f} s "
                  f"(drift {(max(calib) - min(calib)) / statistics.median(calib):.3f})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
