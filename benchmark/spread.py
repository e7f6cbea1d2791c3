#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (interquartile range as a share of the
median), against the bounds in BENCHMARK.json.

Run from the repository root:

    python3 benchmark/spread.py --workload query --seeds 1-5
    python3 benchmark/spread.py --workload all --seeds 1-10 --out runs.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures = [l for l in lines if "CHECK FAILED" in l or "failed" in l]
        sys.stderr.write("\n".join(failures[:20]) + "\n" + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--out", help="write every result object here as JSON")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    seeds = parse_seeds(args.seeds)
    record = {}
    worst = 0.0
    for name in names:
        results = [run_once(bench, name, s) for s in seeds]
        record[name] = results
        print(f"== {name}: seeds {seeds[0]}..{seeds[-1]}, all correct: "
              f"{all(r['correct'] for r in results)}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            ratio = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            print(f"  {m['name']:18s} median {med:12.4f} {m['unit']:4s} spread {spread:7.4f} "
                  f"bound {m['bound']:.2f} ({ratio:.2f} of bound)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
