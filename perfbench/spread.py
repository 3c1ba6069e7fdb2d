#!/usr/bin/env python3
"""Run one workload of the benchmark on several seeds and report, for each
end-to-end metric, its median and its spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median.

    python3 perfbench/spread.py --workload corpus-compose --seeds 1-10 \
        [--seconds 25]

Run it from the repository root; it runs the command in BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="25")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        base = json.load(f)["command"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed",
                  file=sys.stderr)
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{name:28s} median {med:14.6g}  spread {spread}")


if __name__ == "__main__":
    main()
