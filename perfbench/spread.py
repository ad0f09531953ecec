#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and
spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload adhoc_cold --seeds 1-5 --seconds 10 [--trace 1]

Builds nothing: it runs `perfbench` from the cargo target directory
(`CARGO_TARGET_DIR`, else `perfbench/target`), so build it first with
`cargo build --release --manifest-path perfbench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range a-b")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "perfbench")
    runs = []
    for seed in range(lo, hi + 1):
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':40} {'median':>12} {'spread':>8}")
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:40} {med:12.5g} {spread:8.3f}")


if __name__ == "__main__":
    main()
