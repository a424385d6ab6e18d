#!/usr/bin/env python3
"""Spread of every end-to-end metric over runs with different seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --seconds 40 --seeds 1-10 paper_bs10 tiny_mix serve_mix

Builds the benchmark, runs each workload once per seed (seeds in the
outer loop, so host phases fall on every workload alike), and prints,
per workload and metric, the median, the interquartile range as a share
of the median (quartiles as `statistics.quantiles(values, n=4)` gives
them) and the metric's bound from BENCHMARK.json. `--json FILE` also
writes every run's metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "cortex-perfbench")

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            start = time.time()
            out = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed} failed:\n{out.stdout}")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append({"seed": seed, "wall_s": time.time() - start, "metrics": values})
            print(f"{w:10s} seed {seed:<8d} {time.time() - start:5.1f}s "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    print()
    print(f"{'workload':10s} {'metric':16s} {'median':>12s} {'iqr/median':>10s} {'bound':>6s}")
    for w, rs in runs.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
            print(f"{w:10s} {name:16s} {med:12.6g} {spread:10.4f} {bound:6.2f}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
