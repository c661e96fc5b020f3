#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workloads apps-warm,respecialize --seeds 1-10 --seconds 20

For every workload and metric it prints the median of the runs and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of that median. Exits non-zero if a run failed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, type=seeds)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                  flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            print(f"  {workload:14s} {name:20s} median={med:.6g} spread={spread:.3f} n={len(vals)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
