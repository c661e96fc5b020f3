#!/usr/bin/env python3
"""Runs the repository benchmark.

    python3 perfbench/run.py --workload apps-warm --seed 1 --seconds 20 --trace 0

Builds perfbench_driver and its self-test from the checkout's sources (the
first run configures and compiles; later runs rebuild incrementally), runs the
self-test, then runs one workload. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Build output,
results with provenance, traces and scratch space live under the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the checkout).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("apps-warm", "respecialize", "serve-promote")
# Beyond the measured seconds of each pass, a pass spends up to this long on
# its three set-ups, layer probes and cache-dir cleanup.
PASS_ALLOWANCE_S = 55
# Settings the stack reads from the environment; the benchmark measures its
# defaults, so none may leak in from the caller.
STACK_ENV = ("VGPU_TIER", "VGPU_WORKERS", "KSPEC_NATIVE_SHAPE", "KSPEC_NATIVE_CXX")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"{what} failed")


def build(build_dir):
    if not (ROOT / "src" / "kcc" / "compiler.cpp").is_file():
        fail("kspec sources (src/) not found next to perfbench/")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure")
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", str(build_dir), "-j", jobs], "build")
    run_quiet([str(build_dir / "perfbench_selftest")], "self-test")


def tree_digest():
    """A digest of the sources the driver is built from: the code version."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit(tree):
    """The git commit, or the source digest when the checkout has no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "tree:" + tree


def build_dir_for_checkout():
    """$CARGO_TARGET_DIR/perfbench. A relative target lies inside the checkout;
    an absolute one may be shared by several checkouts, so each gets its own
    subdirectory there (a build directory compiles the checkout that
    configured it)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        return ROOT / target / "perfbench"
    return target / ("perfbench-" + hashlib.sha256(str(ROOT).encode()).hexdigest()[:12])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = build_dir_for_checkout()
    build(build_dir)
    tree = tree_digest()

    for sub in ("tmp", "results", "traces"):
        (build_dir / sub).mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in STACK_ENV}
    env["TMPDIR"] = str(build_dir / "tmp")  # native-tier scratch stays in the checkout
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(build_dir / "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir / "work" / args.workload),
           # Exact quantities must agree between runs of one code version; a
           # new version starts a fresh ledger.
           "--ledger", str(build_dir / f"ledger-{args.workload}-{tree}.tsv"),
           "--trace-out", str(build_dir / "traces" / f"{tag}.json"),
           "--results", str(build_dir / "results" / f"{tag}.json"),
           "--commit", commit(tree)]
    passes = 1 + args.trace  # a traced run measures untraced, then traced
    timeout_s = passes * (args.seconds + PASS_ALLOWANCE_S)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout_s,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"the driver did not finish within {timeout_s:.0f} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode == 0:
        check_metrics(proc.stdout, "per_layer" if args.trace else "end_to_end")
    sys.exit(proc.returncode)


def check_metrics(stdout, kind):
    """Fails unless the result names exactly the metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec[kind]}
    lines = stdout.strip().splitlines()
    got = json.loads(lines[-1])["metrics"] if lines else {}
    have = {name: m["unit"] for name, m in got.items()}
    if have != want:
        fail(f"the driver's metrics do not match BENCHMARK.json's {kind} list")


if __name__ == "__main__":
    main()
