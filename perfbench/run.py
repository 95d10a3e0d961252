#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload figures|fuzz|observed|chip4 \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark package (perfbench/CMakeLists.txt, Release) is built into
.bench_build/perfbench under the repository root; the first run pays
for the build. The last line of standard output is the JSON result.
Build output goes to .bench_build/perfbench-build.log.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_BASE = ROOT / ".bench_build"
BUILD_DIR = BUILD_BASE / "perfbench"
OUT_DIR = BUILD_BASE / "perfbench-out"
LOG = BUILD_BASE / "perfbench-build.log"
WORKLOADS = ["figures", "fuzz", "observed", "chip4"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cached_source_dir():
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1].strip()
    return None


def build(targets):
    if not (ROOT / "CMakeLists.txt").exists() or not (
            ROOT / "src" / "core" / "machines.hh").exists():
        fail(f"no simulator sources next to {HERE}", 2)
    cached = cached_source_dir()
    if cached is not None and Path(cached).resolve() != HERE:
        shutil.rmtree(BUILD_DIR)
    BUILD_BASE.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if cached_source_dir() is None:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *targets])
    with open(LOG, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=850)
            if r.returncode != 0:
                fail(f"build step failed ({' '.join(cmd)}); see {LOG}")


def run_workload(args):
    build(["perfbench"])
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=175)
    if r.returncode != 0:
        fail(f"benchmark exited with {r.returncode}", r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(r.stdout)
    return 0


def check_benchmark_json():
    """BENCHMARK.json against its format rules and the binary's metric
    table."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
    listed = subprocess.run([str(BUILD_DIR / "perfbench"), "--list-metrics"],
                            stdout=subprocess.PIPE, text=True,
                            check=True).stdout.split("\n")
    table = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        table[kind].append((name, unit))
    for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
        got = [(m["name"], m["unit"]) for m in spec[kind]]
        if got != table[kind]:
            problems.append(f"{kind} differs from perfbench --list-metrics")
        if not 1 <= len(got) <= limit:
            problems.append(f"{kind}: {len(got)} metrics")
        for m in spec[kind]:
            want = {"name", "unit", "better"} | (
                {"bound"} if kind == "end_to_end" else set())
            if set(m) != want or m["better"] not in ("higher", "lower"):
                problems.append(f"{kind} entry {m}")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or malformed")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("workloads differ from run.py")
    return problems


def selftest():
    build(["perfbench", "perfbench_tests"])
    r = subprocess.run([str(BUILD_DIR / "perfbench_tests")], cwd=ROOT)
    problems = check_benchmark_json()
    for p in problems:
        print(f"BENCHMARK.json: {p}")
    if not problems:
        print("BENCHMARK.json matches the metric table")
    return 1 if r.returncode or problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
