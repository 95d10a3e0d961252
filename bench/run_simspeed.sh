#!/usr/bin/env bash
# Run the simulator-speed microbenchmarks and (re)generate
# BENCH_simspeed.json at the repository root.
#
# The numbers are only meaningful from an optimized build, so this
# script configures/builds the build directory itself as Release and
# refuses to record anything else: the recorded context's
# `library_build_type` is the build type of the *tripsim library* (the
# code being measured) taken from CMakeCache.txt, and the run aborts
# if it is debug. The harness's own build type (the JSON context's
# original `library_build_type`, preserved under
# `benchmark_harness_build_type`) must also be release: a debug
# harness inflates the measured loop overhead around the library
# calls. The default bundled minibench harness (bench/minibench/,
# TRIPSIM_BUNDLED_BENCH_HARNESS=ON) compiles with the library's flags
# so this holds automatically; distro libbenchmark packages ship
# without NDEBUG and are rejected here.
#
# Usage: bench/run_simspeed.sh [build-dir] [extra google-benchmark args]
# Example: bench/run_simspeed.sh build --benchmark_repetitions=3
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                  "$build_dir/CMakeCache.txt")"
case "$build_type" in
    Release|RelWithDebInfo) ;;
    *)
        echo "error: $build_dir is configured as" \
             "'${build_type:-<unset>}', not Release; benchmark numbers" \
             "from an unoptimized tripsim library are meaningless." >&2
        echo "  cmake -B $build_dir -S $repo_root" \
             "-DCMAKE_BUILD_TYPE=Release" >&2
        exit 1
        ;;
esac

cmake --build "$build_dir" --target bench_simspeed -j

bench_bin="$build_dir/bench_simspeed"
raw_json="$(mktemp)"
trap 'rm -f "$raw_json"' EXIT

"$bench_bin" \
    --benchmark_out="$raw_json" \
    --benchmark_out_format=json \
    "$@"

TRIPSIM_BUILD_TYPE="$build_type" \
python3 - "$raw_json" "$repo_root/BENCH_simspeed.json" <<'EOF'
import json, os, sys

raw = json.load(open(sys.argv[1]))
build_type = os.environ["TRIPSIM_BUILD_TYPE"].lower()
if build_type not in ("release", "relwithdebinfo"):
    sys.exit("refusing to record: tripsim library_build_type is '%s'"
             % build_type)
context = raw.get("context", {})
# library_build_type describes the measured library (tripsim); the
# harness package's own build type is kept under a distinct key.
context["benchmark_harness_build_type"] = \
    context.get("library_build_type", "unknown")
context["library_build_type"] = build_type
if context["benchmark_harness_build_type"] != "release":
    sys.exit("refusing to record: benchmark harness built as '%s', not"
             " release; rebuild with TRIPSIM_BUNDLED_BENCH_HARNESS=ON"
             " (default) or a release google-benchmark"
             % context["benchmark_harness_build_type"])
out = {
    "description": "tripsim simulator-speed microbenchmarks "
                   "(bench/bench_simspeed.cc); regenerate with "
                   "bench/run_simspeed.sh",
    "context": context,
    "benchmarks": [
        {k: b[k] for k in
         ("name", "iterations", "real_time", "cpu_time", "time_unit",
          "ns_per_cycle")
         if k in b}
        for b in raw.get("benchmarks", [])
    ],
}
# Historical annotations (recorded baselines of past optimization PRs)
# and the sweep-engine section (written by bench/run_sweep.sh) survive
# regeneration.
if os.path.exists(sys.argv[2]):
    try:
        prev = json.load(open(sys.argv[2]))
        for key in ("baselines", "sweep"):
            if key in prev:
                out[key] = prev[key]
    except (ValueError, OSError):
        pass
json.dump(out, open(sys.argv[2], "w"), indent=2)
print("wrote", sys.argv[2])
EOF
