/**
 * @file
 * The repository benchmark: four closed-loop flows over the simulator
 * stack (figures, fuzz, observed, chip4), each timed end to end with
 * tracing off, plus a traced pass that spans every public layer call
 * inside each op and reports a per-layer breakdown.
 *
 * One op at a time, one client: an op starts only after the previous
 * one returned. Inputs come from the workload seed only. Every op is
 * checked against the golden WIR interpreter; a mismatch, a fuel
 * exhaustion or a thrown TripsError counts the op as failed.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <string>
#include <vector>

#include "support/common.hh"

namespace perfbench {

using trips::i64;
using trips::u32;
using trips::u64;

enum class Flow { Figures, Fuzz, Observed, Chip4 };

/** Parse a workload name; false if unknown. */
bool parseFlow(const std::string &name, Flow &out);
const char *flowName(Flow f);

struct RunOptions
{
    Flow flow = Flow::Fuzz;
    u64 seed = 1;
    double seconds = 10;
    /** false: end-to-end metrics from one untraced pass. true: an
     *  untraced and a traced pass of seconds/2 each, per-layer metrics
     *  from the traced one. */
    bool trace = false;
    /** Stop after exactly this many ops per pass (0 = time-bound).
     *  The self-tests use it to run a fixed, small amount of work. */
    u64 maxOps = 0;
    /** Test hook: corrupt one model's retVal in op N (-1 = off). */
    i64 injectWrongRetValAtOp = -1;
    /** Where the traced pass writes its Perfetto JSON files. */
    std::string outDir = ".bench_build/perfbench-out";
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

struct RunReport
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<Metric> metrics;
    /** Simulated-statistics digest of the (traced, in trace mode)
     *  pass: identical for every run with the same workload and seed,
     *  traced or not. */
    std::string digest;
    /** Human-readable context lines printed before the result. */
    std::vector<std::string> notes;
};

/** Run one benchmark invocation. */
RunReport runBenchmark(const RunOptions &opts);

/** The result object: {"correct", "attempted", "failed", "metrics"}. */
std::string reportJson(const RunReport &r);

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Reported with --trace 0, in output order. */
const std::vector<MetricDef> &endToEndMetrics();
/** Reported with --trace 1, in output order. */
const std::vector<MetricDef> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
