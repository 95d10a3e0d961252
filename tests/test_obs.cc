/**
 * @file
 * Observability subsystem tests (obs/, DESIGN.md §12):
 *
 *  - The master property: attaching a TraceSink / MetricRegistry /
 *    StallCollector never changes simulation results. Every
 *    UarchResult field (fieldDiff) is bit-identical traced vs
 *    untraced, across the fixed workload matrix and a bounded fuzz
 *    slice, and every ChipResult field on a multi-core mix under both
 *    the serial and parallel chip engines.
 *  - Stall attribution is a partition: the per-category breakdown
 *    sums to total cycles, per-block rows sum to the chip total.
 *  - Trace files satisfy the Chrome trace-event schema (validateJson
 *    positive and negative cases), block spans count commits, and a
 *    traced parallel run writes byte-identical files run-to-run.
 *  - Metric export: JSONL/CSV rows only carry the scalars registered
 *    when the snapshot was taken (short-row regression), histograms
 *    export nearest-rank percentiles.
 *  - Distribution percentile pins (exact nearest-rank values).
 *  - ProgressMeter counting and QuarantineLedger / Campaign trace
 *    instants.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/codegen.hh"
#include "harness/fuzzgen.hh"
#include "harness/guard.hh"
#include "obs/obs.hh"
#include "obs/progress.hh"
#include "sim/campaign.hh"
#include "support/error.hh"
#include "support/fields.hh"
#include "testutil.hh"
#include "uarch/chip_sim.hh"
#include "wir/builder.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;
namespace fs = std::filesystem;
using wir::FunctionBuilder;
using wir::MemWidth;
using wir::Module;

namespace {

std::string
scratch(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

size_t
countSub(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Solo run of a compiled module; obs may be null (the baseline). */
uarch::UarchResult
runSoloObserved(const isa::Program &prog, const Module &mod,
                obs::CoreObs *co)
{
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    uarch::CycleSim sim(prog, mem);
    if (co)
        sim.attachObs(co);
    return sim.run();
}

/** Strided store/load walk over a buffer: L1D-streaming, L2-heavy. */
void
buildMemStress(Module &mod, i64 stride, int iters)
{
    Addr buf = mod.addGlobal("buf", 192 * 1024);
    FunctionBuilder fb(mod, "main", 0);
    auto base = fb.iconst(static_cast<i64>(buf));
    auto i = fb.iconst(0);
    auto acc = fb.iconst(0);
    fb.label("loop");
    auto slot = fb.add(
        base, fb.shli(fb.andi(fb.mul(i, fb.iconst(stride)), 24575), 3));
    fb.store(slot, fb.add(i, acc), 0, MemWidth::B8);
    fb.assign(acc, fb.bxor(acc, fb.load(slot, 0, MemWidth::B8)));
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(iters)), "loop", "done");
    fb.label("done");
    fb.ret(acc);
    fb.finish();
}

} // namespace

// ---------------------------------------------------------------------
// Distribution percentiles (support/stats.hh): nearest-rank pins.
// ---------------------------------------------------------------------

TEST(Percentiles, NearestRankExactValues)
{
    Distribution d(16);
    for (u64 v = 1; v <= 10; ++v)
        d.sample(v);
    // N=10: rank(50)=5 -> value 5, rank(90)=9 -> 9, rank(99)=ceil(9.9)=10.
    EXPECT_EQ(d.p50(), 5u);
    EXPECT_EQ(d.p90(), 9u);
    EXPECT_EQ(d.p99(), 10u);
    EXPECT_EQ(d.percentile(100), 10u);
    EXPECT_EQ(d.percentile(10), 1u);
}

TEST(Percentiles, WeightedSkewAndTail)
{
    Distribution d(8);
    d.sample(2, 97);
    d.sample(7, 3);
    // N=100: ranks 50 and 90 land in the mass at 2; rank 99 reaches
    // the tail at 7.
    EXPECT_EQ(d.p50(), 2u);
    EXPECT_EQ(d.p90(), 2u);
    EXPECT_EQ(d.p99(), 7u);
}

TEST(Percentiles, EmptyAndClamped)
{
    Distribution e(8);
    EXPECT_EQ(e.p50(), 0u);
    EXPECT_EQ(e.p99(), 0u);

    // Clamped samples report the last bucket index, matching sample().
    Distribution c(4);
    c.sample(100);
    EXPECT_EQ(c.p50(), 3u);
    EXPECT_EQ(c.p99(), 3u);
}

// ---------------------------------------------------------------------
// Trace schema: writer output validates; the checker rejects breakage.
// ---------------------------------------------------------------------

TEST(TraceSink, WrittenFileValidates)
{
    obs::TraceSink sink;
    sink.setProcessName(0, "core 0");
    sink.setThreadName(0, 1, "frame 1");
    sink.complete(0, 1, 100, 25, "blk", "block", "insts", 12);
    sink.instant(0, 100, 110, "load", "mem", "bank", 3, "hops", 2);
    sink.counter(0, 120, "bank_conflict_cycles", "cycles", 7);
    EXPECT_EQ(sink.events(), 3u);

    std::string path = scratch("tripsim_obs_trace.json");
    ASSERT_TRUE(sink.writeFile(path));
    std::string err;
    EXPECT_TRUE(obs::TraceSink::validateFile(path, &err)) << err;

    std::string text = slurp(path);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"dur\":25"), std::string::npos);
    EXPECT_NE(text.find("\"bank\":3"), std::string::npos);
    fs::remove(path);
}

TEST(TraceSink, ValidatorRejectsMalformedTraces)
{
    std::string err;
    EXPECT_FALSE(obs::TraceSink::validateJson("not json", &err));
    EXPECT_FALSE(obs::TraceSink::validateJson("{}", &err));
    EXPECT_FALSE(obs::TraceSink::validateJson("[1,2]", &err));
    // Event missing a required key (pid).
    EXPECT_FALSE(obs::TraceSink::validateJson(
        R"({"traceEvents":[{"name":"x","ph":"i","ts":0}]})", &err));
    EXPECT_NE(err.find("required key"), std::string::npos) << err;
    // 'X' span without dur.
    EXPECT_FALSE(obs::TraceSink::validateJson(
        R"({"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":0}]})",
        &err));
    EXPECT_NE(err.find("dur"), std::string::npos) << err;
    // Trailing garbage after the top-level object.
    EXPECT_FALSE(obs::TraceSink::validateJson(
        R"({"traceEvents":[]} extra)", &err));

    EXPECT_TRUE(obs::TraceSink::validateJson(
        R"({"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":0}]})",
        &err)) << err;
    EXPECT_TRUE(obs::TraceSink::validateJson(
        R"({"traceEvents":[],"displayTimeUnit":"ms"})", &err)) << err;
}

// ---------------------------------------------------------------------
// Metric registry export: rows carry the scalars registered at
// snapshot time (short-row regression), histograms export percentiles.
// ---------------------------------------------------------------------

TEST(MetricRegistry, ExportToleratesLateRegistrations)
{
    obs::MetricRegistry reg;
    auto a = reg.addCounter("a.count");
    reg.inc(a, 3);
    reg.snapshot(10);           // row 1: only "a.count" exists yet
    auto b = reg.addGauge("b.gauge");
    reg.set(b, 5);
    reg.snapshot(20);           // row 2: both
    auto h = reg.addHistogram("c.hist", 16);
    for (u64 v = 1; v <= 10; ++v)
        reg.sampleHist(h, v);

    std::string jl = scratch("tripsim_obs_metrics.jsonl");
    ASSERT_TRUE(reg.writeJsonl(jl));
    std::ifstream in(jl);
    std::string l1, l2, l3, extra;
    ASSERT_TRUE(std::getline(in, l1));
    ASSERT_TRUE(std::getline(in, l2));
    ASSERT_TRUE(std::getline(in, l3));
    EXPECT_FALSE(std::getline(in, extra));
    // Row 1 predates b.gauge and must not claim a value for it.
    EXPECT_EQ(l1, "{\"cycle\":10,\"metrics\":{\"a.count\":3}}");
    EXPECT_EQ(l2,
              "{\"cycle\":20,\"metrics\":{\"a.count\":3,\"b.gauge\":5}}");
    // Final line: every metric, histograms as nearest-rank summary.
    EXPECT_EQ(l3.substr(0, 9), "{\"final\":");
    EXPECT_NE(l3.find("\"c.hist\":{\"samples\":10,"), std::string::npos)
        << l3;
    EXPECT_NE(l3.find("\"p50\":5,\"p90\":9,\"p99\":10"),
              std::string::npos) << l3;
    fs::remove(jl);

    std::string csv = scratch("tripsim_obs_metrics.csv");
    ASSERT_TRUE(reg.writeCsv(csv));
    std::string text = slurp(csv);
    EXPECT_EQ(text, "cycle,a.count,b.gauge\n10,3\n20,3,5\n");
    fs::remove(csv);

    EXPECT_EQ(reg.find("a.count"), a);
    EXPECT_EQ(reg.find("nope"), obs::MetricRegistry::NO_METRIC);
    EXPECT_EQ(reg.value(a), 3.0);
    EXPECT_EQ(reg.histogram(h).p99(), 10u);
}

// ---------------------------------------------------------------------
// The master property, solo: observers never change results; stall
// attribution partitions the run's cycles; block spans count commits.
// ---------------------------------------------------------------------

TEST(ObsSolo, TracedRunBitIdenticalAndStallsPartitionCycles)
{
    Module mod;
    buildMemStress(mod, 97, 2000);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());

    auto base = runSoloObserved(prog, mod, nullptr);

    obs::TraceSink sink;
    obs::MetricRegistry metrics;
    obs::StallCollector stalls;
    obs::CoreObs co;
    co.trace = &sink;
    co.metrics = &metrics;
    co.stalls = &stalls;
    co.samplePeriod = 1024;
    auto traced = runSoloObserved(prog, mod, &co);

    EXPECT_EQ(fieldDiff(traced, base), "");

    // Stall attribution is a partition of the run's cycles.
    EXPECT_EQ(stalls.total(), traced.cycles);
    EXPECT_EQ(stalls.count(obs::StallCat::Commit),
              traced.blocksCommitted);
    u64 catSum = 0;
    for (size_t c = 0; c < obs::STALL_NUM_CATS; ++c)
        catSum += stalls.count(static_cast<obs::StallCat>(c));
    EXPECT_EQ(catSum, stalls.total());
    // Per-block rows cover every cycle that had an oldest in-flight
    // block; only empty-window fetch cycles go unattributed.
    u64 blockSum = 0;
    for (const auto &row : stalls.perBlock())
        blockSum += row.total();
    EXPECT_LE(blockSum, stalls.total());
    EXPECT_LE(stalls.total() - blockSum,
              stalls.count(obs::StallCat::Fetch));

    // One fetch->commit span per committed block; flush instants for
    // the flushed ones; a valid file overall.
    std::string path = scratch("tripsim_obs_solo.json");
    ASSERT_TRUE(sink.writeFile(path));
    std::string err;
    EXPECT_TRUE(obs::TraceSink::validateFile(path, &err)) << err;
    std::string text = slurp(path);
    EXPECT_EQ(countSub(text, "\"cat\":\"block\",\"ph\":\"X\""),
              traced.blocksCommitted);
    // Flush instants are per squashed *frame*: one flush event can
    // squash several frames, or none (no younger block in flight), so
    // only mispredict-free runs pin the count exactly.
    if (traced.blocksFlushed) {
        EXPECT_GT(countSub(text, "\"name\":\"flush\""), 0u);
    }
    // Every uncore access (misses, writebacks) left a mem instant.
    EXPECT_GT(countSub(text, "\"cat\":\"mem\",\"ph\":\"i\""), 0u);
    fs::remove(path);

    // Metric terminal values agree with the result.
    auto id = metrics.find("core0.uarch.blocks_committed");
    ASSERT_NE(id, obs::MetricRegistry::NO_METRIC);
    EXPECT_EQ(metrics.value(id),
              static_cast<double>(traced.blocksCommitted));
}

// ---------------------------------------------------------------------
// The master property across the workload matrix (bounded by default,
// every entry under TRIPSIM_SLOW_TESTS).
// ---------------------------------------------------------------------

TEST(ObsSolo, WorkloadMatrixBitIdentical)
{
    struct Entry
    {
        const char *name;
        bool hand;
    };
    static const Entry all[] = {
        {"vadd", true},    {"matrix", true},  {"a2time", false},
        {"autocor", false}, {"fft", false},   {"gcc", false},
    };
    size_t n = testutil::slowScale(3, std::size(all));
    for (size_t i = 0; i < n; ++i) {
        const auto &e = all[i];
        const auto &w = workloads::find(e.name);
        auto opts = e.hand ? compiler::Options::hand()
                           : compiler::Options::compiled();
        Module mod;
        w.build(mod);
        auto prog = compiler::compileToTrips(mod, opts);

        auto base = runSoloObserved(prog, mod, nullptr);

        obs::TraceSink sink;
        obs::StallCollector stalls;
        obs::CoreObs co;
        co.trace = &sink;
        co.stalls = &stalls;
        SCOPED_TRACE(e.name);
        auto traced = runSoloObserved(prog, mod, &co);
        EXPECT_EQ(fieldDiff(traced, base), "");
        EXPECT_EQ(stalls.total(), traced.cycles);
    }
}

// ---------------------------------------------------------------------
// The master property on generated programs: a fuzz slice, traced vs
// untraced (bounded prefix by default, a longer run under slow).
// ---------------------------------------------------------------------

TEST(ObsSolo, FuzzSliceBitIdentical)
{
    u64 n = testutil::slowScale(6, 48);
    for (u64 seed = 1; seed <= n; ++seed) {
        Module mod = harness::generate(seed);
        auto prog = compiler::compileToTrips(
            mod, compiler::Options::compiled());

        auto base = runSoloObserved(prog, mod, nullptr);

        obs::TraceSink sink;
        obs::StallCollector stalls;
        obs::CoreObs co;
        co.trace = &sink;
        co.stalls = &stalls;
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto traced = runSoloObserved(prog, mod, &co);
        EXPECT_EQ(fieldDiff(traced, base), "");
        EXPECT_EQ(stalls.total(), traced.cycles);
    }
}

// ---------------------------------------------------------------------
// Chip mode: observers never change a contended multi-core run, under
// either engine; traced parallel runs write byte-identical files.
// ---------------------------------------------------------------------

namespace {

struct ChipModules
{
    std::vector<std::unique_ptr<Module>> mods;
    std::vector<isa::Program> progs;
};

ChipModules
buildStressMix(std::initializer_list<i64> strides, int iters)
{
    ChipModules m;
    for (i64 s : strides) {
        m.mods.push_back(std::make_unique<Module>());
        buildMemStress(*m.mods.back(), s, iters);
    }
    for (auto &mod : m.mods)
        m.progs.push_back(compiler::compileToTrips(
            *mod, compiler::Options::compiled()));
    return m;
}

uarch::ChipResult
runChipObserved(const ChipModules &m, const uarch::ChipConfig &cfg,
                obs::ChipObs *obs)
{
    std::vector<std::unique_ptr<MemImage>> mems;
    std::vector<uarch::ChipJob> jobs;
    for (size_t i = 0; i < m.mods.size(); ++i) {
        mems.push_back(std::make_unique<MemImage>());
        wir::Interp::loadGlobals(*m.mods[i], *mems.back());
        jobs.push_back({&m.progs[i], mems.back().get()});
    }
    uarch::ChipSim chip(jobs, cfg);
    if (obs)
        chip.attachObs(*obs);
    return chip.run();
}

} // namespace

TEST(ObsChip, SerialAndParallelBitIdenticalTracedVsUntraced)
{
    auto m = buildStressMix({97, 193}, 1500);

    for (bool parallel : {false, true}) {
        uarch::ChipConfig cfg;
        cfg.numCores = 2;
        if (parallel) {
            cfg.engine = uarch::ChipEngine::Parallel;
            cfg.quantum = 256;
        }
        SCOPED_TRACE(parallel ? "parallel" : "serial");

        auto base = runChipObserved(m, cfg, nullptr);

        obs::TraceSink sink;
        obs::ChipObs obs(2, &sink, /*metrics=*/true,
                         /*sample_period=*/2048, /*stalls=*/true);
        auto traced = runChipObserved(m, cfg, &obs);

        EXPECT_EQ(fieldDiff(traced, base), "");

        // Per-core stall partition, and the chip-level merge.
        u64 cycleSum = 0;
        for (size_t i = 0; i < traced.cores.size(); ++i) {
            EXPECT_EQ(obs.stalls(static_cast<unsigned>(i))->total(),
                      traced.cores[i].cycles);
            cycleSum += traced.cores[i].cycles;
        }
        EXPECT_EQ(obs.mergedStalls().total(), cycleSum);

        EXPECT_GT(sink.events(), 0u);
    }
}

TEST(ObsChip, ParallelTraceBytesAreScheduleIndependent)
{
    auto m = buildStressMix({97, 193}, 1200);
    uarch::ChipConfig cfg;
    cfg.numCores = 2;
    cfg.engine = uarch::ChipEngine::Parallel;
    cfg.quantum = 256;

    std::string p1 = scratch("tripsim_obs_par1.json");
    std::string p2 = scratch("tripsim_obs_par2.json");
    for (const std::string &p : {p1, p2}) {
        obs::TraceSink sink;
        obs::ChipObs obs(2, &sink, false, 0, false);
        runChipObserved(m, cfg, &obs);
        ASSERT_TRUE(sink.writeFile(p));
    }
    std::string t1 = slurp(p1), t2 = slurp(p2);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t2);
    // Engine rows made it in: quantum spans and barrier replays.
    EXPECT_GT(countSub(t1, "\"name\":\"quantum\""), 0u);
    EXPECT_GT(countSub(t1, "\"name\":\"barrier\""), 0u);
    std::string err;
    EXPECT_TRUE(obs::TraceSink::validateFile(p1, &err)) << err;
    fs::remove(p1);
    fs::remove(p2);
}

// ---------------------------------------------------------------------
// Harness observability: progress heartbeat, ledger + campaign trace
// instants.
// ---------------------------------------------------------------------

TEST(ProgressMeter, CountsAndDisabledIsSilent)
{
    obs::ProgressMeter pm(10, /*enabled=*/false);
    for (int i = 0; i < 7; ++i)
        pm.tick(static_cast<u64>(i));
    EXPECT_EQ(pm.done(), 7u);
    pm.finish(0);  // disabled: no output, no crash

    obs::ProgressMeter on(2, /*enabled=*/true, /*interval_ms=*/0);
    on.tick(0);
    on.tick(1);
    EXPECT_EQ(on.done(), 2u);
    on.finish(1);
}

TEST(QuarantineLedger, EmitsTraceInstants)
{
    std::string path = scratch("tripsim_obs_ledger.jsonl");
    harness::QuarantineLedger ledger(path);
    obs::TraceSink sink;
    ledger.attachTrace(&sink);

    ledger.record(3, "funcs=1",
                  makeStatus(ErrCode::Timeout, Subsys::Harness, "t"),
                  "repro");
    ledger.record(4, "funcs=2",
                  makeStatus(ErrCode::Internal, Subsys::Sim, "m"),
                  "repro");
    EXPECT_EQ(ledger.entries(), 2u);

    std::string tf = scratch("tripsim_obs_ledger_trace.json");
    ASSERT_TRUE(sink.writeFile(tf));
    std::string text = slurp(tf);
    EXPECT_EQ(countSub(text, "\"cat\":\"guard\""), 2u);
    EXPECT_NE(text.find("\"name\":\"quarantine timeout\""),
              std::string::npos) << text;
    EXPECT_NE(text.find("\"seq\":1"), std::string::npos);
    EXPECT_NE(text.find("\"seq\":2"), std::string::npos);
    fs::remove(tf);
    fs::remove(path);
}

TEST(Campaign, EmitsCacheHitAndMissInstants)
{
    std::string dir = scratch("tripsim_obs_campaign");
    fs::remove_all(dir);
    sim::Campaign campaign(dir);
    obs::TraceSink sink;
    campaign.attachTrace(&sink);

    const auto &w = workloads::find("vadd");
    auto r1 = campaign.runTrips(w, compiler::Options::hand(), true);
    auto r2 = campaign.runTrips(w, compiler::Options::hand(), true);
    EXPECT_EQ(r1.uarch.retVal, r2.uarch.retVal);
    EXPECT_EQ(r1.uarch.cycles, r2.uarch.cycles);

    std::string tf = scratch("tripsim_obs_campaign_trace.json");
    ASSERT_TRUE(sink.writeFile(tf));
    std::string text = slurp(tf);
    EXPECT_EQ(countSub(text, "\"name\":\"cache miss\""), 1u);
    EXPECT_EQ(countSub(text, "\"name\":\"cache hit\""), 1u);
    EXPECT_EQ(countSub(text, "\"cat\":\"campaign\""), 2u);
    fs::remove(tf);
    fs::remove_all(dir);
}
