/**
 * @file
 * The benchmark's own tests (no framework dependency): the metric
 * table obeys the BENCHMARK.json grammar, a wrong retVal counts as a
 * failed op, traced and untraced passes produce the same simulated
 * digest, and a recorded uncore log replays to the same completion
 * cycles. Run: perfbench_tests (exit status 0 = all passed).
 */

#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "compiler/codegen.hh"
#include "probes.hh"
#include "uarch/cycle_sim.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace perfbench;

namespace {

int failures = 0;

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

/** BENCHMARK.json's name grammar: a letter or digit first, then at
 *  most 63 more letters, digits, '_', '.' or '-'. */
bool
legalMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    for (char c : name)
        if (!isAlnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

/** Units: 1..16 letters, digits, '_', '/', '%', '.' or '-'. */
bool
legalUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!isAlnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
            c != '-')
            return false;
    return true;
}

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::printf("    CHECK failed at %s:%d: %s\n", __FILE__,   \
                        __LINE__, #cond);                              \
            ++failures;                                                \
        }                                                              \
    } while (0)

RunOptions
quick(Flow f, u64 ops, bool trace)
{
    RunOptions o;
    o.flow = f;
    o.seed = 7;
    o.trace = trace;
    o.maxOps = ops;
    o.outDir = ".bench_build/perfbench-test-out";
    return o;
}

std::vector<std::string>
names(const std::vector<Metric> &ms)
{
    std::vector<std::string> v;
    for (const auto &m : ms)
        v.push_back(m.name);
    return v;
}

std::vector<std::string>
names(const std::vector<MetricDef> &ds)
{
    std::vector<std::string> v;
    for (const auto &d : ds)
        v.push_back(d.name);
    return v;
}

void
metricTableIsLegal()
{
    CHECK(!endToEndMetrics().empty() && endToEndMetrics().size() <= 16);
    CHECK(!perLayerMetrics().empty() && perLayerMetrics().size() <= 128);
    std::set<std::string> seen;
    bool hasSetup = false;
    for (const auto *table : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const auto &m : *table) {
            CHECK(legalMetricName(m.name));
            CHECK(legalUnit(m.unit));
            CHECK(seen.insert(m.name).second);
            hasSetup |= std::string(m.name) == "setup_s" &&
                        std::string(m.unit) == "s";
        }
    }
    CHECK(hasSetup);
    CHECK(!legalMetricName("_x") && !legalMetricName("a b") &&
          !legalMetricName(std::string(65, 'a')));
    CHECK(!legalUnit("") && !legalUnit("m s") &&
          !legalUnit(std::string(17, 'a')));
}

void
reportsExactlyTheTable()
{
    RunReport e2e = runBenchmark(quick(Flow::Fuzz, 3, false));
    CHECK(names(e2e.metrics) == names(endToEndMetrics()));
    RunReport layer = runBenchmark(quick(Flow::Fuzz, 3, true));
    CHECK(names(layer.metrics) == names(perLayerMetrics()));
    CHECK(e2e.correct && layer.correct);
    CHECK(reportJson(e2e).rfind("{\"correct\": true, \"attempted\": 3,", 0) ==
          0);
}

void
wrongRetValIsAFailedOp()
{
    for (Flow f : {Flow::Fuzz, Flow::Figures}) {
        RunOptions o = quick(f, 3, false);
        o.injectWrongRetValAtOp = 1;
        RunReport r = runBenchmark(o);
        CHECK(r.attempted == 3);
        CHECK(r.failed == 1);
        CHECK(!r.correct);
    }
}

void
tracedDigestEqualsUntraced()
{
    for (auto [f, ops] : {std::pair{Flow::Fuzz, u64{24}},
                          std::pair{Flow::Figures, u64{4}},
                          std::pair{Flow::Observed, u64{4}},
                          std::pair{Flow::Chip4, u64{1}}}) {
        RunReport plain = runBenchmark(quick(f, ops, false));
        RunReport traced = runBenchmark(quick(f, ops, true));
        CHECK(plain.correct && traced.correct);
        CHECK(plain.failed == 0 && traced.failed == 0);
        CHECK(!plain.digest.empty());
        CHECK(plain.digest == traced.digest);
        if (plain.digest != traced.digest)
            std::printf("    %s: %s vs %s\n", flowName(f),
                        plain.digest.c_str(), traced.digest.c_str());
    }
}

void
uncoreReplayReproducesCompletions()
{
    namespace tr = trips;
    tr::wir::Module mod;
    tr::workloads::find("vadd").build(mod);
    auto prog =
        tr::compiler::compileToTrips(mod, tr::compiler::Options::compiled());
    const tr::uarch::UarchConfig cfg;

    tr::MemImage soloMem;
    tr::wir::Interp::loadGlobals(mod, soloMem);
    auto solo = tr::uarch::CycleSim(prog, soloMem, cfg).run();

    tr::mem::MemorySystem ms(tr::uarch::uncoreConfig(cfg, 1));
    std::vector<PortOp> log;
    RecordingPort port(ms, log);
    tr::MemImage mem;
    tr::wir::Interp::loadGlobals(mod, mem);
    auto proxied = tr::uarch::CycleSim(prog, mem, cfg, port, 0).run();

    CHECK(proxied.cycles == solo.cycles);
    CHECK(proxied.retVal == solo.retVal);
    CHECK(!log.empty());
    ReplayResult r = replayLog(log, tr::uarch::uncoreConfig(cfg, 1));
    CHECK(r.accesses > 0);
    CHECK(r.mismatches == 0);

    // A perturbed log must be caught.
    for (auto &op : log) {
        if (!op.isNote) {
            ++op.done;
            break;
        }
    }
    CHECK(replayLog(log, tr::uarch::uncoreConfig(cfg, 1)).mismatches == 1);
}

} // namespace

int
main()
{
    const std::vector<std::pair<const char *, std::function<void()>>> tests{
        {"metricTableIsLegal", metricTableIsLegal},
        {"reportsExactlyTheTable", reportsExactlyTheTable},
        {"wrongRetValIsAFailedOp", wrongRetValIsAFailedOp},
        {"tracedDigestEqualsUntraced", tracedDigestEqualsUntraced},
        {"uncoreReplayReproducesCompletions",
         uncoreReplayReproducesCompletions},
    };
    for (const auto &[name, fn] : tests) {
        int before = failures;
        std::printf("[ RUN  ] %s\n", name);
        fn();
        std::printf("[ %s ] %s\n", failures == before ? " OK " : "FAIL",
                    name);
    }
    std::printf("%s\n", failures ? "FAILED" : "all perfbench tests passed");
    return failures ? 1 : 0;
}
