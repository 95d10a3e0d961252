/** google-benchmark microbenchmarks of the simulators themselves
 *  (built against the bundled minibench harness by default; see
 *  bench/minibench/benchmark/benchmark.h). */
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "compiler/codegen.hh"
#include "core/machines.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "ideal/ideal.hh"
#include "net/opn_load.hh"
#include "obs/obs.hh"
#include "pred/predictors.hh"
#include "risc/wirtorisc.hh"
#include "trips/predecode.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"
using namespace trips;

// BM_FuncSim is the historical name tracked in BENCH_simspeed.json
// baselines: autocor compile + functional run.
static void BM_FuncSim(benchmark::State &state) {
    const auto &w = workloads::find("autocor");
    for (auto _ : state) {
        auto r = core::runTrips(w, compiler::Options::compiled(), false);
        benchmark::DoNotOptimize(r.retVal);
    }
}
BENCHMARK(BM_FuncSim)->Unit(benchmark::kMillisecond);

static void BM_CycleSim(benchmark::State &state) {
    const auto &w = workloads::find("a2time");
    for (auto _ : state) {
        auto r = core::runTrips(w, compiler::Options::compiled(), true);
        benchmark::DoNotOptimize(r.uarch.cycles);
    }
}
BENCHMARK(BM_CycleSim)->Unit(benchmark::kMillisecond);

// The observability pair: identical CycleSim-only bodies, one with
// the full observer set attached (trace + metrics + stalls), one
// detached. The detached run is the null-sink fast path — its cost
// relative to the pre-instrumentation BM_CycleSim is recorded (and
// gated < 2%) in the BENCH_simspeed.json baselines; the traced run
// shows what full tracing costs when you actually ask for it.
namespace {

struct ObsBenchFixture {
    wir::Module mod;
    isa::Program prog;

    ObsBenchFixture()
        : prog((workloads::find("a2time").build(mod),
                compiler::compileToTrips(mod,
                                         compiler::Options::compiled())))
    {}

    u64 run(bool observed) {
        obs::TraceSink sink;
        obs::MetricRegistry metrics;
        obs::StallCollector stalls;
        obs::CoreObs co;
        co.trace = &sink;
        co.metrics = &metrics;
        co.stalls = &stalls;
        co.samplePeriod = 4096;
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        uarch::CycleSim sim(prog, mem);
        if (observed)
            sim.attachObs(&co);
        auto r = sim.run();
        benchmark::DoNotOptimize(sink.events());
        return r.cycles;
    }
};

} // namespace

static void BM_CycleSim_untraced(benchmark::State &state) {
    ObsBenchFixture fx;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.run(false));
}
BENCHMARK(BM_CycleSim_untraced)->Unit(benchmark::kMillisecond);

static void BM_CycleSim_traced(benchmark::State &state) {
    ObsBenchFixture fx;
    for (auto _ : state)
        benchmark::DoNotOptimize(fx.run(true));
}
BENCHMARK(BM_CycleSim_traced)->Unit(benchmark::kMillisecond);

// CycleSim alone over the programs of perfbench's `figures` pool: the
// registry rows that take under ~250 ms each, compiled preset, plus the
// hand preset for Simple workloads. Compiles and global images are
// made once, outside the timed loop; an iteration copies each image
// and runs every program once. The ns_per_cycle counter is host time
// per simulated cycle over the timed loop, so this separates CycleSim
// from the compile and RISC time that share a perfbench op with it.
namespace {

struct FiguresPool {
    struct Entry {
        isa::Program prog;
        MemImage image;
    };
    std::vector<Entry> entries;

    FiguresPool() {
        for (const char *n :
             {"vadd", "ct", "802.11a", "8b10b", "a2time", "rspeed", "ospf",
              "routelookup", "conven", "fbital", "fft", "crafty", "mesa",
              "wupwise", "axpy", "axpy_unroll", "dot", "dot_unroll",
              "gemv", "gemv_tiled", "matmul", "matmul_tiled",
              "matmul_tiled_unroll"}) {
            const workloads::Workload &w = workloads::find(n);
            wir::Module mod;
            w.build(mod);
            std::vector<compiler::Options> presets{
                compiler::Options::compiled()};
            if (w.isSimple)
                presets.push_back(compiler::Options::hand());
            for (const compiler::Options &o : presets) {
                Entry e{compiler::compileToTrips(mod, o), MemImage{}};
                wir::Interp::loadGlobals(mod, e.image);
                entries.push_back(std::move(e));
            }
        }
    }
};

} // namespace

static void BM_CycleSimPool(benchmark::State &state) {
    static const FiguresPool pool;
    u64 cycles = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        for (const FiguresPool::Entry &e : pool.entries) {
            MemImage mem = e.image;
            uarch::CycleSim sim(e.prog, mem);
            cycles += sim.run().cycles;
        }
    }
    const std::chrono::duration<double, std::nano> spent =
        std::chrono::steady_clock::now() - t0;
    state.counters["ns_per_cycle"] =
        cycles ? spent.count() / static_cast<double>(cycles) : 0.0;
}
BENCHMARK(BM_CycleSimPool)->Unit(benchmark::kMillisecond);

// Observed FuncSim runs over the programs of perfbench's `observed`
// pool (compiled preset), with the two observer sets of its rows: the
// Fig. 7 next-block predictors H and I, then the Fig. 10 ideal
// machines at 1K/8cy and 128K/0cy. Compiles and global images are made
// once, outside the timed loop; an iteration copies each image once
// per observer set. The ns_per_block counter is host time per
// committed block over the timed loop.
namespace {

struct ObservedPool {
    struct Entry {
        isa::Program prog;
        MemImage image;
    };
    std::vector<Entry> entries;

    ObservedPool() {
        for (const char *n :
             {"vadd", "ct", "802.11a", "8b10b", "a2time", "rspeed", "ospf",
              "routelookup", "conven", "fbital", "fft", "crafty", "twolf",
              "vortex", "vpr", "mesa", "wupwise"}) {
            wir::Module mod;
            workloads::find(n).build(mod);
            Entry e{compiler::compileToTrips(mod,
                                             compiler::Options::compiled()),
                    MemImage{}};
            wir::Interp::loadGlobals(mod, e.image);
            entries.push_back(std::move(e));
        }
    }
};

/** Replays committed blocks into a next-block predictor (Fig. 7). */
class NbpObserver : public sim::BlockObserver {
  public:
    explicit NbpObserver(const pred::NextBlockConfig &cfg) : nbp(cfg) {}
    void onBlockCommit(const isa::Block &b,
                       const sim::BlockRecord &rec) override {
        if (rec.halts)
            return;
        pred::BranchKind kind =
            rec.isCall ? pred::BranchKind::Call
          : rec.isRet ? pred::BranchKind::Ret : pred::BranchKind::Branch;
        u32 push = rec.isCall
            ? static_cast<u32>(b.insts[rec.branchInst].returnBlock) : 0;
        nbp.update(rec.blockIdx, rec.exitTaken, rec.nextBlock, kind,
                   push);
    }
    pred::NextBlockPredictor nbp;
};

} // namespace

static void BM_ObservedPool(benchmark::State &state) {
    static const ObservedPool pool;
    ideal::IdealConfig huge;
    huge.dispatchCost = 0;
    huge.windowInsts = 128 * 1024;
    u64 blocks = 0, sink = 0;
    auto run = [&](const ObservedPool::Entry &e,
                   std::initializer_list<sim::BlockObserver *> obs) {
        MemImage mem = e.image;
        sim::FuncSim fs(e.prog, mem);
        for (sim::BlockObserver *o : obs)
            fs.addObserver(o);
        blocks += fs.run().stats.blocks;
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (auto _ : state) {
        for (const ObservedPool::Entry &e : pool.entries) {
            NbpObserver h(pred::NextBlockConfig::prototype());
            NbpObserver imp(pred::NextBlockConfig::improved());
            run(e, {&h, &imp});
            ideal::IdealSim i1{ideal::IdealConfig{}}, i2{huge};
            run(e, {&i1, &i2});
            sink += h.nbp.stats().mispredictions +
                    imp.nbp.stats().mispredictions +
                    i1.result().makespan + i2.result().makespan;
        }
    }
    const std::chrono::duration<double, std::nano> spent =
        std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(sink);
    state.counters["ns_per_block"] =
        blocks ? spent.count() / static_cast<double>(blocks) : 0.0;
}
BENCHMARK(BM_ObservedPool)->Unit(benchmark::kMillisecond);

// The serial/parallel ChipSim pair drives the multicore CI perf gate:
// same 4-core mix, lockstep reference vs the relaxed-quantum engine.
// Programs are compiled once; each iteration gets fresh memory images
// and a fresh chip. On a 1-core host the parallel engine only pays
// its barrier overhead — the recorded speedup is meaningful on 8+
// hardware threads (where CI runs the >=1.5x gate).
namespace {

struct ChipMixFixture {
    std::vector<wir::Module> mods;
    std::vector<isa::Program> progs;

    ChipMixFixture() {
        const char *names[] = {"vadd", "ct", "autocor", "8b10b"};
        for (const char *n : names) {
            mods.emplace_back();
            workloads::find(n).build(mods.back());
            progs.push_back(compiler::compileToTrips(
                mods.back(), compiler::Options::compiled()));
        }
    }

    u64 run(uarch::ChipEngine engine) {
        uarch::ChipConfig ccfg;
        ccfg.numCores = static_cast<unsigned>(progs.size());
        ccfg.engine = engine;
        std::vector<MemImage> mems(progs.size());
        std::vector<uarch::ChipJob> jobs(progs.size());
        for (size_t i = 0; i < progs.size(); ++i) {
            wir::Interp::loadGlobals(mods[i], mems[i]);
            jobs[i] = {&progs[i], &mems[i]};
        }
        uarch::ChipSim chip(jobs, ccfg);
        return chip.run().cycles;
    }
};

ChipMixFixture &chipMix() {
    static ChipMixFixture f;
    return f;
}

} // namespace

static void BM_ChipSim_serial(benchmark::State &state) {
    auto &f = chipMix();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.run(uarch::ChipEngine::Serial));
}
BENCHMARK(BM_ChipSim_serial)->Unit(benchmark::kMillisecond);

static void BM_ChipSim_parallel(benchmark::State &state) {
    auto &f = chipMix();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.run(uarch::ChipEngine::Parallel));
}
BENCHMARK(BM_ChipSim_parallel)->Unit(benchmark::kMillisecond);

// The bare OPN router on the Opn.ModerateLoadGolden load
// (net/opn_load.hh). The offered stream, retries included, is recorded
// once up front, so the timed loop is only inject + tick: whole-run
// A/B pairs on a shared host differ by more than a router change
// moves them, while one stream replayed in one process sizes the
// router alone. One iteration is 100K ticks, so ms/iteration x 10 is
// ns per tick.
namespace {

struct OpnStream {
    static constexpr Cycle TICKS = 100'000;
    std::vector<net::OpnPacket> offers;
    std::vector<u32> perTick;

    OpnStream() {
        struct Recorder {
            net::OpnNetwork &opn;
            std::vector<net::OpnPacket> &log;
            bool inject(const net::OpnPacket &p, Cycle now) {
                log.push_back(p);
                return opn.inject(p, now);
            }
        };
        net::OpnNetwork opn;
        net::OpnLoad load(0x5eed0f1a);
        Recorder rec{opn, offers};
        for (Cycle t = 1; t <= TICKS; ++t) {
            size_t before = offers.size();
            load.inject(rec, t);
            perTick.push_back(static_cast<u32>(offers.size() - before));
            opn.tick(t);
        }
    }
};

} // namespace

static void BM_OpnRouter(benchmark::State &state) {
    static const OpnStream stream;
    u64 delivered = 0;
    for (auto _ : state) {
        net::OpnNetwork opn;
        size_t next = 0;
        for (Cycle t = 1; t <= OpnStream::TICKS; ++t) {
            for (u32 k = 0; k < stream.perTick[t - 1]; ++k)
                opn.inject(stream.offers[next++], t);
            opn.tick(t);
            delivered += opn.delivered().size();
        }
    }
    benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_OpnRouter)->Unit(benchmark::kMillisecond);

// Generated programs of the fuzz flow's shape: the first 64 of seed
// base 0xc0de, generated once, outside any timed loop.
static const std::vector<wir::Module> &
fuzzModules()
{
    static const std::vector<wir::Module> mods = [] {
        std::vector<wir::Module> v;
        for (u64 i = 0; i < 64; ++i)
            v.push_back(harness::generate(harness::taskSeed(0xc0de, i)));
        return v;
    }();
    return mods;
}

// The compiler alone on the fuzz programs, each compiled under both
// presets per iteration.
static void BM_CompileFuzz(benchmark::State &state) {
    const std::vector<wir::Module> &mods = fuzzModules();
    u64 blocks = 0;
    for (auto _ : state) {
        for (const wir::Module &m : mods) {
            blocks += compiler::compileToTrips(
                          m, compiler::Options::compiled()).numBlocks();
            blocks += compiler::compileToTrips(
                          m, compiler::Options::hand()).numBlocks();
        }
    }
    benchmark::DoNotOptimize(blocks);
}
BENCHMARK(BM_CompileFuzz)->Unit(benchmark::kMillisecond);

// FuncSim's block decoder alone: every block of the fuzz programs'
// compiled-preset code decoded once per iteration (compiles happen
// once, outside the loop).
static void BM_DecodeFuzz(benchmark::State &state) {
    static const std::vector<isa::Program> progs = [] {
        std::vector<isa::Program> v;
        for (const wir::Module &m : fuzzModules())
            v.push_back(
                compiler::compileToTrips(m, compiler::Options::compiled()));
        return v;
    }();
    u64 insts = 0;
    for (auto _ : state) {
        for (const isa::Program &p : progs) {
            for (u32 b = 0; b < p.numBlocks(); ++b)
                insts += sim::decodeBlock(p.block(b)).n;
        }
    }
    benchmark::DoNotOptimize(insts);
}
BENCHMARK(BM_DecodeFuzz)->Unit(benchmark::kMillisecond);

// The RISC baseline compiler alone on the fuzz programs, under the gcc
// and icc presets per iteration.
static void BM_CompileRiscFuzz(benchmark::State &state) {
    const std::vector<wir::Module> &mods = fuzzModules();
    u64 insts = 0;
    for (auto _ : state) {
        for (const wir::Module &m : mods) {
            insts += risc::compileToRisc(m, risc::RiscOptions::gcc())
                         .code.size();
            insts += risc::compileToRisc(m, risc::RiscOptions::icc())
                         .code.size();
        }
    }
    benchmark::DoNotOptimize(insts);
}
BENCHMARK(BM_CompileRiscFuzz)->Unit(benchmark::kMillisecond);

static void BM_OooModel(benchmark::State &state) {
    const auto &w = workloads::find("rspeed");
    for (auto _ : state) {
        auto r = core::runPlatform(w, ooo::OooConfig::core2(),
                                   risc::RiscOptions::gcc());
        benchmark::DoNotOptimize(r.cycles);
    }
}
BENCHMARK(BM_OooModel)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
