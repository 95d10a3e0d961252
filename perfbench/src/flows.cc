/**
 * @file
 * The four benchmark flows, the closed-loop pass runner, and the
 * metric assembly. Every call into a layer goes through a Scope named
 * after that layer, so the traced pass can attribute host time; the
 * untraced pass runs the identical code with the tracer disabled.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "compiler/codegen.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "ideal/ideal.hh"
#include "obs/obs.hh"
#include "probes.hh"
#include "risc/core.hh"
#include "risc/wirtorisc.hh"
#include "support/error.hh"
#include "tracer.hh"
#include "uarch/chip_sim.hh"
#include "uarch/cycle_sim.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace compiler = trips::compiler;
namespace harness = trips::harness;
namespace ideal = trips::ideal;
namespace isa = trips::isa;
namespace mem = trips::mem;
namespace obs = trips::obs;
namespace risc = trips::risc;
namespace sim = trips::sim;
namespace uarch = trips::uarch;
namespace wir = trips::wir;
namespace workloads = trips::workloads;
using trips::MemImage;

namespace {

// ---------------------------------------------------------------------
// Per-pass accumulation of layer counts (read by the metric assembly).
// ---------------------------------------------------------------------

constexpr size_t OPN_CLASSES =
    static_cast<size_t>(trips::net::OpnClass::NUM_CLASSES);

struct Acc
{
    u64 ops = 0;

    // Cycle-level cores (solo CycleSim runs and chip cores alike).
    u64 coreCycles = 0;
    u64 committed = 0, flushed = 0, fired = 0;
    u64 opnPackets = 0, bypasses = 0;
    std::array<trips::Distribution, OPN_CLASSES> hops;
    u64 l1dHits = 0, l1dMisses = 0, l1iHits = 0, l1iMisses = 0;
    u64 l2Hits = 0, l2Misses = 0;

    // Uncore (recording port on solo runs, ChipResult on chip4).
    u64 uncoreAccesses = 0, bankConflicts = 0, bankConflictCycles = 0;
    u64 dramRequests = 0, dramRowHits = 0;
    u64 ocnPackets = 0;
    double ocnOccupancyCycles = 0;   ///< occupancy x cycles
    std::vector<std::vector<PortOp>> memLogs;
    u64 memLogOps = 0;

    // Compiler.
    u64 compiles = 0, firstTry = 0, overflowRetries = 0, spillRounds = 0;
    u64 compileBlocks = 0;

    // Functional simulation.
    u64 funcBlocks = 0, decodedFallbacks = 0, observedBlocks = 0;

    /** One observed FuncSim run (for observer self time). */
    struct ObservedRun
    {
        std::string key;
        bool ideal;
        double ns;
    };
    std::vector<ObservedRun> observedRuns;
    std::map<std::string, double> noopNs;   ///< per key, no-op observer

    // Stall attribution (fractions of cycle-level core cycles).
    std::array<u64, obs::STALL_NUM_CATS> stalls{};
    u64 stallTotal = 0;

    // Chip engine.
    u64 chipOps = 0;
    double chipRunNs = 0, chipCpuNs = 0;
    EngineCounts engine;
    double chipSerialNs = 0;

    // Probes.
    ReplayResult replay;
    OpnDriveResult opnDrive;
};

// ---------------------------------------------------------------------
// Simulated-statistics digest.
// ---------------------------------------------------------------------

struct DigestRec
{
    i64 retVal = 0;
    u64 cycles = 0, blocks = 0, opnPackets = 0, l2Hits = 0, l2Misses = 0;
    std::array<u64, 3> extra{};   ///< flow-specific counts

    bool operator==(const DigestRec &) const = default;
};

class Digest
{
  public:
    /** Record op @p key (kept iff @p include). False when the key was
     *  recorded before with different statistics. */
    bool
    add(const std::string &key, const DigestRec &r, bool include)
    {
        auto it = recs.find(key);
        if (it != recs.end())
            return it->second == r;
        if (include)
            recs.emplace(key, r);
        return true;
    }

    std::string
    line() const
    {
        u64 h = 1469598103934665603ULL;
        auto mix = [&h](u64 v) {
            for (int i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xff;
                h *= 1099511628211ULL;
            }
        };
        DigestRec sum;
        for (const auto &[key, r] : recs) {
            for (char c : key)
                mix(static_cast<unsigned char>(c));
            mix(static_cast<u64>(r.retVal));
            for (u64 v : {r.cycles, r.blocks, r.opnPackets, r.l2Hits,
                          r.l2Misses, r.extra[0], r.extra[1], r.extra[2]})
                mix(v);
            sum.cycles += r.cycles;
            sum.blocks += r.blocks;
            sum.opnPackets += r.opnPackets;
            sum.l2Hits += r.l2Hits;
            sum.l2Misses += r.l2Misses;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "ops=%zu cycles=%llu blocks=%llu opn_packets=%llu "
                      "l2_hits=%llu l2_misses=%llu hash=%016llx",
                      recs.size(),
                      static_cast<unsigned long long>(sum.cycles),
                      static_cast<unsigned long long>(sum.blocks),
                      static_cast<unsigned long long>(sum.opnPackets),
                      static_cast<unsigned long long>(sum.l2Hits),
                      static_cast<unsigned long long>(sum.l2Misses),
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::map<std::string, DigestRec> recs;
};

// ---------------------------------------------------------------------
// Op plumbing.
// ---------------------------------------------------------------------

struct Ctx
{
    Tracer &tr;
    Acc &acc;
    bool traced;
    bool corrupt;             ///< test hook: falsify the first retVal
    const std::string &outDir;
};

struct OpOut
{
    std::string key;          ///< digest key ("" = not digested)
    DigestRec rec;
    std::string failure;      ///< "" = op correct
    u64 simCycles = 0;
};

/** Collects the first failure of an op. */
struct Checker
{
    bool corrupt = false;
    std::string why;

    void
    fail(bool cond, const std::string &msg)
    {
        if (cond && why.empty())
            why = msg;
    }

    void
    ret(i64 golden, i64 got, const std::string &who)
    {
        if (corrupt) {
            got ^= 1;
            corrupt = false;
        }
        if (got != golden)
            fail(true, who + " retVal " + std::to_string(got) +
                           " != golden " + std::to_string(golden));
    }
};

/** Golden WIR interpreter run (fresh memory image). */
i64
runGolden(const wir::Module &mod, Ctx &ctx, Checker &ck, MemImage &m)
{
    Scope s(ctx.tr, "wir.interp");
    wir::Interp::loadGlobals(mod, m);
    auto r = wir::Interp{}.run(mod, m);
    ck.fail(r.fuelExhausted, "golden exhausted fuel");
    return r.retVal;
}

/** RISC compile + run (fresh memory image). */
i64
runRisc(const wir::Module &mod, const risc::RiscOptions &o,
        const std::string &who, Ctx &ctx, Checker &ck, MemImage &m)
{
    risc::RProgram p = [&] {
        Scope s(ctx.tr, "risc.compile");
        return risc::compileToRisc(mod, o);
    }();
    Scope s(ctx.tr, "risc.run");
    wir::Interp::loadGlobals(mod, m);
    risc::Core core(p, m);
    i64 rv = core.run();
    ck.fail(core.fuelExhausted(), who + " exhausted fuel");
    return rv;
}

isa::Program
compileTrips(const wir::Module &mod, const compiler::Options &o, Ctx &ctx)
{
    compiler::CompileStats cs;
    isa::Program prog = [&] {
        Scope s(ctx.tr, "compiler.compile");
        return compiler::compileToTrips(mod, o, &cs);
    }();
    Acc &a = ctx.acc;
    ++a.compiles;
    a.firstTry += cs.overflowRetries == 0;
    a.overflowRetries += cs.overflowRetries;
    a.spillRounds += cs.spillRounds;
    a.compileBlocks += cs.blocks;
    return prog;
}

void
accumulateCore(Acc &a, const uarch::UarchResult &u)
{
    a.coreCycles += u.cycles;
    a.committed += u.blocksCommitted;
    a.flushed += u.blocksFlushed;
    a.fired += u.instsFired;
    a.opnPackets += u.opnPackets;
    a.bypasses += u.localBypasses;
    for (size_t c = 0; c < OPN_CLASSES; ++c)
        a.hops[c].merge(u.opnHops[c]);
    a.l1dHits += u.l1dHits;
    a.l1dMisses += u.l1dMisses;
    a.l1iHits += u.l1iHits;
    a.l1iMisses += u.l1iMisses;
    a.l2Hits += u.l2Hits;
    a.l2Misses += u.l2Misses;
}

void
accumulateStalls(Acc &a, const obs::StallCollector &st)
{
    for (size_t c = 0; c < obs::STALL_NUM_CATS; ++c)
        a.stalls[c] += st.count(static_cast<obs::StallCat>(c));
    a.stallTotal += st.total();
}

/** Uncore logs kept for the replay probe (bounded). */
constexpr u64 MAX_LOGGED_PORT_OPS = 4'000'000;

struct TripsOut
{
    sim::FuncResult func;
    bool cycleRan = false;
    uarch::UarchResult u;
    MemImage fmem, cmem;
};

/**
 * compile -> FuncSim -> (optionally) CycleSim, each a separate layer
 * call. Traced, the CycleSim binds a recording uncore port through
 * its chip-core constructor and carries a stall collector; both only
 * observe, so the simulated statistics equal the untraced run's (the
 * digest comparison checks it).
 */
TripsOut
runTripsLayers(const wir::Module &mod, const compiler::Options &o,
               bool cycle, Ctx &ctx)
{
    TripsOut out;
    isa::Program prog = compileTrips(mod, o, ctx);
    {
        Scope s(ctx.tr, "trips.funcsim");
        wir::Interp::loadGlobals(mod, out.fmem);
        sim::FuncSim fs(prog, out.fmem);
        out.func = fs.run();
        ctx.acc.decodedFallbacks += fs.decodedFallbacks();
    }
    ctx.acc.funcBlocks += out.func.stats.blocks;
    if (!cycle || out.func.fuelExhausted)
        return out;

    const uarch::UarchConfig ucfg;
    std::optional<mem::MemorySystem> ms;
    std::vector<PortOp> log;
    std::optional<RecordingPort> port;
    obs::StallCollector stalls;
    obs::CoreObs cobs;
    cobs.stalls = &stalls;
    std::optional<uarch::CycleSim> cs;
    {
        Scope s(ctx.tr, "uarch.construct");
        wir::Interp::loadGlobals(mod, out.cmem);
        if (ctx.traced) {
            ms.emplace(uarch::uncoreConfig(ucfg, 1));
            port.emplace(*ms, log);
            cs.emplace(prog, out.cmem, ucfg, *port, 0u);
            cs->attachObs(&cobs);
        } else {
            cs.emplace(prog, out.cmem, ucfg);
        }
    }
    {
        Scope s(ctx.tr, "uarch.run");
        out.u = cs->run();
    }
    out.cycleRan = true;
    Acc &a = ctx.acc;
    accumulateCore(a, out.u);
    if (ctx.traced) {
        accumulateStalls(a, stalls);
        const auto &st = ms->stats();
        a.uncoreAccesses += st.requests;
        a.bankConflicts += st.bankConflicts;
        a.bankConflictCycles += st.bankConflictCycles;
        a.dramRequests += st.dramRequests;
        a.dramRowHits += st.dramRowHits;
        a.ocnPackets += ms->ocn().stats().totalPackets();
        a.ocnOccupancyCycles +=
            ms->ocn().occupancy(out.u.cycles) *
            static_cast<double>(out.u.cycles);
        if (a.memLogOps + log.size() <= MAX_LOGGED_PORT_OPS) {
            a.memLogOps += log.size();
            a.memLogs.push_back(std::move(log));
        }
    }
    return out;
}

/** Golden-checked TRIPS result (functional + cycle-level). */
void
checkTrips(const TripsOut &t, i64 golden, const std::string &who,
           Checker &ck)
{
    ck.fail(t.func.fuelExhausted, who + "/func exhausted fuel");
    ck.ret(golden, t.func.retVal, who + "/func");
    if (t.cycleRan) {
        ck.fail(t.u.fuelExhausted, who + "/cycle exhausted fuel");
        ck.ret(golden, t.u.retVal, who + "/cycle");
    }
}

void
addCycleStats(DigestRec &rec, const uarch::UarchResult &u)
{
    rec.cycles += u.cycles;
    rec.blocks += u.blocksCommitted;
    rec.opnPackets += u.opnPackets;
    rec.l2Hits += u.l2Hits;
    rec.l2Misses += u.l2Misses;
}

u64
mix64(u64 s)
{
    s += 0x9e3779b97f4a7c15ULL;
    s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9ULL;
    s = (s ^ (s >> 27)) * 0x94d049bb133111ebULL;
    return s ^ (s >> 31);
}

// ---------------------------------------------------------------------
// Flows.
// ---------------------------------------------------------------------

class FlowRunner
{
  public:
    virtual ~FlowRunner() = default;

    /** Everything before the timed loop; repeated for setup_s. */
    virtual void setup() = 0;
    /** Ops per whole pass: time-bound loops stop only at pass ends. */
    virtual u64 passSize() const = 0;
    /** Ops whose statistics enter the digest (a prefix of each pass). */
    virtual u64 digestOps() const = 0;
    /** Minimum ops of a full-length untraced run. */
    virtual u64 minOps() const = 0;
    virtual OpOut runOp(u64 i, Ctx &ctx) = 0;
    /** Flow-specific probes after the traced pass. */
    virtual void afterTracedPass(Acc &) {}
};

/** Whole passes a full-length untraced run makes at least, so every
 *  input of the pool is timed at least this many times. */
constexpr u64 MIN_PASSES = 5;

/** A fixed pool of inputs, visited in a fresh seeded permutation each
 *  pass, so every pass does the same work. */
class PassFlow : public FlowRunner
{
  public:
    PassFlow(u64 seed, size_t size) : seed(seed), order(size) {}

    u64 passSize() const override { return order.size(); }
    u64 digestOps() const override { return order.size(); }
    u64 minOps() const override { return MIN_PASSES * order.size(); }

  protected:
    /** The pool index op @p i visits. */
    size_t
    slot(u64 i)
    {
        const u64 pass = i / order.size();
        if (!orderValid || pass != orderPass) {
            for (size_t k = 0; k < order.size(); ++k)
                order[k] = k;
            u64 s = mix64(seed * 0x100000001b3ULL + pass);
            for (size_t k = order.size(); k > 1; --k) {
                s = mix64(s);
                std::swap(order[k - 1], order[s % k]);
            }
            orderPass = pass;
            orderValid = true;
        }
        return order[i % order.size()];
    }

    u64 seed;

  private:
    std::vector<size_t> order;
    u64 orderPass = 0;
    bool orderValid = false;
};

/** A fixed pool of registry workloads. */
class PooledFlow : public PassFlow
{
  public:
    PooledFlow(u64 seed, const std::vector<const char *> &names)
        : PassFlow(seed, names.size())
    {
        for (const char *n : names)
            pool.push_back(&workloads::find(n));
    }

    /** Build, compile and golden-run the pool (reference retVals). */
    void
    setup() override
    {
        golden.clear();
        for (const auto *w : pool) {
            wir::Module m;
            w->build(m);
            compiler::compileToTrips(m, compiler::Options::compiled());
            MemImage mem;
            wir::Interp::loadGlobals(m, mem);
            auto r = wir::Interp{}.run(m, mem);
            if (r.fuelExhausted)
                throw std::runtime_error("setup: golden fuel on " + w->name);
            golden[w->name] = r.retVal;
        }
    }

  protected:
    const workloads::Workload &pick(u64 i) { return *pool[slot(i)]; }

    std::vector<const workloads::Workload *> pool;
    std::map<std::string, i64> golden;
};

/**
 * figures: one registry workload's figure-matrix row, cold: golden,
 * RISC gcc + icc, and TRIPS compiled (+ hand for Simple workloads)
 * through compile -> FuncSim -> CycleSim. The pool is the registry's
 * rows that take under ~250 ms each (README.md), so a run holds 100+
 * ops.
 */
class FiguresFlow final : public PooledFlow
{
  public:
    explicit FiguresFlow(u64 seed)
        : PooledFlow(seed, {"vadd", "ct", "802.11a", "8b10b", "a2time",
                            "rspeed", "ospf", "routelookup", "conven",
                            "fbital", "fft", "crafty", "mesa", "wupwise",
                            "axpy", "axpy_unroll", "dot", "dot_unroll",
                            "gemv", "gemv_tiled", "matmul", "matmul_tiled",
                            "matmul_tiled_unroll"})
    {}

    OpOut
    runOp(u64 i, Ctx &ctx) override
    {
        const workloads::Workload &w = pick(i);
        Checker ck{ctx.corrupt, ""};
        OpOut out;
        out.key = w.name;
        wir::Module mod;
        {
            Scope s(ctx.tr, "wir.build");
            w.build(mod);
        }
        MemImage gm;
        i64 gold = runGolden(mod, ctx, ck, gm);
        ck.ret(golden.at(w.name), gold, "golden (vs set-up run)");
        for (const auto &[who, o] :
             {std::pair{"risc/gcc", risc::RiscOptions::gcc()},
              std::pair{"risc/icc", risc::RiscOptions::icc()}}) {
            MemImage m;
            ck.ret(gold, runRisc(mod, o, who, ctx, ck, m), who);
        }
        std::vector<std::pair<std::string, compiler::Options>> presets{
            {"trips/compiled", compiler::Options::compiled()}};
        if (w.isSimple)
            presets.push_back({"trips/hand", compiler::Options::hand()});
        for (const auto &[who, o] : presets) {
            TripsOut t = runTripsLayers(mod, o, true, ctx);
            checkTrips(t, gold, who, ck);
            addCycleStats(out.rec, t.u);
            out.simCycles += t.u.cycles;
        }
        out.rec.retVal = gold;
        out.failure = ck.why;
        return out;
    }
};

/**
 * observed: one Simple/SPEC workload's functional observer row: the
 * Fig. 7 next-block predictors (configs H and I) and the Fig. 10
 * ideal machine at 1K/8cy and 128K/0cy, each an observed FuncSim run
 * (the legacy interpreter path). No cycle-level run.
 */
class ObservedFlow final : public PooledFlow
{
  public:
    explicit ObservedFlow(u64 seed)
        : PooledFlow(seed, {"vadd", "ct", "802.11a", "8b10b", "a2time",
                            "rspeed", "ospf", "routelookup", "conven",
                            "fbital", "fft", "crafty", "twolf", "vortex",
                            "vpr", "mesa", "wupwise"})
    {}

    OpOut
    runOp(u64 i, Ctx &ctx) override
    {
        const workloads::Workload &w = pick(i);
        Checker ck{ctx.corrupt, ""};
        OpOut out;
        out.key = w.name;
        wir::Module mod;
        {
            Scope s(ctx.tr, "wir.build");
            w.build(mod);
        }
        isa::Program prog =
            compileTrips(mod, compiler::Options::compiled(), ctx);
        const i64 gold = golden.at(w.name);

        auto observed = [&](std::vector<sim::BlockObserver *> list,
                            bool is_ideal, const char *who) {
            auto t0 = Clock::now();
            sim::FuncResult r;
            {
                Scope s(ctx.tr, "trips.observed");
                MemImage m;
                wir::Interp::loadGlobals(mod, m);
                sim::FuncSim fs(prog, m);
                for (auto *o : list)
                    fs.addObserver(o);
                r = fs.run();
            }
            if (ctx.traced)
                ctx.acc.observedRuns.push_back(
                    {w.name, is_ideal, nsBetween(t0, Clock::now())});
            ctx.acc.observedBlocks += r.stats.blocks;
            ck.fail(r.fuelExhausted, std::string(who) + " exhausted fuel");
            ck.ret(gold, r.retVal, who);
            return r;
        };

        NbpObserver h(trips::pred::NextBlockConfig::prototype());
        NbpObserver imp(trips::pred::NextBlockConfig::improved());
        auto r = observed({&h, &imp}, false, "fig7/H+I");
        ideal::IdealConfig base;
        ideal::IdealConfig huge;
        huge.dispatchCost = 0;
        huge.windowInsts = 128 * 1024;
        ideal::IdealSim i1(base), i2(huge);
        observed({&i1}, true, "ideal/1K-8cy");
        observed({&i2}, true, "ideal/128K-0cy");

        out.rec.retVal = gold;
        out.rec.blocks = r.stats.blocks;
        out.rec.cycles = i1.result().makespan + i2.result().makespan;
        out.rec.extra = {h.nbp.stats().mispredictions,
                         imp.nbp.stats().mispredictions,
                         i1.result().executed};
        out.simCycles = out.rec.cycles;
        out.failure = ck.why;
        return out;
    }

    /** No-op-observer reference per workload, for observer self time. */
    void
    afterTracedPass(Acc &acc) override
    {
        for (const auto &run : acc.observedRuns) {
            if (acc.noopNs.count(run.key))
                continue;
            wir::Module mod;
            workloads::find(run.key).build(mod);
            auto prog =
                compiler::compileToTrips(mod, compiler::Options::compiled());
            std::vector<double> ns;
            for (int rep = 0; rep < 3; ++rep) {
                MemImage m;
                wir::Interp::loadGlobals(mod, m);
                NoopObserver noop;
                auto t0 = Clock::now();
                sim::FuncSim fs(prog, m);
                fs.addObserver(&noop);
                fs.run();
                ns.push_back(nsBetween(t0, Clock::now()));
            }
            std::sort(ns.begin(), ns.end());
            acc.noopNs[run.key] = ns[1];
        }
    }
};

/**
 * fuzz: one generated program (harness::generate, default shape)
 * through all six models as harness::diffOne does: golden, RISC gcc +
 * icc, TRIPS compiled FuncSim + CycleSim, TRIPS hand FuncSim, with
 * retVal and data-segment checks against golden. The pool is the
 * seed's first PROGRAMS generated programs; each is regenerated on
 * every visit.
 */
class FuzzFlow final : public PassFlow
{
  public:
    static constexpr u64 PROGRAMS = 256;

    explicit FuzzFlow(u64 seed) : PassFlow(seed, PROGRAMS) {}

    /** Warm-up on 64 fixed programs (the same for every seed, so
     *  setup_s does not move with the seed). */
    void
    setup() override
    {
        for (u64 k = 0; k < 64; ++k) {
            wir::Module m = harness::generate(harness::taskSeed(0, k));
            compiler::compileToTrips(m, compiler::Options::compiled());
            MemImage mem;
            wir::Interp::loadGlobals(m, mem);
            wir::Interp{}.run(m, mem);
        }
    }

    OpOut
    runOp(u64 i, Ctx &ctx) override
    {
        const u64 s = harness::taskSeed(seed, slot(i));
        Checker ck{ctx.corrupt, ""};
        OpOut out;
        out.key = std::to_string(s);
        wir::Module mod = [&] {
            Scope sc(ctx.tr, "harness.fuzzgen");
            return harness::generate(s);
        }();
        MemImage gm;
        i64 gold = runGolden(mod, ctx, ck, gm);
        out.rec.retVal = gold;
        if (!ck.why.empty()) {
            out.failure = ck.why;
            return out;
        }
        auto segs = [&](const MemImage &m, const char *who) {
            std::string diff = harness::compareDataSegments(mod, gm, m, who);
            ck.fail(!diff.empty(), diff);
        };
        for (const auto &[who, o] :
             {std::pair{"risc/gcc", risc::RiscOptions::gcc()},
              std::pair{"risc/icc", risc::RiscOptions::icc()}}) {
            MemImage m;
            ck.ret(gold, runRisc(mod, o, who, ctx, ck, m), who);
            segs(m, who);
        }
        TripsOut c = runTripsLayers(mod, compiler::Options::compiled(), true,
                                    ctx);
        checkTrips(c, gold, "trips/compiled", ck);
        segs(c.fmem, "trips/func");
        if (c.cycleRan)
            segs(c.cmem, "trips/cycle");
        addCycleStats(out.rec, c.u);
        out.simCycles = c.u.cycles;
        TripsOut h = runTripsLayers(mod, compiler::Options::hand(), false,
                                    ctx);
        checkTrips(h, gold, "trips/hand", ck);
        segs(h.fmem, "trips/hand");
        out.failure = ck.why;
        return out;
    }
};

/**
 * chip4: one 4-core mix (equake, gcc, mcf, art) under
 * ChipEngine::Parallel at the default quantum, thread cap
 * min(4, nproc). The seed rotates the programs over the cores (which
 * OCN attach point each one gets). Programs are compiled in set-up.
 */
class Chip4Flow final : public FlowRunner
{
  public:
    static constexpr unsigned CORES = 4;

    explicit Chip4Flow(u64 seed) : rot(static_cast<unsigned>(seed % CORES))
    {}

    u64 passSize() const override { return 1; }
    u64 digestOps() const override { return 1; }
    u64 minOps() const override { return MIN_PASSES; }

    void
    setup() override
    {
        static const char *const names[CORES] = {"equake", "gcc", "mcf",
                                                 "art"};
        mods.clear();
        progs.clear();
        golden.clear();
        for (const char *n : names) {
            mods.emplace_back();
            workloads::find(n).build(mods.back());
            progs.push_back(compiler::compileToTrips(
                mods.back(), compiler::Options::compiled()));
            MemImage mem;
            wir::Interp::loadGlobals(mods.back(), mem);
            auto r = wir::Interp{}.run(mods.back(), mem);
            if (r.fuelExhausted)
                throw std::runtime_error(std::string("setup: golden fuel on ") +
                                         n);
            golden.push_back(r.retVal);
        }
    }

    uarch::ChipConfig
    config() const
    {
        uarch::ChipConfig cc;
        cc.numCores = CORES;
        cc.engine = uarch::ChipEngine::Parallel;
        cc.threads =
            std::min(CORES, std::max(1u, std::thread::hardware_concurrency()));
        return cc;
    }

    unsigned progOf(unsigned core) const { return (core + rot) % CORES; }

    OpOut
    runOp(u64 i, Ctx &ctx) override
    {
        (void)i;
        Checker ck{ctx.corrupt, ""};
        OpOut out;
        out.key = "mix-rot" + std::to_string(rot);
        const uarch::ChipConfig cc = config();
        std::vector<MemImage> mems(CORES);
        std::vector<uarch::ChipJob> jobs(CORES);
        std::optional<uarch::ChipSim> chip;
        obs::TraceSink engineTrace;
        std::optional<obs::ChipObs> cobs;
        {
            Scope s(ctx.tr, "chip.construct");
            for (unsigned k = 0; k < CORES; ++k) {
                wir::Interp::loadGlobals(mods[progOf(k)], mems[k]);
                jobs[k] = {&progs[progOf(k)], &mems[k]};
            }
            chip.emplace(jobs, cc);
            if (ctx.traced) {
                // Stall collectors on every core; the sink receives the
                // engine's quantum/barrier/reclone events only.
                cobs.emplace(CORES, &engineTrace, false, 0, true);
                for (unsigned k = 0; k < CORES; ++k)
                    cobs->core(k)->trace = nullptr;
                chip->attachObs(*cobs);
            }
        }
        uarch::ChipResult r;
        const double c0 = cpuNs();
        const auto t0 = Clock::now();
        {
            Scope s(ctx.tr, "chip.run");
            r = chip->run();
        }
        Acc &a = ctx.acc;
        a.chipRunNs += nsBetween(t0, Clock::now());
        a.chipCpuNs += cpuNs() - c0;
        ++a.chipOps;

        for (unsigned k = 0; k < CORES; ++k) {
            const auto &u = r.cores[k];
            const std::string who = "core" + std::to_string(k);
            ck.fail(u.fuelExhausted, who + " exhausted fuel");
            ck.ret(golden[progOf(k)], u.retVal, who);
            accumulateCore(a, u);
            out.rec.retVal = out.rec.retVal * 31 + u.retVal;
            out.rec.blocks += u.blocksCommitted;
            out.rec.opnPackets += u.opnPackets;
            out.simCycles += u.cycles;
        }
        out.rec.cycles = r.cycles;
        out.rec.l2Hits = r.uncore.l2Hits;
        out.rec.l2Misses = r.uncore.l2Misses;
        out.rec.extra = {r.uncore.bankConflicts, r.uncore.requests,
                         r.uncore.dramRowHits};
        if (ctx.traced) {
            accumulateStalls(a, cobs->mergedStalls());
            a.uncoreAccesses += r.uncore.requests;
            a.bankConflicts += r.uncore.bankConflicts;
            a.bankConflictCycles += r.uncore.bankConflictCycles;
            a.dramRequests += r.uncore.dramRequests;
            a.dramRowHits += r.uncore.dramRowHits;
            a.ocnPackets += r.ocn.totalPackets();
            a.ocnOccupancyCycles +=
                r.ocnOccupancy * static_cast<double>(r.cycles);
            const std::string path = ctx.outDir + "/chip4-engine.json";
            ck.fail(!engineTrace.writeFile(path) ||
                        !parseEngineTrace(path, a.engine),
                    "cannot write/read " + path);
        }
        out.failure = ck.why;
        return out;
    }

    /**
     * Serial reference for chip.serial_ms: the lockstep discipline of
     * ChipSim's serial engine, with every core bound to a recording
     * port over one shared uncore. Its log feeds the uncore replay.
     */
    void
    afterTracedPass(Acc &acc) override
    {
        const uarch::ChipConfig cc = config();
        mem::MemorySystem msys(cc.uncore());
        std::vector<PortOp> log;
        std::vector<MemImage> mems(CORES);
        std::vector<std::unique_ptr<RecordingPort>> ports;
        std::vector<std::unique_ptr<uarch::CycleSim>> cores;
        for (unsigned k = 0; k < CORES; ++k) {
            wir::Interp::loadGlobals(mods[progOf(k)], mems[k]);
            ports.push_back(std::make_unique<RecordingPort>(msys, log));
            cores.push_back(std::make_unique<uarch::CycleSim>(
                progs[progOf(k)], mems[k], cc.core, *ports.back(), k));
        }
        auto t0 = Clock::now();
        for (bool any = true; any;) {
            any = false;
            for (auto &c : cores) {
                if (!c->done()) {
                    c->stepCycle();
                    any = true;
                }
            }
        }
        for (auto &c : cores)
            c->finish();
        acc.chipSerialNs = nsBetween(t0, Clock::now());
        acc.replay = replayLog(log, cc.uncore());
    }

  private:
    unsigned rot;
    std::vector<wir::Module> mods;
    std::vector<isa::Program> progs;
    std::vector<i64> golden;
};

std::unique_ptr<FlowRunner>
makeFlow(Flow f, u64 seed)
{
    switch (f) {
      case Flow::Figures: return std::make_unique<FiguresFlow>(seed);
      case Flow::Fuzz: return std::make_unique<FuzzFlow>(seed);
      case Flow::Observed: return std::make_unique<ObservedFlow>(seed);
      case Flow::Chip4: return std::make_unique<Chip4Flow>(seed);
    }
    throw std::logic_error("unknown flow");
}

// ---------------------------------------------------------------------
// The closed loop.
// ---------------------------------------------------------------------

struct PassResult
{
    std::vector<double> opMs;           ///< wall time per op
    std::vector<double> scaledMs;       ///< ... at nominal host speed
    double scaledCpuMs = 0;             ///< summed CPU time, scaled
    std::vector<double> scales;         ///< HostRef factor per op
    u64 simCycles = 0;
    u64 attempted = 0, failed = 0;
    std::vector<std::string> failures;   ///< first few, for the log
    double wallNs = 0;
    Acc acc;
    Digest digest;
};

PassResult
runPass(FlowRunner &f, const RunOptions &o, Tracer &tr, HostRef &ref,
        double seconds, u64 min_ops)
{
    PassResult pr;
    const auto t0 = Clock::now();
    for (u64 i = 0;; ++i) {
        if (o.maxOps) {
            if (i >= o.maxOps)
                break;
        } else if (i % f.passSize() == 0 && i >= min_ops &&
                   nsBetween(t0, Clock::now()) >= seconds * 1e9) {
            break;
        }
        Ctx ctx{tr, pr.acc, tr.enabled(),
                static_cast<i64>(i) == o.injectWrongRetValAtOp, o.outDir};
        tr.beginOp(i);
        OpOut out;
        const double scale = ref.sample();
        const double c = cpuNs();
        const auto a = Clock::now();
        {
            Scope s(tr, "op");
            try {
                out = f.runOp(i, ctx);
            } catch (const trips::TripsError &e) {
                out.failure = std::string("TripsError: ") + e.what();
            }
        }
        const double ms = nsBetween(a, Clock::now()) / 1e6;
        pr.scaledCpuMs += (cpuNs() - c) / 1e6 * scale;
        pr.opMs.push_back(ms);
        pr.scaledMs.push_back(ms * scale);
        pr.scales.push_back(scale);
        pr.simCycles += out.simCycles;
        ++pr.attempted;
        ++pr.acc.ops;
        if (out.failure.empty() && !out.key.empty() &&
            !pr.digest.add(out.key, out.rec, i < f.digestOps()))
            out.failure = "simulated statistics of " + out.key +
                          " differ from an earlier op";
        if (!out.failure.empty()) {
            ++pr.failed;
            if (pr.failures.size() < 5)
                pr.failures.push_back("op " + std::to_string(i) + ": " +
                                      out.failure);
        }
    }
    pr.wallNs = nsBetween(t0, Clock::now());
    return pr;
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

// ---------------------------------------------------------------------
// Metric assembly.
// ---------------------------------------------------------------------

std::vector<Metric>
emit(const std::vector<MetricDef> &defs,
     const std::map<std::string, double> &v)
{
    std::vector<Metric> out;
    for (const auto &d : defs) {
        double x = v.at(d.name);
        out.push_back({d.name, d.unit, std::isfinite(x) ? x : 0});
    }
    return out;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Every time is scaled to the nominal host speed (HostRef). */
std::vector<Metric>
endToEnd(const PassResult &pr, double setup_s)
{
    const double ops = static_cast<double>(std::max<u64>(1, pr.attempted));
    const double scaledS = sum(pr.scaledMs) / 1e3;
    return emit(endToEndMetrics(),
                {{"ops_per_s", ratio(static_cast<double>(pr.attempted),
                                     scaledS)},
                 {"op_ms_p50", percentile(pr.scaledMs, 50)},
                 {"sim_mcycles_per_s",
                  ratio(static_cast<double>(pr.simCycles), scaledS) / 1e6},
                 {"cpu_ms_per_op", pr.scaledCpuMs / ops},
                 {"setup_s", setup_s},
                 {"peak_rss_mb", peakRssMb()}});
}

std::vector<Metric>
perLayer(const PassResult &tp, const Tracer &tr, const PassResult &up,
         double eff_par)
{
    const Acc &a = tp.acc;
    const auto self = tr.selfNs();
    auto ns = [&self](const char *n) {
        auto it = self.find(n);
        return it == self.end() ? 0.0 : it->second;
    };
    const double ops = static_cast<double>(std::max<u64>(1, a.ops));
    const auto total = tr.totalNs();
    const double opNs = total.count("op") ? total.at("op") : 0;
    auto perOpMs = [ops](double x) { return x / ops / 1e6; };
    auto share = [opNs](double x) { return ratio(x, opNs); };
    auto perOp = [ops](u64 x) { return static_cast<double>(x) / ops; };
    auto d = [](u64 x) { return static_cast<double>(x); };

    double idealNs = 0, predNs = 0;
    for (const auto &r : a.observedRuns) {
        auto it = a.noopNs.find(r.key);
        double self_ns = r.ns - (it == a.noopNs.end() ? r.ns : it->second);
        (r.ideal ? idealNs : predNs) += self_ns;
    }
    idealNs = std::max(0.0, idealNs);
    predNs = std::max(0.0, predNs);

    const double cycleLevelNs = ns("uarch.run") + ns("chip.run");
    const double chipOps = static_cast<double>(std::max<u64>(1, a.chipOps));
    const double chipRunMs = a.chipRunNs / chipOps / 1e6;
    const double serialMs = a.chipSerialNs / 1e6;
    auto meanOpMs = [](const PassResult &p) {
        return ratio(sum(p.opMs), static_cast<double>(p.opMs.size()));
    };
    auto stall = [&](obs::StallCat c) {
        return ratio(d(a.stalls[static_cast<size_t>(c)]), d(a.stallTotal));
    };

    std::map<std::string, double> v{
        {"uarch.run_ms", perOpMs(ns("uarch.run"))},
        {"uarch.share", share(ns("uarch.run"))},
        {"uarch.host_ns_per_cycle", ratio(cycleLevelNs, d(a.coreCycles))},
        {"uarch.sim_cycles", perOp(a.coreCycles)},
        {"uarch.blocks_committed", perOp(a.committed)},
        {"uarch.commit_frac", ratio(d(a.committed), d(a.committed + a.flushed))},
        {"uarch.insts_fired", perOp(a.fired)},
        {"uarch.ipc", ratio(d(a.fired), d(a.coreCycles))},
        {"uarch.construct_ms", perOpMs(ns("uarch.construct"))},

        {"net.opn_packets", perOp(a.opnPackets)},
        {"net.opn_packets_per_cycle", ratio(d(a.opnPackets), d(a.coreCycles))},
        {"net.opn_bypass_frac",
         ratio(d(a.bypasses), d(a.opnPackets + a.bypasses))},
        {"net.opn_tick_ns", a.opnDrive.tickNs},
        {"net.opn_ns_per_packet", a.opnDrive.nsPerPacket},
        {"net.ocn_packets", perOp(a.ocnPackets)},
        {"net.ocn_occupancy", ratio(a.ocnOccupancyCycles, d(a.coreCycles))},

        {"compiler.compile_ms", perOpMs(ns("compiler.compile"))},
        {"compiler.share", share(ns("compiler.compile"))},
        {"compiler.compiles", perOp(a.compiles)},
        {"compiler.first_try_frac", ratio(d(a.firstTry), d(a.compiles))},
        {"compiler.overflow_retries", perOp(a.overflowRetries)},
        {"compiler.spill_rounds", perOp(a.spillRounds)},
        {"compiler.blocks", ratio(d(a.compileBlocks), d(a.compiles))},

        {"trips.funcsim_ms", perOpMs(ns("trips.funcsim"))},
        {"trips.share", share(ns("trips.funcsim"))},
        {"trips.mblocks_per_s",
         ratio(d(a.funcBlocks), ns("trips.funcsim")) * 1e3},
        {"trips.decoded_fallbacks", perOp(a.decodedFallbacks)},
        {"trips.observed_ms", perOpMs(ns("trips.observed"))},
        {"trips.observed_share", share(ns("trips.observed"))},
        {"trips.observed_mblocks_per_s",
         ratio(d(a.observedBlocks), ns("trips.observed")) * 1e3},

        {"ideal.self_ms", perOpMs(idealNs)},
        {"ideal.share", share(idealNs)},
        {"pred.self_ms", perOpMs(predNs)},
        {"pred.share", share(predNs)},

        {"risc.compile_ms", perOpMs(ns("risc.compile"))},
        {"risc.run_ms", perOpMs(ns("risc.run"))},
        {"risc.share", share(ns("risc.compile") + ns("risc.run"))},

        {"wir.build_ms", perOpMs(ns("wir.build"))},
        {"wir.interp_ms", perOpMs(ns("wir.interp"))},
        {"wir.interp_share", share(ns("wir.interp"))},
        {"harness.fuzzgen_ms", perOpMs(ns("harness.fuzzgen"))},
        {"harness.fuzzgen_share", share(ns("harness.fuzzgen"))},

        {"mem.l1d_hit_rate", ratio(d(a.l1dHits), d(a.l1dHits + a.l1dMisses))},
        {"mem.l1i_hit_rate", ratio(d(a.l1iHits), d(a.l1iHits + a.l1iMisses))},
        {"mem.uncore_accesses", perOp(a.uncoreAccesses)},
        {"mem.uncore_access_ns", a.replay.accessNs},
        {"mem.l2_hit_rate", ratio(d(a.l2Hits), d(a.l2Hits + a.l2Misses))},
        {"mem.bank_conflicts", perOp(a.bankConflicts)},
        {"mem.bank_conflict_cycles", perOp(a.bankConflictCycles)},
        {"mem.dram_row_hit_rate", ratio(d(a.dramRowHits), d(a.dramRequests))},

        {"chip.run_ms", a.chipOps ? chipRunMs : 0},
        {"chip.serial_ms", serialMs},
        {"chip.parallel_speedup", a.chipOps ? ratio(serialMs, chipRunMs) : 0},
        {"chip.cpu_over_wall", ratio(a.chipCpuNs, a.chipRunNs)},
        {"chip.quanta", a.chipOps ? d(a.engine.quanta) / chipOps : 0},
        {"chip.replayed_ops", a.chipOps ? d(a.engine.replayed) / chipOps : 0},
        {"chip.reclones", a.chipOps ? d(a.engine.reclones) / chipOps : 0},
        {"chip.reclones_per_quantum",
         ratio(d(a.engine.reclones), d(a.engine.quanta))},

        {"stall.commit", stall(obs::StallCat::Commit)},
        {"stall.drain", stall(obs::StallCat::Drain)},
        {"stall.fetch", stall(obs::StallCat::Fetch)},
        {"stall.bank_conflict", stall(obs::StallCat::BankConflict)},
        {"stall.ocn", stall(obs::StallCat::Ocn)},
        {"stall.lsq", stall(obs::StallCat::Lsq)},
        {"stall.operand", stall(obs::StallCat::Operand)},
        {"stall.control", stall(obs::StallCat::Control)},

        {"host.effective_parallelism", eff_par},
        {"obs.trace_overhead", ratio(meanOpMs(tp), meanOpMs(up))},
    };
    return emit(perLayerMetrics(), v);
}

/** Layers ranked by self time, for the "dominant layer" note. */
std::string
layerRanking(const Tracer &tr)
{
    const auto self = tr.selfNs();
    const auto totals = tr.totalNs();
    const double total = totals.count("op") ? totals.at("op") : 0;
    std::vector<std::pair<double, std::string>> v;
    for (const auto &[name, x] : self)
        v.push_back({x, name == "op" ? "benchmark (checks, teardown)" : name});
    std::sort(v.rbegin(), v.rend());
    std::ostringstream os;
    os << "self-time shares:";
    for (const auto &[x, name] : v) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s=%.3f", name.c_str(),
                      ratio(x, total));
        os << buf;
    }
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------
// Public surface.
// ---------------------------------------------------------------------

bool
parseFlow(const std::string &name, Flow &out)
{
    for (Flow f : {Flow::Figures, Flow::Fuzz, Flow::Observed, Flow::Chip4}) {
        if (name == flowName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

const char *
flowName(Flow f)
{
    switch (f) {
      case Flow::Figures: return "figures";
      case Flow::Fuzz: return "fuzz";
      case Flow::Observed: return "observed";
      case Flow::Chip4: return "chip4";
    }
    return "?";
}

RunReport
runBenchmark(const RunOptions &opts)
{
    RunReport rep;
    std::filesystem::create_directories(opts.outDir);
    auto flow = makeFlow(opts.flow, opts.seed);
    const double effPar = effectiveParallelism();

    // setup_s is the median of several set-ups: a single one is tens
    // of ms and at the mercy of the host. Scaled like the op times.
    HostRef ref;
    std::vector<double> setupS;
    for (int r = 0; r < 5; ++r) {
        const double scale = ref.sample();
        auto t0 = Clock::now();
        flow->setup();
        setupS.push_back(nsBetween(t0, Clock::now()) / 1e9 * scale);
    }
    std::sort(setupS.begin(), setupS.end());
    const double setupMedian = setupS[setupS.size() / 2];

    auto note = [&rep](const std::string &s) { rep.notes.push_back(s); };
    auto noteFailures = [&](const PassResult &p, const char *pass) {
        for (const auto &f : p.failures)
            note(std::string(pass) + " failed " + f);
    };
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "host: nproc=%u effective_parallelism=%.2f (spin test)",
                  std::thread::hardware_concurrency(), effPar);
    note(buf);

    if (!opts.trace) {
        Tracer off(false);
        PassResult pr = runPass(*flow, opts, off, ref, opts.seconds,
                                flow->minOps());
        rep.attempted = pr.attempted;
        rep.failed = pr.failed;
        rep.digest = pr.digest.line();
        rep.metrics = endToEnd(pr, setupMedian);
        noteFailures(pr, "untraced");
        // The tail is context, not a metric: chip4 holds about ten ops
        // a run, so no percentile of it has ten samples beyond it.
        std::snprintf(buf, sizeof buf,
                      "ops=%llu wall_s=%.3f scaled op_ms_p90=%.3f "
                      "(%zu samples beyond); unscaled op_ms_p50=%.3f; "
                      "host scale p10/p50/p90 %.3f/%.3f/%.3f",
                      static_cast<unsigned long long>(pr.attempted),
                      pr.wallNs / 1e9, percentile(pr.scaledMs, 90),
                      pr.opMs.size() - static_cast<size_t>(std::ceil(
                                           0.9 * pr.opMs.size())),
                      percentile(pr.opMs, 50), percentile(pr.scales, 10),
                      percentile(pr.scales, 50), percentile(pr.scales, 90));
        note(buf);
    } else {
        Tracer off(false);
        PassResult up = runPass(*flow, opts, off, ref, opts.seconds / 2,
                                flow->digestOps());
        Tracer on(true);
        PassResult tp = runPass(*flow, opts, on, ref, opts.seconds / 2,
                                flow->digestOps());
        noteFailures(up, "untraced");
        noteFailures(tp, "traced");
        flow->afterTracedPass(tp.acc);
        Acc &a = tp.acc;
        if (!a.memLogs.empty()) {
            const auto cfg = uarch::uncoreConfig(uarch::UarchConfig{}, 1);
            double ns = 0;
            for (const auto &log : a.memLogs) {
                ReplayResult r = replayLog(log, cfg);
                ns += r.accessNs * static_cast<double>(r.accesses);
                a.replay.accesses += r.accesses;
                a.replay.mismatches += r.mismatches;
            }
            a.replay.accessNs = ratio(ns, static_cast<double>(a.replay.accesses));
        }
        if (a.opnPackets) {
            OpnMix mix;
            mix.packetsPerCycle = ratio(static_cast<double>(a.opnPackets),
                                        static_cast<double>(a.coreCycles));
            mix.hops = a.hops;
            a.opnDrive = driveOpn(mix, 200'000, opts.seed);
        }
        rep.attempted = up.attempted + tp.attempted;
        rep.failed = up.failed + tp.failed;
        rep.digest = tp.digest.line();
        const std::string untracedDigest = up.digest.line();
        if (untracedDigest != rep.digest) {
            rep.correct = false;
            note("traced digest differs from untraced: " + untracedDigest);
        }
        if (a.replay.mismatches) {
            rep.correct = false;
            note("uncore replay: " + std::to_string(a.replay.mismatches) +
                 " completion cycles differ from the recorded run");
        }
        rep.metrics = perLayer(tp, on, up, effPar);
        const std::string path = opts.outDir + "/" + flowName(opts.flow) +
                                 "-seed" + std::to_string(opts.seed) +
                                 "-trace.json";
        if (!on.writeChrome(path, std::string("perfbench ") +
                                      flowName(opts.flow)))
            rep.correct = false;
        note("trace: " + path + " (" + std::to_string(on.spans().size()) +
             " spans)");
        note(layerRanking(on));
        std::snprintf(buf, sizeof buf,
                      "uncore replay: %llu accesses, %llu mismatches",
                      static_cast<unsigned long long>(a.replay.accesses),
                      static_cast<unsigned long long>(a.replay.mismatches));
        note(buf);
    }
    rep.correct = rep.correct && rep.failed == 0;
    return rep;
}

std::string
reportJson(const RunReport &r)
{
    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
        os << (i ? ", " : "") << '"' << r.metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << r.metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
