/**
 * @file
 * Model-level property tests: compiler analyses (liveness, loops,
 * unrolling, normalization), the ideal machine's monotonicity in its
 * resource parameters, OoO platform ordering, and ISA-statistics
 * invariants that the paper's figures rely on.
 */

#include <gtest/gtest.h>

#include "compiler/analysis.hh"
#include "compiler/transform.hh"
#include "core/machines.hh"
#include "wir/interp.hh"
#include "wir/builder.hh"

using namespace trips;
using wir::FunctionBuilder;
using wir::Module;

namespace {

Module &
loopModule(Module &m)
{
    FunctionBuilder fb(m, "main", 0);
    auto i = fb.iconst(0);
    auto acc = fb.iconst(0);
    fb.label("loop");
    fb.assign(acc, fb.add(acc, i));
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(50)), "loop", "done");
    fb.label("done");
    fb.ret(acc);
    fb.finish();
    return m;
}

} // namespace

TEST(Analysis, LivenessCarriesLoopValues)
{
    Module m;
    loopModule(m);
    const auto &f = m.function("main");
    compiler::Liveness live(f);
    // The loop block (id 1) must keep acc and i live around the back
    // edge: live-in of the loop contains both.
    ASSERT_GE(f.blocks.size(), 2u);
    unsigned live_count = live.liveIn[1].count();
    EXPECT_GE(live_count, 2u);
}

TEST(Analysis, FindsNaturalLoop)
{
    Module m;
    loopModule(m);
    auto loops = compiler::findLoops(m.function("main"));
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, loops[0].latch);   // self loop
    EXPECT_TRUE(loops[0].innermost);
}

TEST(Transform, UnrollPreservesSemanticsAndGrowsBody)
{
    Module m;
    loopModule(m);
    wir::Function f = m.function("main");
    size_t before = f.blocks.size();
    compiler::Options o;
    o.maxUnroll = 4;
    o.unrollBudgetOps = 100;
    compiler::unrollLoops(f, o);
    EXPECT_GT(f.blocks.size(), before);
    // Execute the unrolled function through a fresh module.
    Module m2;
    m2.functions["main"] = f;
    MemImage mem;
    auto r = wir::Interp{}.run(m2, mem);
    EXPECT_EQ(r.retVal, 49 * 50 / 2);
}

TEST(Transform, NormalizeSplitsBigBlocks)
{
    Module m;
    FunctionBuilder fb(m, "main", 0);
    auto acc = fb.iconst(1);
    for (int i = 0; i < 100; ++i)
        fb.assign(acc, fb.addi(acc, 1));
    fb.ret(acc);
    fb.finish();
    wir::Function f = m.function("main");
    compiler::normalizeBlocks(f, 20, 10);
    unsigned big = 0;
    for (const auto &b : f.blocks)
        big += b.instrs.size() > 20;
    EXPECT_EQ(big, 0u);
    EXPECT_GT(f.blocks.size(), 5u);
    Module m2;
    m2.functions["main"] = f;
    MemImage mem;
    EXPECT_EQ(wir::Interp{}.run(m2, mem).retVal, 101);
}

// ---------------------------------------------------------------------
// Ideal machine monotonicity (the Fig. 10 orderings)
// ---------------------------------------------------------------------

class IdealMonotonic
    : public ::testing::TestWithParam<const workloads::Workload *>
{
};

TEST_P(IdealMonotonic, WindowAndDispatchOrdering)
{
    const auto &w = *GetParam();
    auto opts = compiler::Options::compiled();
    ideal::IdealConfig base;               // 1K, 8-cycle dispatch
    ideal::IdealConfig nod;
    nod.dispatchCost = 0;
    ideal::IdealConfig big;
    big.dispatchCost = 0;
    big.windowInsts = 128 * 1024;
    auto hw = core::runTrips(w, opts, true);
    auto i1 = core::runIdeal(w, opts, base);
    auto i2 = core::runIdeal(w, opts, nod);
    auto i3 = core::runIdeal(w, opts, big);
    EXPECT_GE(i1.ipc(), hw.uarch.ipc() * 0.99) << "ideal below hardware";
    EXPECT_GE(i2.ipc(), i1.ipc() * 0.99);
    EXPECT_GE(i3.ipc(), i2.ipc() * 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, IdealMonotonic,
    ::testing::Values(&workloads::find("vadd"), &workloads::find("fft"),
                      &workloads::find("autocor"),
                      &workloads::find("mcf")),
    [](const auto &info) { return info.param->name; });

// ---------------------------------------------------------------------
// Ideal machine golden numbers: executed instructions and makespan for
// the three Fig. 10 configurations on the observed-flow pool, pinned so
// a change to IdealSim (or to the record stream it consumes) that
// moves any of them fails here.
// ---------------------------------------------------------------------

struct IdealPin
{
    const char *workload;
    u64 executed;
    Cycle makespan[3];  ///< 1K/8cy, 1K/0cy, 128K/0cy
};

const IdealPin kIdealPins[] = {
    {"vadd", 145422, {30738, 30731, 30731}},
    {"ct", 84344, {13426, 13411, 642}},
    {"802.11a", 258793, {61372, 53160, 47314}},
    {"8b10b", 241675, {65565, 36891, 32799}},
    {"a2time", 120894, {32802, 21813, 6173}},
    {"rspeed", 351686, {32808, 24357, 24357}},
    {"ospf", 160711, {29062, 29055, 12148}},
    {"routelookup", 159344, {57482, 34596, 4181}},
    {"conven", 344072, {65556, 32786, 32786}},
    {"fbital", 133134, {17357, 17342, 17342}},
    {"fft", 118510, {29710, 11483, 4150}},
    {"crafty", 274473, {65559, 30739, 8231}},
    {"twolf", 487669, {163549, 69587, 57370}},
    {"vortex", 366271, {229382, 49162, 28673}},
    {"vpr", 538333, {104308, 104301, 104301}},
    {"mesa", 236736, {76228, 19442, 8872}},
    {"wupwise", 427511, {67536, 31379, 5705}},
};

TEST(IdealGolden, Fig10Configs)
{
    ideal::IdealConfig cfgs[3];            // 1K, 8-cycle dispatch
    cfgs[1].dispatchCost = 0;
    cfgs[2].dispatchCost = 0;
    cfgs[2].windowInsts = 128 * 1024;
    for (const IdealPin &pin : kIdealPins) {
        Module mod;
        workloads::find(pin.workload).build(mod);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        sim::FuncSim fsim(prog, mem);
        ideal::IdealSim sims[3] = {ideal::IdealSim(cfgs[0]),
                                   ideal::IdealSim(cfgs[1]),
                                   ideal::IdealSim(cfgs[2])};
        for (auto &s : sims)
            fsim.addObserver(&s);
        ASSERT_FALSE(fsim.run().fuelExhausted) << pin.workload;
        for (unsigned c = 0; c < 3; ++c) {
            EXPECT_EQ(sims[c].result().executed, pin.executed)
                << pin.workload << " config " << c;
            EXPECT_EQ(sims[c].result().makespan, pin.makespan[c])
                << pin.workload << " config " << c;
        }
    }
}

// ---------------------------------------------------------------------
// OoO platform properties
// ---------------------------------------------------------------------

TEST(Ooo, PlatformsAgreeArchitecturally)
{
    const auto &w = workloads::find("conven");
    i64 golden = core::runGolden(w);
    for (auto cfg : {ooo::OooConfig::core2(), ooo::OooConfig::pentium4(),
                     ooo::OooConfig::pentium3()}) {
        auto r = core::runPlatform(w, cfg, risc::RiscOptions::gcc());
        EXPECT_EQ(r.retVal, golden) << cfg.name;
        EXPECT_GT(r.cycles, 0u);
        EXPECT_LE(r.ipc(), cfg.issueWidth);
    }
}

TEST(Ooo, Core2BeatsNarrowerMachinesOnIlp)
{
    // A regular FP kernel: the 4-wide Core 2 model should beat the
    // 3-wide, memory-starved P4/P3 models in cycles.
    const auto &w = workloads::find("autocor");
    auto g = risc::RiscOptions::gcc();
    auto c2 = core::runPlatform(w, ooo::OooConfig::core2(), g);
    auto p4 = core::runPlatform(w, ooo::OooConfig::pentium4(), g);
    auto p3 = core::runPlatform(w, ooo::OooConfig::pentium3(), g);
    EXPECT_LT(c2.cycles, p4.cycles);
    EXPECT_LT(c2.cycles, p3.cycles);
}

// ---------------------------------------------------------------------
// ISA statistics invariants used by Figs. 3-5
// ---------------------------------------------------------------------

class IsaInvariants
    : public ::testing::TestWithParam<const workloads::Workload *>
{
};

TEST_P(IsaInvariants, AccountingAddsUp)
{
    const auto &w = *GetParam();
    auto r = core::runTrips(w, compiler::Options::compiled(), false);
    const auto &s = r.isa;
    // Every fetched instruction is exactly one of the categories.
    EXPECT_EQ(s.fetched,
              s.useful + s.moves + s.executedNotUsed +
                  s.fetchedNotExecuted);
    EXPECT_EQ(s.fired, s.useful + s.moves + s.executedNotUsed);
    EXPECT_EQ(s.useful, s.usefulArith + s.usefulMemory +
                            s.usefulControl + s.usefulTests);
    // Exactly one branch per block is useful control flow.
    EXPECT_EQ(s.usefulControl, s.blocks);
    // Hardware limits.
    EXPECT_LE(s.meanBlockSize(), 128.0);
    EXPECT_LE(static_cast<double>(s.readsFetched) / s.blocks, 32.0);
    EXPECT_LE(static_cast<double>(s.writesCommitted) / s.blocks, 32.0);
}

INSTANTIATE_TEST_SUITE_P(
    Mix, IsaInvariants,
    ::testing::Values(&workloads::find("a2time"),
                      &workloads::find("fft"),
                      &workloads::find("gzip"),
                      &workloads::find("mesa"),
                      &workloads::find("vortex"),
                      &workloads::find("swim")),
    [](const auto &info) { return info.param->name; });
