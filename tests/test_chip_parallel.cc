/**
 * @file
 * The relaxed-quantum parallel chip engine's contract (DESIGN.md §11):
 *
 *  - N=1 parallel is bit-identical to the serial lockstep reference
 *    (the shadow clone never diverges when there is no other core).
 *  - A fixed (mix, config, quantum) is exactly replayable: two runs
 *    produce ChipResults equal in every field (fieldDiff), and the
 *    worker thread cap (T=1 vs T=8) cannot change a single statistic.
 *  - Architectural results (retVal, final memory, committed blocks)
 *    are engine-invariant for every quantum, asserted across
 *    all-workload 4-core mixes (bounded by default; the full
 *    round-robin sweep runs under the `slow` ctest label).
 *
 * This binary is also the TSan stage's target in CI: every test
 * drives real worker threads through the barrier/replay machinery.
 */
#include <gtest/gtest.h>

#include "compiler/codegen.hh"
#include "harness/diff.hh"
#include "support/fields.hh"
#include "testutil.hh"
#include "uarch/chip_sim.hh"
#include "wir/builder.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;
using wir::FunctionBuilder;
using wir::MemWidth;
using wir::Module;

namespace {

/** Strided store/load walk over a buffer: L1D-streaming, L2-heavy
 *  (same shape as test_chip.cc's contention driver). */
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

struct MixProgram
{
    Module mod;
    isa::Program prog;
};

/** Compile a strided mem-stress program per core. */
std::vector<std::unique_ptr<MixProgram>>
buildStressMix(const std::vector<i64> &strides, int iters)
{
    std::vector<std::unique_ptr<MixProgram>> ps;
    for (i64 s : strides) {
        auto mp = std::make_unique<MixProgram>();
        buildMemStress(mp->mod, s, iters);
        mp->prog = compiler::compileToTrips(
            mp->mod, compiler::Options::compiled());
        ps.push_back(std::move(mp));
    }
    return ps;
}

struct ChipRun
{
    uarch::ChipResult res;
    std::vector<std::unique_ptr<MemImage>> mems;
};

ChipRun
runChip(const std::vector<std::unique_ptr<MixProgram>> &ps,
        const uarch::ChipConfig &cfg)
{
    ChipRun run;
    std::vector<uarch::ChipJob> jobs;
    for (auto &mp : ps) {
        run.mems.push_back(std::make_unique<MemImage>());
        wir::Interp::loadGlobals(mp->mod, *run.mems.back());
        jobs.push_back({&mp->prog, run.mems.back().get()});
    }
    uarch::ChipSim chip(jobs, cfg);
    run.res = chip.run();
    return run;
}

/** Engine-invariant architectural results: retVal, committed block
 *  stream, and the final memory image of every core. */
void
expectSameArchitecture(const std::vector<std::unique_ptr<MixProgram>> &ps,
                       const ChipRun &a, const ChipRun &b,
                       const std::string &label)
{
    ASSERT_EQ(a.res.cores.size(), b.res.cores.size());
    for (size_t i = 0; i < a.res.cores.size(); ++i) {
        EXPECT_EQ(a.res.cores[i].retVal, b.res.cores[i].retVal)
            << label << " core " << i;
        EXPECT_EQ(a.res.cores[i].blocksCommitted,
                  b.res.cores[i].blocksCommitted)
            << label << " core " << i;
        EXPECT_EQ(a.res.cores[i].storesCommitted,
                  b.res.cores[i].storesCommitted)
            << label << " core " << i;
        std::string who = label + " core " + std::to_string(i);
        EXPECT_EQ(harness::compareDataSegments(ps[i]->mod, *a.mems[i],
                                               *b.mems[i], who.c_str()),
                  "");
    }
}

} // namespace

// ---------------------------------------------------------------------
// N=1: with no other core the shadow never diverges from the real
// uncore, so the parallel engine must be bit-identical to serial.
// ---------------------------------------------------------------------

TEST(ParallelEngine, OneCoreBitIdenticalToSerial)
{
    auto ps = buildStressMix({97}, 3000);

    uarch::ChipConfig serial;
    serial.numCores = 1;
    uarch::ChipConfig par = serial;
    par.engine = uarch::ChipEngine::Parallel;
    par.quantum = 512;

    auto rs = runChip(ps, serial);
    auto rp = runChip(ps, par);
    EXPECT_EQ(fieldDiff(rs.res, rp.res), "");
    expectSameArchitecture(ps, rs, rp, "one-core");
}

// ---------------------------------------------------------------------
// Determinism: replayable run-to-run, thread-count-independent.
// ---------------------------------------------------------------------

TEST(ParallelEngine, SameMixConfigQuantumIsByteIdenticalTwice)
{
    auto ps = buildStressMix({97, 193, 389, 769}, 1500);
    uarch::ChipConfig cfg;
    cfg.numCores = 4;
    cfg.engine = uarch::ChipEngine::Parallel;
    cfg.quantum = 256;

    auto r1 = runChip(ps, cfg);
    auto r2 = runChip(ps, cfg);
    EXPECT_EQ(fieldDiff(r1.res, r2.res), "");
    expectSameArchitecture(ps, r1, r2, "replay");

    // The mix really contends (the determinism claim is not vacuous).
    EXPECT_GT(r1.res.uncore.bankConflicts, 0u);
}

TEST(ParallelEngine, ThreadCapOneVsEightIsIdentical)
{
    auto ps = buildStressMix({97, 193, 389, 769}, 1500);
    uarch::ChipConfig cfg;
    cfg.numCores = 4;
    cfg.engine = uarch::ChipEngine::Parallel;
    cfg.quantum = 256;

    cfg.threads = 1;
    auto r1 = runChip(ps, cfg);
    cfg.threads = 8;
    auto r8 = runChip(ps, cfg);
    EXPECT_EQ(fieldDiff(r1.res, r8.res), "");
    expectSameArchitecture(ps, r1, r8, "threads");
}

// ---------------------------------------------------------------------
// Architectural equality with the serial reference, across quanta.
// The uncore is timing-only, so retVal / memory / committed blocks
// must be engine- and quantum-invariant even though cycle counts are
// quantum-sensitive.
// ---------------------------------------------------------------------

TEST(ParallelEngine, ArchitecturallyEqualToSerialAcrossQuanta)
{
    auto ps = buildStressMix({97, 389}, 2000);
    uarch::ChipConfig serial;
    serial.numCores = 2;
    auto rs = runChip(ps, serial);

    for (unsigned q : {1u, 64u, 1024u, 1u << 20}) {
        uarch::ChipConfig par = serial;
        par.engine = uarch::ChipEngine::Parallel;
        par.quantum = q;
        auto rp = runChip(ps, par);
        expectSameArchitecture(ps, rs, rp,
                               "quantum=" + std::to_string(q));
        // And each quantum is individually replayable.
        auto rp2 = runChip(ps, par);
        EXPECT_EQ(fieldDiff(rp.res, rp2.res), "");
    }
}

// ---------------------------------------------------------------------
// All-workload 4-core mixes: round-robin groups over the registry,
// serial vs parallel architectural equality. Bounded by default; the
// slow label (TRIPSIM_SLOW_TESTS=1) sweeps every group.
// ---------------------------------------------------------------------

TEST(ParallelChipDiff, FourCoreWorkloadMixesMatchSerial)
{
    const auto &all = workloads::all();
    const unsigned groups =
        static_cast<unsigned>((all.size() + 3) / 4);
    const unsigned bounded = testutil::slowScale(2, groups);

    for (unsigned g = 0; g < std::min(bounded, groups); ++g) {
        std::vector<std::unique_ptr<MixProgram>> ps;
        std::string names;
        for (unsigned k = 0; k < 4; ++k) {
            const auto &w = all[(4 * g + k) % all.size()];
            auto mp = std::make_unique<MixProgram>();
            w.build(mp->mod);
            mp->prog = compiler::compileToTrips(
                mp->mod, compiler::Options::compiled());
            ps.push_back(std::move(mp));
            names += (k ? "," : "") + w.name;
        }

        uarch::ChipConfig serial;
        serial.numCores = 4;
        uarch::ChipConfig par = serial;
        par.engine = uarch::ChipEngine::Parallel;

        auto rs = runChip(ps, serial);
        auto rp = runChip(ps, par);
        expectSameArchitecture(ps, rs, rp, "mix[" + names + "]");
        EXPECT_FALSE(rp.res.anyFuelExhausted) << names;
    }
}
