/**
 * @file
 * Tests for the fast-simulation subsystem (src/sim/): checkpoint
 * serialization round trips, corrupted/versioned-file rejection, the
 * checkpoint-restore differential oracle (restored functional and
 * warm-started cycle-level runs must equal the straight runs), sampled
 * simulation accuracy against full-detail runs, and the campaign
 * cache's cold/warm bit-identity.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/machines.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"
#include "support/fields.hh"
#include "uarch/chip_sim.hh"
#include "wir/interp.hh"

using namespace trips;

namespace {

/** Compile a workload and load its globals into @p mem. */
isa::Program
compileWorkload(const char *name, wir::Module &mod, MemImage &mem,
                const compiler::Options &opts =
                    compiler::Options::compiled())
{
    workloads::find(name).build(mod);
    auto prog = compiler::compileToTrips(mod, opts);
    wir::Interp::loadGlobals(mod, mem);
    return prog;
}

/** Snapshot @p name's functional state after @p blocks blocks. */
sim::Checkpoint
checkpointAfter(const char *name, u64 blocks)
{
    wir::Module mod;
    MemImage mem;
    auto prog = compileWorkload(name, mod, mem);
    sim::FuncSim fsim(prog, mem);
    auto r = fsim.run(blocks);
    EXPECT_TRUE(r.fuelExhausted) << "program ended before " << blocks;
    sim::Checkpoint ck;
    fsim.snapshot(ck);
    return ck;
}

/** Re-seal a tampered checkpoint image so only the targeted field is
 *  invalid (the CRC stays correct). */
std::vector<u8>
resealed(std::vector<u8> bytes)
{
    u32 crc = sim::crc32(bytes.data(), bytes.size() - 4);
    for (unsigned i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + i] = static_cast<u8>(crc >> (8 * i));
    return bytes;
}

} // namespace

// ---------------------------------------------------------------------
// Checkpoint byte format
// ---------------------------------------------------------------------

TEST(Checkpoint, SerializeDeserializeRoundTripIsExact)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 200);
    EXPECT_EQ(ck.blocksExecuted, 200u);

    auto bytes = sim::serializeCheckpoint(ck);
    sim::Checkpoint rt = sim::deserializeCheckpoint(bytes);
    EXPECT_EQ(rt.nextBlock, ck.nextBlock);
    EXPECT_EQ(rt.blocksExecuted, ck.blocksExecuted);
    EXPECT_EQ(rt.regfile, ck.regfile);
    EXPECT_EQ(rt.callStack, ck.callStack);
    EXPECT_EQ(fieldDiff(rt.stats, ck.stats), "");
    EXPECT_EQ(sim::diffMemImages(rt.mem, ck.mem), "");

    // Deterministic format: same state, same bytes.
    EXPECT_EQ(sim::serializeCheckpoint(rt), bytes);
}

// The cache entry and checkpoint byte formats are pinned: both are
// derived from the records' field lists, and a list edit that moves
// a byte must bump CAMPAIGN_FORMAT / CKPT_VERSION and re-pin here.
// The entry echoes its key, so a SIM_VERSION bump re-pins it too.
TEST(Checkpoint, ByteFormatsArePinned)
{
    auto digest = [](const std::vector<u8> &bytes) {
        sim::Fnv128 h;
        h.update(bytes.data(), bytes.size());
        return h.hex();
    };

    std::string dir = testing::TempDir() + "/format_pin_cache";
    std::filesystem::remove_all(dir);
    const auto &w = workloads::find("autocor");
    sim::Campaign c(dir);
    c.runTrips(w, compiler::Options::compiled(), true);
    wir::Module mod;
    w.build(mod);
    auto key = sim::campaignKey(mod, compiler::Options::compiled(),
                                uarch::UarchConfig{}, true);
    std::vector<u8> entry;
    ASSERT_TRUE(sim::readFile(dir + "/" + key.hex() + ".trun", entry));
    EXPECT_EQ(digest(entry), "c64c3d156161d1a81ac51cfddc01c988")
        << entry.size() << " bytes";

    auto ckpt = sim::serializeCheckpoint(checkpointAfter("autocor", 500));
    EXPECT_EQ(digest(ckpt), "d4fe6c6214fac4de49fdc6915ad16638")
        << ckpt.size() << " bytes";
}

TEST(Checkpoint, SaveLoadFileRoundTrip)
{
    sim::Checkpoint ck = checkpointAfter("autocor", 500);
    std::string path = testing::TempDir() + "/autocor.ckpt";
    sim::saveCheckpoint(path, ck);
    sim::Checkpoint back = sim::loadCheckpoint(path);
    EXPECT_EQ(sim::serializeCheckpoint(back), sim::serializeCheckpoint(ck));
    std::remove(path.c_str());
}

/** Deserialize expecting a TripsError; returns its error code. */
static ErrCode
loadErrCode(const std::vector<u8> &bytes, size_t n = SIZE_MAX)
{
    try {
        sim::deserializeCheckpoint(
            bytes.data(), n == SIZE_MAX ? bytes.size() : n);
    } catch (const TripsError &e) {
        EXPECT_EQ(e.status().subsys, Subsys::Sim);
        return e.code();
    }
    ADD_FAILURE() << "deserializeCheckpoint did not throw";
    return ErrCode::Ok;
}

TEST(Checkpoint, CorruptedBytesAreRejectedWithStructuredErrors)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 50);
    auto bytes = sim::serializeCheckpoint(ck);

    // Flip one payload byte: the CRC must catch it.
    auto corrupt = bytes;
    corrupt[bytes.size() / 2] ^= 0x40;
    EXPECT_EQ(loadErrCode(corrupt), ErrCode::CorruptData);

    // Truncation is a structured error too, not UB — and, since PR 6,
    // catchable: a campaign survives a bad checkpoint file.
    auto truncated = bytes;
    truncated.resize(bytes.size() / 2);
    EXPECT_EQ(loadErrCode(truncated), ErrCode::CorruptData);
    EXPECT_EQ(loadErrCode(truncated, 3), ErrCode::Truncated);
    EXPECT_THROW(sim::deserializeCheckpoint(truncated), TripsError);
}

TEST(Checkpoint, WrongMagicAndVersionAreRejected)
{
    sim::Checkpoint ck = checkpointAfter("vadd", 50);
    auto bytes = sim::serializeCheckpoint(ck);

    auto wrong_magic = bytes;
    wrong_magic[0] ^= 0xff;
    EXPECT_EQ(loadErrCode(resealed(wrong_magic)), ErrCode::CorruptData);

    // A future/older format version is rejected by name, so stale
    // checkpoint files fail loudly instead of parsing garbage.
    auto wrong_version = bytes;
    wrong_version[4] = static_cast<u8>(sim::CKPT_VERSION + 7);
    EXPECT_EQ(loadErrCode(resealed(wrong_version)),
              ErrCode::VersionMismatch);

    // Loading a missing file is a structured IoError, not a fatal.
    try {
        sim::loadCheckpoint(testing::TempDir() + "/no-such.ckpt");
        ADD_FAILURE() << "loadCheckpoint did not throw";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
}

TEST(Checkpoint, MemImageDiffTreatsAbsentPagesAsZero)
{
    MemImage a, b;
    a.write8(0x5000, 0);   // resident page, all zero
    EXPECT_EQ(sim::diffMemImages(a, b), "");
    b.write8(0x5001, 9);
    EXPECT_NE(sim::diffMemImages(a, b), "");
}

// ---------------------------------------------------------------------
// Checkpoint-restore differential oracle
// ---------------------------------------------------------------------

TEST(CheckpointOracle, RestoredRunsEqualStraightRunsOnPinnedWorkloads)
{
    struct Pin
    {
        const char *name;
        u64 every;
    };
    // Mixed suites; intervals chosen so several checkpoints land
    // inside each program (committed counts: vadd 2050, fft 4232,
    // autocor 16417 blocks).
    const Pin pins[] = {{"vadd", 300}, {"fft", 700}, {"autocor", 2500}};
    for (const auto &p : pins) {
        wir::Module mod;
        workloads::find(p.name).build(mod);
        auto r = harness::diffCheckpointRestore(
            mod, p.every, compiler::Options::compiled());
        EXPECT_TRUE(r.ok) << p.name << ": " << r.divergence;
        EXPECT_GE(r.checkpoints, 2u) << p.name;
    }
}

TEST(CheckpointOracle, HandPresetAndReducedUarchSurviveRestore)
{
    wir::Module mod;
    workloads::find("matrix").build(mod);
    auto r = harness::diffCheckpointRestore(
        mod, 2000, compiler::Options::hand(),
        uarch::UarchConfig::smallWindow());
    EXPECT_TRUE(r.ok) << r.divergence;
    EXPECT_GE(r.checkpoints, 2u);
}

TEST(CheckpointOracle, GeneratedProgramsSurviveRestore)
{
    // Fuzz programs exercise call stacks, predication, and memory
    // shapes the workloads do not.
    for (u64 seed : {11u, 23u, 58u}) {
        wir::Module mod = harness::generate(seed, harness::ShapeConfig{});
        auto r = harness::diffCheckpointRestore(
            mod, 20, compiler::Options::compiled());
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.divergence;
    }
}

TEST(CheckpointOracle, WarmStartIntoChipSimMatchesSoloRun)
{
    // Restore the same checkpoint into both cores of a 2-core chip:
    // the shared uncore adds timing interference only, so each core
    // must still finish with the straight run's architecture.
    wir::Module mod;
    MemImage straightMem;
    auto prog = compileWorkload("a2time", mod, straightMem);
    uarch::CycleSim straight(prog, straightMem);
    auto sr = straight.run();

    MemImage fmem;
    wir::Interp::loadGlobals(mod, fmem);
    sim::FuncSim fsim(prog, fmem);
    fsim.run(1500);
    ASSERT_FALSE(fsim.halted());
    sim::Checkpoint ck;
    fsim.snapshot(ck);

    MemImage m0 = ck.mem, m1 = ck.mem;
    std::vector<uarch::ChipJob> jobs(2);
    jobs[0] = {&prog, &m0, &ck};
    jobs[1] = {&prog, &m1, &ck};
    uarch::ChipSim chip(jobs, uarch::ChipConfig::prototype());
    auto cr = chip.run();
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_EQ(cr.cores[c].retVal, sr.retVal) << "core " << c;
        EXPECT_EQ(ck.blocksExecuted + cr.cores[c].blocksCommitted,
                  sr.blocksCommitted)
            << "core " << c;
    }
    EXPECT_EQ(sim::diffMemImages(straightMem, m0, "core0 mem"), "");
    EXPECT_EQ(sim::diffMemImages(straightMem, m1, "core1 mem"), "");
}

// ---------------------------------------------------------------------
// Sampled simulation
// ---------------------------------------------------------------------

TEST(Sampling, EstimatesWithinFivePercentOnPinnedWorkloads)
{
    // The acceptance bar: sampled cycle estimates within 5% of the
    // full-detail run on >= 4 pinned workloads (measured errors are
    // well inside it: vadd +0.3%, autocor +0.4%, matrix -0.4%,
    // a2time +1.9%, gcc +1.6%).
    const char *pins[] = {"vadd", "autocor", "matrix", "a2time", "gcc"};
    sim::SampleConfig scfg;
    scfg.warmupBlocks = 150;
    scfg.measureBlocks = 350;
    scfg.period = 1000;
    for (const char *name : pins) {
        wir::Module mod;
        MemImage full;
        auto prog = compileWorkload(name, mod, full);
        uarch::CycleSim cs(prog, full);
        auto fr = cs.run();

        MemImage smem;
        wir::Interp::loadGlobals(mod, smem);
        auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
        EXPECT_FALSE(s.fuelExhausted) << name;
        EXPECT_FALSE(s.fullDetail) << name;
        EXPECT_EQ(s.retVal, fr.retVal) << name;
        EXPECT_GE(s.intervals, 2u) << name;
        // Sampling must actually skip work: measured coverage well
        // below 1 while the estimate stays within the 5% bar.
        EXPECT_LT(s.coverage(), 0.6) << name;
        EXPECT_GT(s.coverage(), 0.0) << name;
        double rel = std::abs(s.estCycles - static_cast<double>(fr.cycles))
                     / static_cast<double>(fr.cycles);
        EXPECT_LE(rel, 0.05) << name << ": sampled " << s.estCycles
                             << " vs full " << fr.cycles;
    }
}

TEST(Sampling, FunctionalArchitectureIsExactUnderSampling)
{
    // Sampling changes what is *timed*, never what is *executed*: the
    // functional image the sampler returns equals a plain run's.
    wir::Module mod;
    MemImage plain;
    auto prog = compileWorkload("fft", mod, plain);
    sim::FuncSim fsim(prog, plain);
    auto fr = fsim.run();

    sim::SampleConfig scfg;
    scfg.warmupBlocks = 50;
    scfg.measureBlocks = 100;
    scfg.period = 500;
    MemImage smem;
    wir::Interp::loadGlobals(mod, smem);
    auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
    EXPECT_EQ(s.retVal, fr.retVal);
    EXPECT_EQ(s.totalBlocks, fr.stats.blocks);
    EXPECT_EQ(fieldDiff(s.isa, fr.stats), "");
    EXPECT_EQ(sim::diffMemImages(plain, smem), "");
}

TEST(Sampling, ShortProgramFallsBackToFullDetail)
{
    wir::Module mod;
    MemImage full;
    auto prog = compileWorkload("vadd", mod, full);
    uarch::CycleSim cs(prog, full);
    auto fr = cs.run();

    sim::SampleConfig scfg;
    scfg.ffwdBlocks = 10'000'000;   // way past the program's end
    MemImage smem;
    wir::Interp::loadGlobals(mod, smem);
    auto s = sim::runSampled(prog, smem, uarch::UarchConfig{}, scfg);
    EXPECT_TRUE(s.fullDetail);
    EXPECT_EQ(s.intervals, 0u);
    EXPECT_EQ(static_cast<u64>(s.estCycles), fr.cycles);
    EXPECT_DOUBLE_EQ(s.coverage(), 1.0);
}

TEST(SamplingDeathTest, InvalidConfigsAreFatal)
{
    EXPECT_EXIT(sim::SampleConfig::parse("nonsense"),
                testing::ExitedWithCode(1), "--sample");
    EXPECT_EXIT(sim::SampleConfig::parse("0:400:400:500"),
                testing::ExitedWithCode(1), "overlap");
    auto ok = sim::SampleConfig::parse("5:100:400:1000");
    EXPECT_EQ(ok.ffwdBlocks, 5u);
    EXPECT_EQ(ok.warmupBlocks, 100u);
    EXPECT_EQ(ok.measureBlocks, 400u);
    EXPECT_EQ(ok.period, 1000u);
}

// ---------------------------------------------------------------------
// Campaign cache
// ---------------------------------------------------------------------

TEST(Campaign, WarmRerunIsBitIdenticalAndSkipsSimulation)
{
    std::string dir = testing::TempDir() + "/campaign_cache_test";
    std::filesystem::remove_all(dir);   // runs must start cold
    const auto &w = workloads::find("autocor");

    sim::Campaign cold(dir);
    auto r1 = cold.runTrips(w, compiler::Options::compiled(), true);
    EXPECT_EQ(cold.cache().hits(), 0u);
    EXPECT_EQ(cold.cache().misses(), 1u);

    sim::Campaign warm(dir);
    auto r2 = warm.runTrips(w, compiler::Options::compiled(), true);
    EXPECT_EQ(warm.cache().hits(), 1u);
    EXPECT_EQ(warm.cache().misses(), 0u);
    EXPECT_EQ(r2.retVal, r1.retVal);
    EXPECT_EQ(r2.funcFuelExhausted, r1.funcFuelExhausted);
    EXPECT_EQ(r2.cycleLevel, r1.cycleLevel);
    EXPECT_EQ(r2.codeBytes, r1.codeBytes);
    EXPECT_EQ(fieldDiff(r2.isa, r1.isa), "");
    EXPECT_EQ(fieldDiff(r2.compile, r1.compile), "");
    EXPECT_EQ(fieldDiff(r2.uarch, r1.uarch), "");
}

TEST(Campaign, KeySeparatesEveryInputDimension)
{
    wir::Module mod = harness::generate(7, harness::ShapeConfig{});
    auto opts = compiler::Options::compiled();
    uarch::UarchConfig ucfg;
    auto base = sim::campaignKey(mod, opts, ucfg, true);

    // Stable for identical inputs.
    EXPECT_EQ(sim::campaignKey(mod, opts, ucfg, true), base);

    // Distinct per module / options / config / model level.
    wir::Module mod2 = harness::generate(8, harness::ShapeConfig{});
    EXPECT_NE(sim::campaignKey(mod2, opts, ucfg, true), base);
    EXPECT_NE(sim::campaignKey(mod, compiler::Options::hand(), ucfg, true),
              base);
    EXPECT_NE(sim::campaignKey(mod, opts, uarch::UarchConfig::tinyMemory(),
                               true),
              base);
    EXPECT_NE(sim::campaignKey(mod, opts, ucfg, false), base);
}

TEST(Campaign, CorruptOrStaleEntriesAreMissesNeverTrusted)
{
    std::string dir = testing::TempDir() + "/campaign_corrupt_test";
    std::filesystem::remove_all(dir);   // runs must start cold
    wir::Module mod = harness::generate(3, harness::ShapeConfig{});
    auto opts = compiler::Options::compiled();
    auto key = sim::campaignKey(mod, opts, uarch::UarchConfig{}, false);

    sim::Campaign c1(dir);
    auto r1 = c1.runTrips(mod, opts, false);
    EXPECT_EQ(c1.cache().misses(), 1u);

    // Corrupt the stored record: the next lookup must re-simulate,
    // not fatal and not return garbage.
    std::string path = dir + "/" + key.hex() + ".trun";
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 40, SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);

    sim::Campaign c2(dir);
    auto r2 = c2.runTrips(mod, opts, false);
    EXPECT_EQ(c2.cache().hits(), 0u);
    EXPECT_EQ(c2.cache().misses(), 1u);
    EXPECT_EQ(r2.retVal, r1.retVal);

    // The re-run repaired the entry.
    sim::Campaign c3(dir);
    c3.runTrips(mod, opts, false);
    EXPECT_EQ(c3.cache().hits(), 1u);
}

TEST(Campaign, CrcValidButMalformedEntryIsAMissNotAFatal)
{
    // A record can carry a valid seal yet not parse under this build
    // (written by a binary with different structural constants, e.g.
    // another pass count). That must degrade to a miss + re-run, not
    // take the campaign down.
    std::string dir = testing::TempDir() + "/campaign_malformed_test";
    std::filesystem::remove_all(dir);
    wir::Module mod = harness::generate(5, harness::ShapeConfig{});
    auto opts = compiler::Options::compiled();
    auto key = sim::campaignKey(mod, opts, uarch::UarchConfig{}, false);

    sim::Campaign c1(dir);
    c1.runTrips(mod, opts, false);

    // Truncate the payload and re-seal: CRC passes, parsing cannot.
    std::string path = dir + "/" + key.hex() + ".trun";
    std::vector<u8> bytes;
    ASSERT_TRUE(sim::readFile(path, bytes));
    bytes.resize(bytes.size() - 40);
    u32 crc = sim::crc32(bytes.data(), bytes.size() - 4);
    for (unsigned i = 0; i < 4; ++i)
        bytes[bytes.size() - 4 + i] = static_cast<u8>(crc >> (8 * i));
    ASSERT_TRUE(sim::sealIntact(bytes.data(), bytes.size()));
    sim::writeFileAtomic(path, bytes);

    sim::Campaign c2(dir);
    auto r = c2.runTrips(mod, opts, false);
    EXPECT_EQ(c2.cache().hits(), 0u);
    EXPECT_EQ(c2.cache().misses(), 1u);
    EXPECT_EQ(r.retVal, core::runGolden(mod, nullptr).retVal);
}

TEST(Campaign, DisabledCacheIsPassThrough)
{
    sim::Campaign off;
    const auto &w = workloads::find("vadd");
    auto r = off.runTrips(w, compiler::Options::compiled(), false);
    EXPECT_EQ(r.retVal, core::runGolden(w));
    EXPECT_EQ(off.cache().hits(), 0u);
    EXPECT_EQ(off.cache().misses(), 0u);
    EXPECT_EQ(off.report(), "campaign-cache: disabled");
}
