/**
 * @file
 * Robustness / resilience tests (DESIGN.md §8):
 *
 *  - Error taxonomy: Status formatting, transience classification,
 *    structured throw/catch plumbing.
 *  - Register pressure beyond the 116 allocatable registers is
 *    handled, not fatal: the historically allocator-exhausting fuzz
 *    seed (quarantined as a CompileError from PR 6 until the spill
 *    pass landed) now compiles through spill-to-memory, stays
 *    golden-equivalent across models, and no longer appears in a
 *    guarded sweep's quarantine ledger.
 *  - runGuarded: watchdog timeouts, transient-error retry with
 *    backoff, structured-failure capture.
 *  - Deterministic fault injection (sim/faultio): a matrix of >= 200
 *    injected I/O faults across checkpoint and campaign-cache paths,
 *    asserting the contract — every fault is a clean miss, a
 *    structured TripsError, or a counted degradation; never a crash,
 *    never a silently wrong result.
 *  - Campaign cache hygiene: corrupt/stale/degraded-write counters and
 *    fsck repair of a cache left behind by a mid-sweep kill.
 *  - Sampling accuracy tolerance: CPB spread beyond maxCpbSpread
 *    degrades gracefully to full detail.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/machines.hh"
#include "harness/diff.hh"
#include "harness/fuzzgen.hh"
#include "harness/guard.hh"
#include "harness/sweep.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/faultio.hh"
#include "sim/sampling.hh"
#include "support/error.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;
namespace fs = std::filesystem;

namespace {

/**
 * The pinned high-pressure fuzz shape: at this scale the generator
 * can produce functions whose cross-region live values exceed the 116
 * general registers the allocator can assign. Seed FATAL_SEED is a
 * specific reproducer (found by sweeping): before the spill pass it
 * was the repo's canonical fatal CompileError. Since oversized regions
 * shrink only their own budget it compiles without spilling, so
 * SPILL_SEED (the only seed in 1..1500 of this shape that still
 * spills) is the canonical proof that spilling turns that pressure
 * into a correct, golden-equivalent program.
 */
harness::ShapeConfig
fatalShape()
{
    harness::ShapeConfig s;
    s.helperFuncs = 3;
    s.topStmts = 120;
    s.bodyStmts = 10;
    s.maxDepth = 2;
    return s;
}

constexpr u64 FATAL_SEED = 16;
constexpr u64 SPILL_SEED = 776;

/** Sweep base chosen (by inverting taskSeed's splitmix64) so that
 *  taskSeed(FATAL_BASE, 0) == FATAL_SEED: a guarded sweep from this
 *  base meets the high-pressure program at index 0. */
constexpr u64 FATAL_BASE = 17707284481778151765ULL;

/** Fresh scratch directory under the system temp dir. */
std::string
scratchDir(const char *tag)
{
    fs::path p = fs::temp_directory_path() /
                 (std::string("tripsim_robust_") + tag);
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

std::string
scratchFile(const char *name)
{
    fs::path p = fs::temp_directory_path() / name;
    fs::remove(p);
    return p.string();
}

/** A small deterministic checkpoint to push through faulty I/O. */
sim::Checkpoint
smallCheckpoint()
{
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    fsim.run(50);
    sim::Checkpoint ck;
    fsim.snapshot(ck);
    return ck;
}

/** Uninstall any fault plan even if a test body throws/fails. */
struct FaultioGuard
{
    ~FaultioGuard() { sim::faultio::uninstall(); }
};

} // namespace

// ---------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------

TEST(ErrorTaxonomy, StatusFormatsAndClassifies)
{
    Status ok = okStatus();
    EXPECT_TRUE(ok.ok());
    EXPECT_FALSE(ok.transient());

    Status st = makeStatus(ErrCode::CorruptData, Subsys::Sim,
                           "seal mismatch", "file.trun");
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(st.transient());
    EXPECT_EQ(st.str(), "sim: corrupt-data: seal mismatch [file.trun]");

    // Only I/O-ish failures are worth retrying.
    EXPECT_TRUE(makeStatus(ErrCode::IoError, Subsys::Sim, "x").transient());
    EXPECT_TRUE(makeStatus(ErrCode::NoSpace, Subsys::Sim, "x").transient());
    EXPECT_FALSE(
        makeStatus(ErrCode::Timeout, Subsys::Harness, "x").transient());
    EXPECT_FALSE(
        makeStatus(ErrCode::InvalidConfig, Subsys::Uarch, "x").transient());

    EXPECT_STREQ(errCodeName(ErrCode::ResourceExhausted),
                 "resource-exhausted");
    EXPECT_STREQ(subsysName(Subsys::Compiler), "compiler");
}

TEST(ErrorTaxonomy, ThrowMacroCarriesCodeAndContext)
{
    try {
        TRIPS_THROW(ErrCode::InvalidArgument, Subsys::Support,
                    "bad knob ", 42);
        FAIL() << "TRIPS_THROW did not throw";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::InvalidArgument);
        EXPECT_EQ(e.status().subsys, Subsys::Support);
        EXPECT_NE(e.status().message.find("bad knob 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("invalid-argument"),
                  std::string::npos);
    }
}

TEST(ErrorTaxonomy, CompileErrorIsACatchableTripsError)
{
    CompileError ce(ErrCode::ResourceExhausted, "out of registers",
                    "main");
    EXPECT_EQ(ce.status().subsys, Subsys::Compiler);
    EXPECT_EQ(ce.code(), ErrCode::ResourceExhausted);
    // Campaign drivers catch the base class.
    try {
        throw CompileError(ErrCode::Internal, "x");
    } catch (const TripsError &e) {
        EXPECT_EQ(e.status().subsys, Subsys::Compiler);
    }
}

// ---------------------------------------------------------------------
// Register pressure beyond 116: spilled, never fatal
// ---------------------------------------------------------------------

TEST(RegallocExhaustion, PinnedFuzzSeedCompilesViaSpilling)
{
    auto mod = harness::generate(SPILL_SEED, fatalShape());
    compiler::CompileStats cs;
    // Must not throw: pressure beyond 116 is the spill pass's job now.
    compiler::compileToTrips(mod, compiler::Options::compiled(), &cs);

    // And it must have been the spill pass that saved it, not luck.
    EXPECT_GT(cs.spilledValues, 0u);
    EXPECT_GT(cs.spillSlots, 0u);
    EXPECT_GT(cs.spillLoads, 0u);
    EXPECT_GT(cs.spillStores, 0u);
    EXPECT_GE(cs.spillRounds, 1u);
}

TEST(RegallocExhaustion, PinnedFuzzSeedIsGoldenEquivalentAcrossModels)
{
    // The full 6-model differential oracle, with the TIL verifier on:
    // spilled code must not just run, it must agree with the WIR
    // interpreter and every simulator tier bit-for-bit.
    harness::DiffOptions opts;
    opts.verifyTil = true;
    auto r = harness::diffOne(SPILL_SEED, fatalShape(), opts);
    EXPECT_TRUE(r.ok) << r.divergence << "\nrepro: " << r.reproCmd();
}

TEST(RegallocExhaustion, GuardedSweepNoLongerQuarantinesTheSeed)
{
    ASSERT_EQ(harness::taskSeed(FATAL_BASE, 0), FATAL_SEED)
        << "taskSeed mapping changed; recompute FATAL_BASE";

    std::string ledgerPath =
        scratchFile("tripsim_robust_quarantine.jsonl");
    harness::QuarantineLedger ledger(ledgerPath);
    harness::SweepPool pool(1);
    harness::GuardConfig gcfg;  // no watchdog: guard = classification
    auto res = harness::sweepDiffGuarded(pool, FATAL_BASE, 2,
                                         fatalShape(), {}, gcfg, ledger);

    // Both tasks complete; nothing is quarantined, nothing diverges,
    // and the ledger stays empty — seed 16 is an ordinary seed now.
    EXPECT_EQ(res.quarantined, 0u);
    EXPECT_EQ(res.completed, 2u);
    EXPECT_EQ(res.timeouts, 0u);
    EXPECT_TRUE(res.divergences.empty());
    EXPECT_EQ(ledger.entries(), 0u);

    std::ifstream in(ledgerPath);
    std::string line;
    while (std::getline(in, line))
        EXPECT_EQ(line.find("\"seed\":16"), std::string::npos) << line;
    fs::remove(ledgerPath);
}

// ---------------------------------------------------------------------
// runGuarded: watchdog, retry, classification
// ---------------------------------------------------------------------

TEST(Guard, SuccessNeedsOneAttempt)
{
    auto o = harness::runGuarded({}, [] {});
    EXPECT_TRUE(o.ok);
    EXPECT_FALSE(o.timedOut);
    EXPECT_EQ(o.attempts, 1u);
}

TEST(Guard, StructuredFailureIsCapturedNotRetried)
{
    harness::GuardConfig cfg;
    cfg.retries = 3;
    cfg.backoffBaseMs = 1;
    auto o = harness::runGuarded(cfg, [] {
        TRIPS_THROW(ErrCode::InvalidConfig, Subsys::Uarch, "bad chip");
    });
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.attempts, 1u);  // InvalidConfig is not transient
    EXPECT_EQ(o.error.code, ErrCode::InvalidConfig);
    EXPECT_EQ(o.error.subsys, Subsys::Uarch);
}

TEST(Guard, TransientErrorsRetryWithBackoffThenSucceed)
{
    harness::GuardConfig cfg;
    cfg.retries = 3;
    cfg.backoffBaseMs = 1;
    auto flaky = std::make_shared<std::atomic<int>>(0);
    auto o = harness::runGuarded(cfg, [flaky] {
        if (flaky->fetch_add(1) < 2)
            TRIPS_THROW(ErrCode::IoError, Subsys::Sim, "flaky disk");
    });
    EXPECT_TRUE(o.ok);
    EXPECT_EQ(o.attempts, 3u);
}

TEST(Guard, TransientErrorsGiveUpAfterRetriesExhausted)
{
    harness::GuardConfig cfg;
    cfg.retries = 2;
    cfg.backoffBaseMs = 1;
    auto o = harness::runGuarded(cfg, [] {
        TRIPS_THROW(ErrCode::NoSpace, Subsys::Sim, "disk full");
    });
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.attempts, 3u);  // 1 + 2 retries
    EXPECT_EQ(o.error.code, ErrCode::NoSpace);
}

TEST(Guard, ForeignExceptionsBecomeInternal)
{
    auto o = harness::runGuarded({}, [] {
        throw std::runtime_error("unexpected");
    });
    EXPECT_FALSE(o.ok);
    EXPECT_EQ(o.error.code, ErrCode::Internal);
    EXPECT_NE(o.error.message.find("unexpected"), std::string::npos);
}

TEST(Guard, WatchdogTimesOutStuckTasks)
{
    harness::GuardConfig cfg;
    cfg.timeoutMs = 50;
    cfg.retries = 5;  // timeouts must NOT be retried
    cfg.backoffBaseMs = 1;
    // The task captures nothing from this stack frame: its detached
    // thread may outlive the test body.
    auto o = harness::runGuarded(cfg, [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
    });
    EXPECT_FALSE(o.ok);
    EXPECT_TRUE(o.timedOut);
    EXPECT_EQ(o.attempts, 1u);
    EXPECT_EQ(o.error.code, ErrCode::Timeout);
    // Let the detached sleeper drain before the process exits.
    std::this_thread::sleep_for(std::chrono::milliseconds(450));
}

TEST(Guard, WatchdogPassesFastTasks)
{
    harness::GuardConfig cfg;
    cfg.timeoutMs = 5000;
    auto o = harness::runGuarded(cfg, [] {});
    EXPECT_TRUE(o.ok);
    EXPECT_FALSE(o.timedOut);
}

// ---------------------------------------------------------------------
// Quarantine ledger
// ---------------------------------------------------------------------

TEST(QuarantineLedger, AppendsSelfContainedJsonLines)
{
    std::string path = scratchFile("tripsim_robust_ledger.jsonl");
    harness::QuarantineLedger ledger(path);
    EXPECT_TRUE(ledger.enabled());

    ledger.record(7, "funcs=1 top=2",
                  makeStatus(ErrCode::Timeout, Subsys::Harness,
                             "task exceeded deadline"),
                  "build/sweep_main --repro 7");
    ledger.record(9, "shape \"quoted\"",
                  makeStatus(ErrCode::CorruptData, Subsys::Sim,
                             "line1\nline2"),
                  "cmd");
    EXPECT_EQ(ledger.entries(), 2u);

    std::ifstream in(path);
    std::string l1, l2, extra;
    ASSERT_TRUE(std::getline(in, l1));
    ASSERT_TRUE(std::getline(in, l2));
    EXPECT_FALSE(std::getline(in, extra));

    // The deterministic prefix is pinned exactly; the trailing
    // elapsed_ms field is wall-clock so only its presence is checked.
    std::string prefix1 =
        "{\"seq\":1,\"seed\":7,\"shape\":\"funcs=1 top=2\","
        "\"subsys\":\"harness\",\"code\":\"timeout\","
        "\"message\":\"task exceeded deadline\","
        "\"repro\":\"build/sweep_main --repro 7\",\"elapsed_ms\":";
    EXPECT_EQ(l1.substr(0, prefix1.size()), prefix1) << l1;
    EXPECT_EQ(l1.back(), '}');
    // Records carry a monotonic sequence number.
    EXPECT_EQ(l2.substr(0, 9), "{\"seq\":2,") << l2;
    // Embedded quotes and newlines must stay on one escaped line.
    EXPECT_NE(l2.find("\\\"quoted\\\""), std::string::npos) << l2;
    EXPECT_NE(l2.find("line1\\nline2"), std::string::npos) << l2;
    EXPECT_NE(l2.find("\"elapsed_ms\":"), std::string::npos) << l2;
    fs::remove(path);
}

TEST(QuarantineLedger, DisabledLedgerOnlyCounts)
{
    harness::QuarantineLedger off;
    EXPECT_FALSE(off.enabled());
    off.record(1, "s", makeStatus(ErrCode::Internal, Subsys::Sim, "m"),
               "r");
    EXPECT_EQ(off.entries(), 1u);
}

TEST(QuarantineLedger, JsonEscapeHandlesControlCharacters)
{
    EXPECT_EQ(harness::jsonEscape("plain"), "plain");
    EXPECT_EQ(harness::jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(harness::jsonEscape("x\n\t\r"), "x\\n\\t\\r");
    EXPECT_EQ(harness::jsonEscape(std::string("\x01", 1)), "\\u0001");
}

// ---------------------------------------------------------------------
// Campaign cache hygiene: counters + fsck
// ---------------------------------------------------------------------

TEST(CacheHygiene, CorruptAndStaleMissesAreClassified)
{
    std::string dir = scratchDir("counters");
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto opts = compiler::Options::compiled();

    sim::Campaign c1(dir);
    auto ref = c1.runTrips(mod, opts, false);
    ASSERT_EQ(c1.cache().misses(), 1u);

    // Exactly one .trun entry; truncate it mid-payload.
    std::string entry;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".trun")
            entry = e.path().string();
    ASSERT_FALSE(entry.empty());
    std::vector<u8> bytes;
    ASSERT_TRUE(sim::readFile(entry, bytes));
    std::vector<u8> cut(bytes.begin(),
                        bytes.begin() + bytes.size() / 2);
    ASSERT_TRUE(sim::writeFileAtomic(entry, cut).ok());

    sim::Campaign c2(dir);
    auto r2 = c2.runTrips(mod, opts, false);
    EXPECT_EQ(r2.retVal, ref.retVal);  // re-ran, same answer
    EXPECT_EQ(c2.cache().hits(), 0u);
    EXPECT_EQ(c2.cache().misses(), 1u);
    EXPECT_EQ(c2.cache().corrupt(), 1u);
    EXPECT_EQ(c2.cache().stale(), 0u);

    // Replace with a CRC-intact record of the wrong magic: a *stale*
    // miss (an artifact of another format, not disk corruption). Must
    // clear the 24-byte minimum or it would classify as truncated.
    sim::ByteWriter w;
    w.u32v(0xdeadbeef);
    w.u32v(1);
    w.u64v(0);
    w.u64v(0);
    w.sealCrc();
    ASSERT_TRUE(sim::writeFileAtomic(entry, w.data()).ok());

    sim::Campaign c3(dir);
    auto r3 = c3.runTrips(mod, opts, false);
    EXPECT_EQ(r3.retVal, ref.retVal);
    EXPECT_EQ(c3.cache().corrupt(), 0u);
    EXPECT_EQ(c3.cache().stale(), 1u);

    // And the miss re-stored a good entry: warm hit again.
    sim::Campaign c4(dir);
    auto r4 = c4.runTrips(mod, opts, false);
    EXPECT_EQ(c4.cache().hits(), 1u);
    EXPECT_EQ(r4.retVal, ref.retVal);
    fs::remove_all(dir);
}

TEST(CacheHygiene, PriorEraCacheReadsAsStaleMissNotCorrupt)
{
    // Per-region overflow shrinking changed compiled programs and
    // bumped SIM_VERSION to sim-4 (sim-3 was the move to the
    // pre-decoded engine); entries recorded by an older era must never
    // be served. Pin the bump first: if this string regresses, old-era
    // entries share keys with current runs.
    ASSERT_STREQ(sim::SIM_VERSION, "tripsim-sim-4");

    std::string dir = scratchDir("prior-era");
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto opts = compiler::Options::compiled();

    sim::Campaign warm(dir);
    auto ref = warm.runTrips(mod, opts, false);
    std::string entry;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".trun")
            entry = e.path().string();
    ASSERT_FALSE(entry.empty());

    // Because SIM_VERSION is hashed into the key, an old-era entry
    // lives under a filename today's keys never probe: an old-era
    // cache directory is all plain absent-file misses — re-simulate,
    // nothing counted corrupt. Model it by moving the entry aside.
    std::string aside = entry + ".old-era";
    fs::rename(entry, aside);
    sim::Campaign cold(dir);
    auto r1 = cold.runTrips(mod, opts, false);
    EXPECT_EQ(r1.retVal, ref.retVal);
    EXPECT_EQ(cold.cache().hits(), 0u);
    EXPECT_EQ(cold.cache().misses(), 1u);
    EXPECT_EQ(cold.cache().corrupt(), 0u);
    EXPECT_EQ(cold.cache().stale(), 0u);

    // Defense in depth for a key-regime change: if an intact old-era
    // record *does* land at a probed path (fabricate one by placing
    // the old-era bytes under a different key's filename), the
    // embedded-key check must classify it as a *stale* miss — another
    // build's artifact, not disk corruption — and overwrite it.
    std::vector<u8> oldBytes;
    ASSERT_TRUE(sim::readFile(aside, oldBytes));
    std::string stem = fs::path(entry).stem().string();
    stem[0] = stem[0] == '0' ? '1' : '0';
    std::string foreign = dir + "/" + stem + ".trun";
    ASSERT_TRUE(sim::writeFileAtomic(foreign, oldBytes).ok());
    sim::CampaignCache probe(dir);
    sim::CacheKey fk;
    ASSERT_EQ(stem.size(), 32u);
    for (int i = 0; i < 16; ++i) {
        fk.hi = fk.hi << 4 |
                static_cast<u64>(std::stoi(stem.substr(i, 1), nullptr,
                                           16));
        fk.lo = fk.lo << 4 |
                static_cast<u64>(std::stoi(stem.substr(16 + i, 1),
                                           nullptr, 16));
    }
    core::TripsRun out;
    EXPECT_FALSE(probe.lookup(fk, out));
    EXPECT_EQ(probe.corrupt(), 0u);
    EXPECT_EQ(probe.stale(), 1u);
    fs::remove_all(dir);
}

TEST(CacheHygiene, WriteFailureDegradesToUncached)
{
    std::string dir = scratchDir("degraded");
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto opts = compiler::Options::compiled();

    sim::Campaign camp(dir);
    // Yank the directory out from under the cache: the store's temp
    // file cannot be created, which must degrade, not throw.
    fs::remove_all(dir);
    auto r = camp.runTrips(mod, opts, false);
    EXPECT_EQ(r.retVal, core::runGolden(mod, nullptr).retVal);
    EXPECT_EQ(camp.cache().degradedWrites(), 1u);
    EXPECT_EQ(camp.cache().misses(), 1u);
}

TEST(CacheHygiene, CampaignCtorThrowsWhenDirectoryCannotBeMade)
{
    // A path under a regular file can never become a directory.
    std::string blocker = scratchFile("tripsim_robust_blocker");
    std::ofstream(blocker) << "file";
    try {
        sim::CampaignCache cache(blocker + "/sub");
        FAIL() << "CampaignCache accepted an impossible directory";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::IoError);
    }
    fs::remove(blocker);
}

TEST(CacheHygiene, FsckRemovesCorruptEntriesAndOrphanedTemps)
{
    std::string dir = scratchDir("fsck");
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto opts = compiler::Options::compiled();

    sim::Campaign camp(dir);
    camp.runTrips(mod, opts, false);           // one good entry

    // A torn write that never completed: orphaned temp file.
    std::ofstream(dir + "/deadbeef.trun.tmp1234") << "partial";
    // A second entry whose seal is broken (simulated torn final write).
    std::ofstream(dir + "/" + std::string(32, '0') + ".trun")
        << "torn bytes";

    sim::CampaignCache cache(dir);
    auto rep = cache.fsck();
    EXPECT_EQ(rep.scanned, 2u);
    EXPECT_EQ(rep.okEntries, 1u);
    EXPECT_EQ(rep.removedCorrupt, 1u);
    EXPECT_EQ(rep.removedTmp, 1u);
    EXPECT_EQ(rep.str(),
              "cache-fsck: scanned=2 ok=1 removed-corrupt=1 "
              "removed-tmp=1");

    // The survivor still hits.
    sim::Campaign after(dir);
    after.runTrips(mod, opts, false);
    EXPECT_EQ(after.cache().hits(), 1u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

TEST(FaultInjection, PlanIsDeterministicAcrossReplays)
{
    FaultioGuard cleanup;
    std::string path = scratchFile("tripsim_robust_det.bin");
    std::vector<u8> payload(256, 0xab);

    auto replay = [&] {
        sim::faultio::FaultPlan plan;
        plan.seed = 99;
        plan.period = 2;
        sim::faultio::install(plan);
        // Record only plan-determined facts: codes and read success.
        // (Error *messages* embed temp-file names built from a global
        // op counter that is intentionally not part of the plan.)
        std::vector<std::string> log;
        for (int i = 0; i < 64; ++i) {
            Status st = sim::writeFileAtomic(path, payload);
            std::vector<u8> back;
            bool rd = sim::readFile(path, back);
            log.push_back(std::string(errCodeName(st.code)) + "/" +
                          (rd ? "r" : "-"));
        }
        auto s = sim::faultio::stats();
        sim::faultio::uninstall();
        log.push_back(s.describe());
        return log;
    };

    auto a = replay(), b = replay();
    EXPECT_EQ(a, b);
    EXPECT_FALSE(sim::faultio::active());
    fs::remove(path);
}

TEST(FaultInjection, CheckpointPathSurvivesTwoHundredFaults)
{
    FaultioGuard cleanup;
    sim::Checkpoint ck = smallCheckpoint();
    std::string path = scratchFile("tripsim_robust_ck.trcp");

    sim::faultio::FaultPlan plan;
    plan.seed = 4242;
    plan.period = 2;
    sim::faultio::install(plan);

    u64 saves = 0, loads = 0, structuredErrs = 0;
    while (sim::faultio::stats().injected < 200) {
        bool saved = false;
        try {
            sim::saveCheckpoint(path, ck);
            saved = true;
            ++saves;
        } catch (const TripsError &e) {
            // Injected ENOSPC / rename failure: classified, transient.
            EXPECT_TRUE(e.status().transient()) << e.what();
            ++structuredErrs;
        }
        try {
            sim::Checkpoint back = sim::loadCheckpoint(path);
            // A load that *succeeds* must be the exact state we wrote:
            // torn/bit-flipped writes and flipped reads have to be
            // caught by the CRC seal, never returned as data.
            ++loads;
            EXPECT_EQ(back.nextBlock, ck.nextBlock);
            EXPECT_EQ(back.blocksExecuted, ck.blocksExecuted);
            EXPECT_EQ(back.regfile, ck.regfile);
            EXPECT_EQ(sim::diffMemImages(back.mem, ck.mem), "");
        } catch (const TripsError &e) {
            EXPECT_FALSE(e.status().message.empty());
            ++structuredErrs;
        }
        (void)saved;
    }
    auto s = sim::faultio::stats();
    sim::faultio::uninstall();

    EXPECT_GE(s.injected, 200u);
    EXPECT_GT(saves, 0u);
    EXPECT_GT(loads, 0u);
    EXPECT_GT(structuredErrs, 0u);
    // Every fault kind must have fired at least once at this scale.
    for (unsigned k = 1; k < sim::faultio::NUM_KINDS; ++k)
        EXPECT_GT(s.byKind[k], 0u)
            << sim::faultio::kindName(
                   static_cast<sim::faultio::Kind>(k));
    fs::remove(path);
}

TEST(FaultInjection, CampaignCacheNeverServesWrongResultsUnderFaults)
{
    FaultioGuard cleanup;
    std::string dir = scratchDir("faultcache");
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto opts = compiler::Options::compiled();

    // Clean reference result first.
    sim::Campaign clean;
    auto ref = clean.runTrips(mod, opts, false);

    sim::faultio::FaultPlan plan;
    plan.seed = 777;
    plan.period = 2;
    sim::faultio::install(plan);

    u64 runs = 0;
    for (int i = 0; i < 40; ++i) {
        // One Campaign per iteration, like one sweep worker per task.
        sim::Campaign camp(dir);
        auto r = camp.runTrips(mod, opts, false);
        ++runs;
        // The cache may miss, degrade, or hit — but the answer is
        // always the architecturally correct one.
        ASSERT_EQ(r.retVal, ref.retVal) << "iteration " << i;
        ASSERT_EQ(r.isa.blocks, ref.isa.blocks) << "iteration " << i;
    }
    auto s = sim::faultio::stats();
    sim::faultio::uninstall();
    EXPECT_GT(s.injected, 0u);
    EXPECT_EQ(runs, 40u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sampling accuracy tolerance
// ---------------------------------------------------------------------

TEST(SamplingTolerance, ExcessCpbSpreadFallsBackToFullDetail)
{
    wir::Module mod;
    workloads::find("vadd").build(mod);
    auto prog = compiler::compileToTrips(mod,
                                         compiler::Options::compiled());

    sim::SampleConfig scfg;
    scfg.warmupBlocks = 5;
    scfg.measureBlocks = 20;
    scfg.period = 50;

    // Reference: full-detail cycles for this program/config.
    uarch::UarchConfig ucfg;
    MemImage detailMem;
    wir::Interp::loadGlobals(mod, detailMem);
    uarch::CycleSim csim(prog, detailMem, ucfg);
    auto detail = csim.run();

    // An impossibly tight tolerance: any real CPB variation between
    // intervals exceeds it, forcing the graceful fallback.
    sim::SampleConfig tight = scfg;
    tight.maxCpbSpread = 1e-12;
    MemImage mem1;
    wir::Interp::loadGlobals(mod, mem1);
    auto r = sim::runSampled(prog, mem1, ucfg, tight);
    ASSERT_TRUE(r.fullDetail);
    EXPECT_TRUE(r.toleranceFallback);
    EXPECT_EQ(r.estCycles, static_cast<double>(detail.cycles));
    EXPECT_EQ(r.measuredBlocks, detail.blocksCommitted);

    // Tolerance off (default): plain sampled run, no fallback flag.
    MemImage mem2;
    wir::Interp::loadGlobals(mod, mem2);
    auto plain = sim::runSampled(prog, mem2, ucfg, scfg);
    EXPECT_FALSE(plain.toleranceFallback);
    EXPECT_GE(plain.intervals, 2u);
}
