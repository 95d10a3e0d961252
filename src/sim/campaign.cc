#include "sim/campaign.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"

namespace trips::sim {

// ---------------------------------------------------------------------
// Key material serialization. Every field that can change a simulation
// result is written fixed-width into the hash stream; pure debug knobs
// (TIL verification/dumping) are excluded so they never split the key
// space.
// ---------------------------------------------------------------------

void
putModule(ByteWriter &w, const wir::Module &mod)
{
    w.str(mod.mainFunction);
    w.u64v(mod.globals.size());
    for (const auto &g : mod.globals) {
        w.str(g.name);
        w.u64v(g.addr);
        w.u64v(g.size);
        w.u64v(g.init.size());
        w.bytes(g.init.data(), g.init.size());
    }
    w.u64v(mod.functions.size());
    for (const auto &[name, f] : mod.functions) {  // map order: sorted
        w.str(name);
        w.u32v(f.numParams);
        w.u32v(f.nextVreg);
        w.u64v(f.blocks.size());
        for (const auto &bb : f.blocks) {
            w.str(bb.name);
            w.u64v(bb.instrs.size());
            for (const auto &in : bb.instrs) {
                w.u8v(static_cast<u8>(in.op));
                w.u32v(in.dst);
                w.u64v(in.srcs.size());
                for (wir::Vreg s : in.srcs)
                    w.u32v(s);
                w.i64v(in.imm);
                w.f64v(in.fimm);
                w.u8v(in.isFloat);
                w.u8v(static_cast<u8>(in.width));
                w.u8v(in.loadSigned);
                w.str(in.callee);
            }
            w.u8v(static_cast<u8>(bb.term.kind));
            w.u32v(bb.term.cond);
            w.u32v(bb.term.thenBlock);
            w.u32v(bb.term.elseBlock);
            w.u32v(bb.term.retVal);
        }
    }
}

namespace {

void
putOptions(ByteWriter &w, const compiler::Options &o)
{
    w.u8v(o.enablePredication);
    w.u8v(o.speculateArith);
    w.u32v(o.maxUnroll);
    w.u32v(o.unrollBudgetOps);
    w.u32v(o.regionBudgetOps);
    w.u32v(o.maxPredDepth);
    w.u32v(o.regionBudgetMem);
    w.u8v(o.foldImmediates);
}

void
putCacheConfig(ByteWriter &w, const mem::CacheConfig &c)
{
    w.u64v(c.sizeBytes);
    w.u32v(c.assoc);
    w.u32v(c.lineBytes);
}

void
putUarchConfig(ByteWriter &w, const uarch::UarchConfig &c)
{
    w.u32v(c.numFrames);
    w.u32v(c.dispatchPerCycle);
    w.u32v(c.fetchLatency);
    w.u32v(c.l1iHitLatency);
    w.u32v(c.l1dHitLatency);
    w.u32v(c.l2BaseLatency);
    w.u32v(c.l2NucaStep);
    w.u32v(c.commitLatency);
    w.u32v(c.redirectPenalty);
    w.u32v(c.statusLatency);
    putCacheConfig(w, c.l1dBank);
    putCacheConfig(w, c.l1i);
    putCacheConfig(w, c.l2Bank);
    w.u32v(c.dram.channels);
    w.u32v(c.dram.banksPerChannel);
    w.u32v(c.dram.cyclesPerTransfer);
    w.u32v(c.dram.rowHitLatency);
    w.u32v(c.dram.rowMissPenalty);
    w.u32v(c.dram.lineBytes);
    const auto &p = c.predictor;
    w.u32v(p.localEntries);
    w.u32v(p.localHistBits);
    w.u32v(p.localPatternEntries);
    w.u32v(p.globalHistBits);
    w.u32v(p.globalEntries);
    w.u32v(p.choiceEntries);
    w.u32v(p.btbEntries);
    w.u32v(p.ctbEntries);
    w.u32v(p.rasEntries);
    w.u32v(p.btypeEntries);
    w.u32v(c.depPredEntries);
    w.u32v(c.dtServicePeriod);
    w.u32v(c.lsqEntriesPerFrame);
    w.u64v(c.maxCycles);
}

// ---------------------------------------------------------------------
// TripsRun record serialization. The nested records are written from
// their field lists (sim/serial.hh putFields/getFields).
// ---------------------------------------------------------------------

std::vector<u8>
serializeRun(const CacheKey &key, const core::TripsRun &run)
{
    ByteWriter w;
    w.u32v(CAMPAIGN_MAGIC);
    w.u32v(CAMPAIGN_FORMAT);
    w.u64v(key.hi);
    w.u64v(key.lo);
    w.i64v(run.retVal);
    w.u8v(run.funcFuelExhausted);
    w.u8v(run.cycleLevel);
    w.u64v(run.codeBytes);
    putFields(w, run.isa);
    putFields(w, run.compile);
    if (run.cycleLevel)
        putFields(w, run.uarch);
    w.sealCrc();
    return w.data();
}

} // namespace

std::string
CacheKey::hex() const
{
    return hex128(hi, lo);
}

CacheKey
campaignKey(const wir::Module &mod, const compiler::Options &opts,
            const uarch::UarchConfig &ucfg, bool cycle_level)
{
    ByteWriter w;
    w.str(SIM_VERSION);
    w.u32v(CAMPAIGN_FORMAT);
    putModule(w, mod);
    putOptions(w, opts);
    putUarchConfig(w, ucfg);
    w.u8v(cycle_level);
    Fnv128 h;
    h.update(w);
    return CacheKey{h.hi(), h.lo()};
}

// ---------------------------------------------------------------------
// CampaignCache
// ---------------------------------------------------------------------

CampaignCache::CampaignCache(const std::string &dir) : dir_(dir)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        TRIPS_THROW(ErrCode::IoError, Subsys::Sim,
                    "campaign cache: cannot create directory ", dir_,
                    ": ", ec.message());
}

std::string
CampaignCache::path(const CacheKey &key) const
{
    return dir_ + "/" + key.hex() + ".trun";
}

bool
CampaignCache::miss(const CacheKey &key, const char *why, u64 &category)
{
    std::fprintf(stderr,
                 "campaign-cache: ignoring %s (%s); re-running\n",
                 path(key).c_str(), why);
    ++misses_;
    ++category;
    return false;
}

bool
CampaignCache::lookup(const CacheKey &key, core::TripsRun &out)
{
    if (!enabled())
        return false;
    std::vector<u8> bytes;
    if (!readFile(path(key), bytes)) {
        ++misses_;
        return false;
    }
    // Validation failures are misses, never fatals: a campaign must
    // survive a corrupt or stale cache by re-simulating. corrupt_
    // counts broken bytes (torn/flipped/truncated writes), stale_
    // counts intact records from another build or a hash collision.
    if (bytes.size() < 24)
        return miss(key, "truncated", corrupt_);
    if (!sealIntact(bytes.data(), bytes.size()))
        return miss(key, "CRC mismatch", corrupt_);
    // A CRC-valid record from a build with other structural constants
    // (pass/class counts, field layout) must degrade to a miss, never
    // take the campaign down — SerialError is caught below.
    ByteReader r(bytes.data(), bytes.size() - 4, "campaign record");
    try {
        if (r.u32v() != CAMPAIGN_MAGIC)
            return miss(key, "bad magic", stale_);
        if (r.u32v() != CAMPAIGN_FORMAT)
            return miss(key, "other format version", stale_);
        if (r.u64v() != key.hi || r.u64v() != key.lo)
            return miss(key, "key mismatch", stale_);

        core::TripsRun run;
        run.retVal = r.i64v();
        run.funcFuelExhausted = r.u8v();
        run.cycleLevel = r.u8v();
        run.codeBytes = r.u64v();
        getFields(r, run.isa);
        getFields(r, run.compile);
        if (run.cycleLevel)
            getFields(r, run.uarch);
        r.expectEnd();
        out = std::move(run);
    } catch (const SerialError &e) {
        return miss(key, e.message().c_str(), stale_);
    }
    ++hits_;
    return true;
}

void
CampaignCache::store(const CacheKey &key, const core::TripsRun &run)
{
    if (!enabled())
        return;
    Status st = writeFileAtomic(path(key), serializeRun(key, run));
    if (!st.ok()) {
        // Graceful degradation: the run already happened and its
        // result is correct — losing the memo only costs a future
        // re-simulation. Count + warn, never throw.
        ++degradedWrites_;
        std::fprintf(stderr,
                     "campaign-cache: write failed (%s); "
                     "continuing uncached\n", st.str().c_str());
    }
}

FsckReport
CampaignCache::fsck()
{
    FsckReport rep;
    if (!enabled())
        return rep;
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto &ent : fs::directory_iterator(dir_, ec)) {
        if (!ent.is_regular_file())
            continue;
        std::string name = ent.path().filename().string();
        if (name.find(".tmp") != std::string::npos) {
            // Orphaned private temp of a killed or faulted writer.
            fs::remove(ent.path(), ec);
            ++rep.removedTmp;
            continue;
        }
        if (name.size() < 5 ||
            name.compare(name.size() - 5, 5, ".trun") != 0)
            continue;
        ++rep.scanned;
        std::vector<u8> bytes;
        if (readFile(ent.path().string(), bytes) &&
            bytes.size() >= 24 &&
            sealIntact(bytes.data(), bytes.size())) {
            ++rep.okEntries;
            continue;
        }
        fs::remove(ent.path(), ec);
        ++rep.removedCorrupt;
    }
    return rep;
}

std::string
FsckReport::str() const
{
    std::string s = "cache-fsck: scanned=" + std::to_string(scanned);
    s += " ok=" + std::to_string(okEntries);
    s += " removed-corrupt=" + std::to_string(removedCorrupt);
    s += " removed-tmp=" + std::to_string(removedTmp);
    return s;
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

Campaign
Campaign::fromEnv()
{
    const char *dir = std::getenv("TRIPSIM_CACHE");
    return Campaign(dir ? dir : "");
}

core::TripsRun
Campaign::runTrips(const wir::Module &mod, const compiler::Options &opts,
                   bool cycle_level, const uarch::UarchConfig &ucfg)
{
    CacheKey key;
    if (cache_.enabled()) {
        key = campaignKey(mod, opts, ucfg, cycle_level);
        core::TripsRun cached;
        if (cache_.lookup(key, cached)) {
            if (trace_) {
                trace_->instant(obs::TRACE_PID_HARNESS, 1,
                                cache_.hits() + cache_.misses(),
                                "cache hit", "campaign");
            }
            return cached;
        }
    }
    core::TripsRun run = core::runTrips(mod, opts, cycle_level, ucfg);
    cache_.store(key, run);
    if (trace_) {
        trace_->instant(obs::TRACE_PID_HARNESS, 1,
                        cache_.hits() + cache_.misses(), "cache miss",
                        "campaign");
    }
    return run;
}

core::TripsRun
Campaign::runTrips(const workloads::Workload &w,
                   const compiler::Options &opts, bool cycle_level,
                   const uarch::UarchConfig &ucfg)
{
    wir::Module mod;
    w.build(mod);
    core::TripsRun run = runTrips(mod, opts, cycle_level, ucfg);
    // Same guarantees as the uncached workload-level entry point: a
    // registered benchmark must finish and the models must agree —
    // re-checked even on hits, so a poisoned cache cannot smuggle a
    // bad run past the drivers.
    TRIPS_ASSERT(!run.funcFuelExhausted, "functional fuel exhausted on ",
                 w.name);
    if (cycle_level) {
        TRIPS_ASSERT(!run.uarch.fuelExhausted, "cycle fuel exhausted on ",
                     w.name);
        TRIPS_ASSERT(run.uarch.retVal == run.retVal,
                     "cycle/functional mismatch on ", w.name);
    }
    return run;
}

std::string
Campaign::report() const
{
    std::string s = "campaign-cache: ";
    if (!cache_.enabled())
        return s + "disabled";
    // hits/misses stay first and contiguous — CI's warm-cache stage
    // parses "hits=N misses=N" out of this line.
    s += "dir=" + cache_.dir();
    s += " hits=" + std::to_string(cache_.hits());
    s += " misses=" + std::to_string(cache_.misses());
    s += " corrupt=" + std::to_string(cache_.corrupt());
    s += " stale=" + std::to_string(cache_.stale());
    s += " degraded-writes=" + std::to_string(cache_.degradedWrites());
    return s;
}

} // namespace trips::sim
