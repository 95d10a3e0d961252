/**
 * @file
 * Campaign cache: a persistent, content-addressed memo of simulator
 * results, plus the Campaign runner the stats/figure/sweep drivers go
 * through.
 *
 * The paper's evaluation is thousands of (workload x compiler options
 * x machine configuration) simulator runs, and the drivers historically
 * re-compiled and re-simulated all of them on every invocation. The
 * cache keys each run by a 128-bit content hash of everything that
 * determines its result:
 *
 *   hash(SIM_VERSION, record format, canonical module bytes,
 *        compiler Options, UarchConfig, cycle-level flag)
 *
 * and memoizes the full TripsRun record (functional + compile +
 * cycle-level statistics) in one CRC-sealed file per key under the
 * cache directory. A warm re-run of a whole campaign therefore
 * performs zero simulation and reproduces the cold run bit-for-bit
 * (enforced by tests and the CI campaign stage). Invalid or stale
 * entries (bad CRC, other format version, hash collision) are treated
 * as misses and overwritten, never trusted.
 *
 * SIM_VERSION must be bumped whenever simulator or compiler semantics
 * change observably — it is the cache's only defense against serving
 * results from an older model.
 */

#ifndef TRIPSIM_SIM_CAMPAIGN_HH
#define TRIPSIM_SIM_CAMPAIGN_HH

#include <string>

#include "core/machines.hh"
#include "sim/serial.hh"

namespace trips::obs {
class TraceSink;
}

namespace trips::sim {

/** Semantic version of the simulators + compiler. Part of every cache
 *  key: bump on any change that alters simulation results — or could.
 *  sim-3: functional runs moved to the pre-decoded engine, whose
 *  results are pinned by golden digests (tests/test_predecode.cc);
 *  entries recorded by an older engine must not outlive the check
 *  that says so. Later engine changes that keep those digests
 *  byte-identical keep the version.
 *  sim-4: an oversized region now shrinks only its own budget, so
 *  some programs compile to different blocks (and run different
 *  cycle counts) from the same module and Options; entries recorded
 *  under sim-3 describe the old code and must not be served. */
constexpr const char *SIM_VERSION = "tripsim-sim-4";

/** Byte-format version of the cached TripsRun record. */
constexpr u32 CAMPAIGN_FORMAT = 2;
constexpr u32 CAMPAIGN_MAGIC = 0x4e525254;  // "TRRN" little-endian

struct CacheKey
{
    u64 hi = 0;
    u64 lo = 0;

    /** 32 hex digits; the cache file stem. */
    std::string hex() const;

    bool operator==(const CacheKey &o) const = default;
};

/** Canonical byte serialization of a WIR module (deterministic:
 *  functions in map order, every field fixed-width). The "module
 *  bytes" component of the cache key. */
void putModule(ByteWriter &w, const wir::Module &mod);

/** Content-address a (module, options, config, model) simulation. */
CacheKey campaignKey(const wir::Module &mod,
                     const compiler::Options &opts,
                     const uarch::UarchConfig &ucfg, bool cycle_level);

/** Result of a CampaignCache::fsck() scan. */
struct FsckReport
{
    u64 scanned = 0;        ///< .trun entries examined
    u64 okEntries = 0;      ///< entries with an intact CRC seal
    u64 removedCorrupt = 0; ///< truncated/corrupt entries deleted
    u64 removedTmp = 0;     ///< orphaned temp files garbage-collected

    /** "cache-fsck: scanned=.. ok=.. ..." summary line. */
    std::string str() const;
};

/** On-disk content-addressed store of TripsRun records. */
class CampaignCache
{
  public:
    /** Disabled cache: lookup always misses, store is a no-op. */
    CampaignCache() = default;

    /** Backed by @p dir (created if missing; "" = disabled).
     *  Throws TripsError{IoError} if the directory cannot be made. */
    explicit CampaignCache(const std::string &dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** Fetch a record; false on miss (absent/corrupt/stale/other
     *  version — corrupt entries are never trusted). */
    bool lookup(const CacheKey &key, core::TripsRun &out);

    /** Persist a record (atomic write; overwrites stale entries).
     *  A failed write degrades to uncached execution: it is counted
     *  in degradedWrites() and warned about, never thrown. */
    void store(const CacheKey &key, const core::TripsRun &run);

    /**
     * Repair a cache left behind by a mid-sweep kill or disk fault:
     * deletes .trun entries whose CRC seal is broken (truncated, torn
     * or flipped writes) and garbage-collects orphaned .tmp files.
     * Stale-but-intact entries (other format version) are kept — they
     * are overwritten naturally on the next store.
     */
    FsckReport fsck();

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }
    /** Misses caused by a broken CRC seal / truncated record. */
    u64 corrupt() const { return corrupt_; }
    /** Misses caused by an intact record from another build/format. */
    u64 stale() const { return stale_; }
    /** Store attempts that failed and degraded to uncached. */
    u64 degradedWrites() const { return degradedWrites_; }

  private:
    std::string path(const CacheKey &key) const;
    bool miss(const CacheKey &key, const char *why, u64 &category);

    std::string dir_;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 corrupt_ = 0;
    u64 stale_ = 0;
    u64 degradedWrites_ = 0;
};

/**
 * Campaign runner: the cache-aware front door to TRIPS simulation.
 * Drop-in for core::runTrips — on a hit the memoized TripsRun is
 * returned without compiling or simulating anything.
 *
 * Not thread-safe (hit/miss counters); parallel sweeps construct one
 * Campaign per worker over the same directory. That composes safely:
 * stores are atomic renames from per-call temp files, and readers
 * only trust CRC-sealed complete records.
 */
class Campaign
{
  public:
    /** Pass-through (no cache). */
    Campaign() = default;

    /** Caching under @p cache_dir ("" = pass-through). */
    explicit Campaign(const std::string &cache_dir) : cache_(cache_dir) {}

    /** Configured from $TRIPSIM_CACHE (unset/empty = pass-through);
     *  how the figure benches opt in without new flags. */
    static Campaign fromEnv();

    /** Cached equivalent of the module-level core::runTrips. */
    core::TripsRun runTrips(const wir::Module &mod,
                            const compiler::Options &opts,
                            bool cycle_level,
                            const uarch::UarchConfig &ucfg =
                                uarch::UarchConfig{});

    /** Cached equivalent of the workload-level core::runTrips
     *  (fuel exhaustion is fatal, like the uncached entry point). */
    core::TripsRun runTrips(const workloads::Workload &w,
                            const compiler::Options &opts,
                            bool cycle_level,
                            const uarch::UarchConfig &ucfg =
                                uarch::UarchConfig{});

    const CampaignCache &cache() const { return cache_; }

    /** One-line machine-readable summary, e.g.
     *  "campaign-cache: dir=/x hits=70 misses=0 corrupt=0 stale=0
     *  degraded-writes=0" (hits/misses first — CI parses them). */
    std::string report() const;

    /** Emit a trace instant per cache lookup (hit or miss; see
     *  obs/trace.hh); null detaches. Timestamps are the lookup
     *  ordinal, not cycles — the campaign has no cycle domain. */
    void attachTrace(obs::TraceSink *t) { trace_ = t; }

  private:
    CampaignCache cache_;
    obs::TraceSink *trace_ = nullptr;
};

} // namespace trips::sim

#endif // TRIPSIM_SIM_CAMPAIGN_HH
