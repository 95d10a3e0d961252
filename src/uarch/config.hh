/**
 * @file
 * Configuration of the cycle-level TRIPS processor model. Defaults
 * follow the prototype: 8 in-flight 128-instruction blocks (1 non-
 * speculative + 7 speculative), 16 single-issue execution tiles, four
 * 8KB L1D banks, 80KB L1I, 1MB NUCA L2 in sixteen 64KB banks, dual
 * DDR-200 memory controllers at a 366MHz core clock.
 */

#ifndef TRIPSIM_UARCH_CONFIG_HH
#define TRIPSIM_UARCH_CONFIG_HH

#include <string>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/memsys.hh"
#include "pred/predictors.hh"

namespace trips::uarch {

struct UarchConfig
{
    unsigned numFrames = 8;
    unsigned dispatchPerCycle = 16;   ///< GDN bandwidth (insts/cycle)
    unsigned fetchLatency = 2;        ///< GT -> IT command
    unsigned l1iHitLatency = 2;
    unsigned l1dHitLatency = 2;
    unsigned l2BaseLatency = 9;
    unsigned l2NucaStep = 2;          ///< extra cycles per bank hop
    unsigned commitLatency = 4;       ///< completion/commit protocol
    unsigned redirectPenalty = 3;     ///< flush-to-refetch bubble
    unsigned statusLatency = 2;       ///< DT/RT -> GT completion note

    mem::CacheConfig l1dBank{8 * 1024, 2, 64};     // x4 banks
    mem::CacheConfig l1i{80 * 1024, 5, 128};
    mem::CacheConfig l2Bank{64 * 1024, 4, 64};     // x16 banks
    mem::DramConfig dram{};

    pred::NextBlockConfig predictor = pred::NextBlockConfig::prototype();
    unsigned depPredEntries = 1024;

    /** Cycles a DT bank is busy per serviced memory request (1 =
     *  prototype: one LSQ dequeue per bank per cycle). */
    unsigned dtServicePeriod = 1;

    /** LSQ capacity per in-flight block; the hardware provides one
     *  entry per LSID, so 32 (the architectural LSID space) means
     *  unconstrained. Blocks whose memory-instruction count exceeds
     *  this are rejected at simulation start. */
    unsigned lsqEntriesPerFrame = 32;

    /** Stop simulation after this many cycles (safety). */
    u64 maxCycles = 400'000'000;

    /**
     * Validate the configuration against the model's structural
     * limits. Returns "" when usable, else a description of the first
     * violated constraint. CycleSim fatals on an invalid config, so
     * sweep drivers should call this before launching a run.
     */
    std::string validate() const;

    // ---- named variants (all validated by construction) -------------

    /** The TRIPS prototype configuration (= the defaults). */
    static UarchConfig prototype() { return UarchConfig{}; }

    /** Reduced speculation window: 2 frames instead of 8 (Fig. 6
     *  occupancy sensitivity). */
    static UarchConfig smallWindow();

    /** Narrow front end and memory pipes: quarter dispatch bandwidth,
     *  half-rate DT service. (The LSQ capacity knob is left at the
     *  architectural 32: it is a structural fit constraint, and the
     *  compiler's hand preset emits blocks with up to 28 memory ops.) */
    static UarchConfig narrowIssue();

    /** Starved memory hierarchy: 1KB L1D banks, 8KB L2 banks, a
     *  16-entry dependence predictor. */
    static UarchConfig tinyMemory();
};

/**
 * Uncore (shared NUCA L2 + OCN + DRAM) configuration implied by a
 * per-core config. With num_cores == 1 the resulting MemorySystem is
 * timing-bit-identical to the classic private hierarchy: the OCN hop
 * latency is the config's l2NucaStep and contention is cross-core
 * only.
 */
mem::MemorySystemConfig uncoreConfig(const UarchConfig &c,
                                     unsigned num_cores = 1);

/**
 * Chip stepping discipline. Serial is the lockstep reference: one
 * thread steps all cores in core-id order each chip cycle (the
 * historical, bit-pinned mode). Parallel is the relaxed-quantum
 * engine: one worker thread per core advances up to `quantum` cycles
 * between barrier syncs, with shared-uncore traffic buffered and
 * replayed in pinned order at each barrier (see uarch/chip_parallel.hh
 * and DESIGN.md §11) -- architecturally identical to Serial and
 * deterministic for a fixed (mix, config, quantum), independent of
 * thread count and scheduling.
 */
enum class ChipEngine : u8 { Serial, Parallel };

const char *chipEngineName(ChipEngine e);

/**
 * Configuration of a ChipSim: N identical cores (1..16) sharing one
 * uncore. The prototype chip is two processors over the 1MB NUCA L2
 * (paper Table 1); larger counts model the consolidation chips the
 * paper never built.
 */
struct ChipConfig
{
    UarchConfig core;             ///< per-core configuration (xN)
    unsigned numCores = 2;

    // Uncore knobs layered over uncoreConfig(core, numCores).
    unsigned bankServicePeriod = 1;
    /** Per-core physical offset; see MemorySystemConfig::physStride. */
    Addr physStride = Addr{1} << 30;
    /** Physical map width; numCores x physStride must fit (see
     *  MemorySystemConfig::physAddrBits). */
    unsigned physAddrBits = 34;

    // Stepping engine (timing-policy only: architectural results are
    // engine-invariant, asserted by tests/test_chip_parallel.cc).
    ChipEngine engine = ChipEngine::Serial;
    /** Parallel engine: cycles a core may advance between barrier
     *  syncs. Larger = less sync overhead, coarser cross-core
     *  contention timing; ignored by the Serial engine. */
    unsigned quantum = 1024;
    /** Parallel engine: cap on concurrently-stepping worker threads
     *  (0 = one per core). Any value yields identical results. */
    unsigned threads = 0;

    /** "" when usable, else the first violated constraint. ChipSim
     *  fatals on an invalid config. */
    std::string validate() const;

    /** The MemorySystemConfig this chip instantiates. */
    mem::MemorySystemConfig uncore() const;

    /** The prototype chip: two prototype cores, shared 1MB L2. */
    static ChipConfig prototype() { return ChipConfig{}; }
};

} // namespace trips::uarch

#endif // TRIPSIM_UARCH_CONFIG_HH
