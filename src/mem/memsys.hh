/**
 * @file
 * The shared uncore of the TRIPS chip: the 1MB NUCA L2 (16 banks),
 * the dual-channel DRAM controllers, and the OCN that connects them
 * to the processors (paper §2, Table 1). Extracted from the
 * single-core cycle simulator so N cores can share one instance.
 *
 * Cores reach the uncore through a request/response *port*: access()
 * takes a MemRequest stamped with the requesting core and L1 bank and
 * returns the completion cycle plus what happened (L2 hit, dirty
 * victim, queuing delay). The latency model is exactly the one the
 * single-core simulator always used -- l2BaseLatency + OCN request
 * traversal (hopLatency x NUCA hops + injection-port offset), DRAM
 * timing on a miss, and a half-latency reply leg -- so a single-core
 * configuration is bit-identical to the pre-extraction simulator.
 *
 * Contention is cross-core only by construction: an L2 bank accepts
 * one request per bankServicePeriod from *other* cores' traffic, so
 * a core never queues behind itself (the single-core model never
 * modeled self-queuing, and keeping it that way preserves the pinned
 * goldens) but does queue behind the other processor of the chip.
 * Each core's addresses are offset by physStride before they touch
 * the L2 tags, the bank map, or DRAM, modeling the disjoint physical
 * allocations of a multi-programmed mix; core 0's physical addresses
 * are unchanged.
 *
 * Timing-free traffic: L1/L2 dirty-victim writebacks are accounted
 * (counters + OCN Writeback-class traffic) but consume no bank or
 * DRAM bandwidth -- the prototype drains them through write buffers
 * in idle slots, and modeling that would perturb the pinned solo
 * timing. drainDirtyLines() sweeps the L2's remaining dirty lines
 * into the same accounting at end of run.
 */

#ifndef TRIPSIM_MEM_MEMSYS_HH
#define TRIPSIM_MEM_MEMSYS_HH

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "net/ocn.hh"
#include "support/fields.hh"

namespace trips::mem {

/** One port request from a core's L1 (miss/refill) or fetch engine. */
struct MemRequest
{
    Addr addr = 0;
    net::OcnClass cls = net::OcnClass::ReadReq;
    u8 coreId = 0;
    u8 srcBank = 0;       ///< requesting L1D bank (I-fetch: 0)
    bool isWrite = false;
};

/** Port response: completion time plus per-request facts the core
 *  folds into its own UarchResult counters. */
struct MemResponse
{
    Cycle done = 0;
    bool l2Hit = false;
    bool l2Writeback = false;   ///< a dirty L2 victim was evicted
    Cycle queuedCycles = 0;     ///< cross-core bank-conflict delay
    // Routing facts for observability (trace annotations only; the
    // core's timing never reads them).
    u8 bank = 0;                ///< L2 bank the request mapped to
    u8 hops = 0;                ///< OCN request-leg hop count
};

struct MemorySystemConfig
{
    unsigned numCores = 1;
    unsigned numBanks = 16;
    CacheConfig l2Bank{64 * 1024, 4, 64};
    DramConfig dram{};
    unsigned l2BaseLatency = 9;
    net::OcnConfig ocn{};
    /** Cycles an L2 bank's ingress is held against *other* cores per
     *  accepted request. */
    unsigned bankServicePeriod = 1;
    /** Per-core physical address offset (multi-programmed mixes own
     *  disjoint physical ranges); core 0 is unshifted. */
    Addr physStride = Addr{1} << 30;
    /** Width of the physical address map. Every core's strided range
     *  must fit: numCores x physStride <= 2^physAddrBits, or the
     *  upper cores' traffic would wrap around and alias the lower
     *  cores' lines. 34 bits (16GB) fits 16 cores at the default
     *  1GB stride exactly. */
    unsigned physAddrBits = 34;

    std::string validate() const;
};

/** Chip-level statistics of the shared memory system. */
struct UncoreStats
{
    u64 requests = 0;
    u64 l2Hits = 0, l2Misses = 0;
    u64 l2Writebacks = 0;       ///< dirty L2 victims + end-of-run drain
    u64 l1Writebacks = 0;       ///< L1 victims drained over the OCN
    u64 bankConflicts = 0;      ///< requests delayed by another core
    u64 bankConflictCycles = 0; ///< total cycles of that delay
    u64 dramRequests = 0, dramRowHits = 0;
    std::vector<u64> requestsByCore;
    std::vector<u64> conflictsByCore;

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("requests", s.requests);
        f("l2Hits", s.l2Hits);
        f("l2Misses", s.l2Misses);
        f("l2Writebacks", s.l2Writebacks);
        f("l1Writebacks", s.l1Writebacks);
        f("bankConflicts", s.bankConflicts);
        f("bankConflictCycles", s.bankConflictCycles);
        f("dramRequests", s.dramRequests);
        f("dramRowHits", s.dramRowHits);
        f("requestsByCore", s.requestsByCore);
        f("conflictsByCore", s.conflictsByCore);
    }
};
static_assert(sizeof(UncoreStats) == fieldListSize<UncoreStats>(),
              "UncoreStats: forEachField must list every field");

/**
 * The request/response port surface a core sees of the uncore. The
 * concrete MemorySystem implements it directly (solo cores and the
 * serial lockstep ChipSim bind cores straight to the shared
 * instance); the relaxed-quantum parallel engine interposes a
 * per-core buffering proxy (uarch/chip_parallel.hh) behind the same
 * interface, so CycleSim is agnostic to the stepping discipline.
 */
class UncorePort
{
  public:
    virtual ~UncorePort() = default;

    /** Port access: completion cycle + what happened (see access()
     *  on MemorySystem for the latency model contract). */
    virtual MemResponse access(const MemRequest &req, Cycle now) = 0;

    /** Account a dirty L1 victim drained over the OCN (stats-only). */
    virtual void noteL1Writeback(unsigned core, Addr victim_line,
                                 unsigned bytes) = 0;

    /** The shared uncore's configuration (bank geometry, latencies). */
    virtual const MemorySystemConfig &config() const = 0;
};

class MemorySystem final : public UncorePort
{
  public:
    explicit MemorySystem(const MemorySystemConfig &cfg);

    /** Port access: returns the completion cycle of the refill/fetch
     *  honoring NUCA distance, cross-core bank contention, and DRAM
     *  state. Deterministic given the request sequence. */
    MemResponse access(const MemRequest &req, Cycle now) override;

    /** Account a dirty L1 victim drained over the OCN (stats-only). */
    void noteL1Writeback(unsigned core, Addr victim_line,
                         unsigned bytes) override;

    /** Sweep remaining dirty L2 lines into writeback accounting
     *  (idempotent); returns the number of lines drained. */
    u64 drainDirtyLines();

    const UncoreStats &stats() const;
    const net::OcnModel &ocn() const { return ocn_; }
    const MemorySystemConfig &config() const override { return cfg; }
    const Cache &bank(unsigned b) const { return banks[b]; }

  private:
    unsigned bankOf(Addr phys) const;
    Cycle admit(unsigned bank, unsigned core, Cycle now);

    MemorySystemConfig cfg;
    unsigned lineShift;
    std::vector<Cache> banks;
    Dram dram_;
    net::OcnModel ocn_;
    /** Per (bank, core) busy-until stamps for cross-core ingress
     *  arbitration; a core only waits on *other* cores' entries. */
    std::vector<Cycle> bankBusy;
    mutable UncoreStats st;
};

} // namespace trips::mem

#endif // TRIPSIM_MEM_MEMSYS_HH
