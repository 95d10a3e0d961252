/**
 * @file
 * The TRIPS On-Chip Network (OCN): the chip-level interconnect that
 * carries secondary-memory traffic between the processors' L1 banks,
 * the 16 NUCA L2 banks, and the SDRAM controllers (paper §2, Table 1).
 * Unlike the flit-level OPN router model, the OCN is a *hop-latency*
 * approximation of the prototype's wormhole mesh: a packet's traversal
 * costs `hopLatency` cycles per router hop plus a per-injection-port
 * serialization offset, and contention is modeled at the L2 bank
 * ingress (see mem::MemorySystem) rather than per link. The model
 * still accounts every packet: per-class packet/byte counts, hop
 * distributions, and flit-hop products for link-occupancy reporting.
 *
 * Topology: the L2 banks form a 4x4 grid (matching the NUCA distance
 * model the single-core simulator always used: bank b sits at
 * (b/4, b%4)). Up to 16 core ports attach at distinct grid positions
 * from a fixed placement table: core 0 at the (0,0) corner -- exactly
 * the NUCA distance profile the single-core model always charged --
 * core 1 at the mirrored (3,3) corner (so the prototype's two
 * processors keep their historical mirrored profiles bit-identically),
 * and further cores fill the remaining corners, edges, then interior
 * cells. Memory controllers sit at the two (0,0)/(3,3) corners;
 * writebacks drain to the nearer one regardless of core placement.
 */

#ifndef TRIPSIM_NET_OCN_HH
#define TRIPSIM_NET_OCN_HH

#include <array>
#include <string>
#include <utility>

#include "support/common.hh"
#include "support/fields.hh"
#include "support/stats.hh"

namespace trips::net {

/** OCN traffic classes (request/reply split, like the OPN's). */
enum class OcnClass : u8 { ReadReq, WriteReq, IFetch, Refill, Writeback,
                           NUM_CLASSES };

constexpr size_t OCN_NUM_CLASSES =
    static_cast<size_t>(OcnClass::NUM_CLASSES);

const char *ocnClassName(OcnClass c);

struct OcnConfig
{
    /** Cycles per router hop (the uncore derives this from the
     *  UarchConfig's l2NucaStep so solo timing is unchanged). */
    unsigned hopLatency = 2;
    /** Link width in bytes (128-bit links in the prototype); sets the
     *  flit count of a packet for occupancy accounting. */
    unsigned linkBytes = 16;

    std::string validate() const;
};

/** Aggregate OCN traffic statistics (copyable snapshot). */
struct OcnStats
{
    std::array<u64, OCN_NUM_CLASSES> packets{};
    std::array<u64, OCN_NUM_CLASSES> bytes{};
    std::array<Distribution, OCN_NUM_CLASSES> hops;
    /** Sum over packets of flits x hops: the occupancy numerator. */
    u64 flitHops = 0;

    u64
    totalPackets() const
    {
        u64 t = 0;
        for (u64 p : packets)
            t += p;
        return t;
    }

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("packets", s.packets);
        f("bytes", s.bytes);
        f("hops", s.hops);
        f("flitHops", s.flitHops);
    }
};
static_assert(sizeof(OcnStats) == fieldListSize<OcnStats>(),
              "OcnStats: forEachField must list every field");

class OcnModel
{
  public:
    static constexpr unsigned BANK_ROWS = 4;
    static constexpr unsigned BANK_COLS = 4;
    /** Attach-point table capacity: one distinct grid cell per core. */
    static constexpr unsigned MAX_CORES = BANK_ROWS * BANK_COLS;

    OcnModel(const OcnConfig &cfg, unsigned num_cores);

    /** Grid position (row, col) a core port attaches at. Core 0 is
     *  pinned to (0,0) and core 1 to (3,3) -- the historical
     *  even/odd corner mirroring of the 2-core prototype -- with
     *  further cores on distinct corner/edge/interior cells. */
    static std::pair<unsigned, unsigned> attachPoint(unsigned core);

    /** Router hops from a core's attach point to an L2 bank. */
    unsigned requestHops(unsigned core, unsigned bank) const;

    /**
     * Latency of a request traversal core -> bank: hopLatency per hop
     * plus the injection-port offset of the requesting L1 bank (the
     * edge-link arbitration position; reproduces the single-core
     * model's per-requester NUCA asymmetry exactly). Records the
     * packet under @p cls.
     */
    Cycle requestLatency(unsigned core, unsigned src_bank, unsigned bank,
                         OcnClass cls, unsigned bytes);

    /** Account a reply traversal bank -> core (refill/ack data). */
    void recordReply(unsigned core, unsigned bank, OcnClass cls,
                     unsigned bytes);

    /** Account a writeback from an L1 attach point or L2 bank to the
     *  nearer memory controller corner. */
    void recordWriteback(unsigned bank, unsigned bytes);

    /** Bidirectional mesh links plus core/controller attach links. */
    unsigned linkCount() const;

    /** Mean flit-hops per link-cycle over @p cycles. */
    double occupancy(Cycle cycles) const;

    const OcnStats &stats() const { return st; }

  private:
    void record(OcnClass cls, unsigned hops, unsigned bytes);

    OcnConfig cfg;
    unsigned numCores;
    OcnStats st;
};

} // namespace trips::net

#endif // TRIPSIM_NET_OCN_HH
