/**
 * @file
 * The TRIPS Operand Network (OPN): a 5x5 wormhole-routed mesh carrying
 * one 64-bit operand per link per cycle (Gratz et al. [6]). Packets
 * are single-flit; routing is Y-then-X dimension order with 4-deep
 * input FIFOs and round-robin output arbitration. Traffic classes
 * (ET-ET, ET-DT, ET-RT, ET-GT, DT-RT, DT-ET, RT-ET) are accounted for
 * the paper's Fig. 8 hop profile.
 */

#ifndef TRIPSIM_NET_OPN_HH
#define TRIPSIM_NET_OPN_HH

#include <array>
#include <vector>

#include "isa/topology.hh"
#include "support/stats.hh"

namespace trips::net {

/**
 * Traffic classes for the Fig. 8 breakdown. Requests and replies are
 * distinct: EtDt is ET->DT memory requests while DtEt is DT->ET load
 * replies, and EtRt is ET->RT register writes while RtEt is RT->ET
 * read operands (lumping them skews the per-class hop profile).
 */
enum class OpnClass : u8 { EtEt, EtDt, EtRt, EtGt, DtRt, DtEt, RtEt,
                           Other, NUM_CLASSES };

/** Single-flit packet, packed to 16 bytes so four fit a cache line
 *  (the router FIFOs are scanned every simulated cycle). */
struct OpnPacket
{
    u8 src = 0;               ///< flat mesh node id (row*5+col)
    u8 dst = 0;
    OpnClass cls = OpnClass::Other;
    u8 hops = 0;
    u32 tag = 0;              ///< owner-defined payload handle
    Cycle injected = 0;
};

namespace opn_detail {

constexpr unsigned NODES = isa::OPN_ROWS * isa::OPN_COLS;
constexpr unsigned PORT_N = 0, PORT_E = 1, PORT_S = 2, PORT_W = 3;
constexpr unsigned PORT_LOCAL = 4;
/** Input FIFOs, one per (node, input port): FIFO f is node f / 5,
 *  port f % 5. Index FIFOS stands for "ejected at this node". */
constexpr unsigned FIFOS = NODES * 5;

/**
 * The mesh is 25 nodes, so every routing decision is a pure function
 * over a tiny domain, tabulated at compile time. A router's output is
 * named by its claim key node * 5 + port (the same numbering as the
 * FIFOs). Per (node, dst): the Y-then-X claim key and the hop count;
 * per claim key: the FIFO the flit lands in next (the neighbour's
 * input port facing back at us), or FIFOS for the local port.
 */
struct RouteTables
{
    u8 key[NODES][NODES] = {};
    u8 hops[NODES][NODES] = {};
    u8 down[FIFOS] = {};
    /** Per round-robin pointer and input port: the arbitration bid,
     *  rank << 3 | port, where rank is the port's distance from the
     *  pointer (lower wins). */
    u8 bid[5][5] = {};
};

constexpr RouteTables
makeRouteTables()
{
    RouteTables t;
    constexpr unsigned C = isa::OPN_COLS;
    for (unsigned n = 0; n < NODES; ++n) {
        unsigned nr = n / C, nc = n % C;
        for (unsigned d = 0; d < NODES; ++d) {
            unsigned dr = d / C, dc = d % C;
            unsigned p = PORT_LOCAL;
            if (dr < nr)
                p = PORT_N;
            else if (dr > nr)
                p = PORT_S;
            else if (dc > nc)
                p = PORT_E;
            else if (dc < nc)
                p = PORT_W;
            t.key[n][d] = static_cast<u8>(n * 5 + p);
            t.hops[n][d] = static_cast<u8>(
                (nr > dr ? nr - dr : dr - nr) +
                (nc > dc ? nc - dc : dc - nc));
        }
        // Ports that would leave the mesh are never selected by
        // dimension-order routing; point them at the ejection index.
        for (unsigned p = 0; p < 5; ++p)
            t.down[n * 5 + p] = FIFOS;
        if (nr > 0)
            t.down[n * 5 + PORT_N] = static_cast<u8>((n - C) * 5 + PORT_S);
        if (nc + 1 < C)
            t.down[n * 5 + PORT_E] = static_cast<u8>((n + 1) * 5 + PORT_W);
        if (nr + 1 < isa::OPN_ROWS)
            t.down[n * 5 + PORT_S] = static_cast<u8>((n + C) * 5 + PORT_N);
        if (nc > 0)
            t.down[n * 5 + PORT_W] = static_cast<u8>((n - 1) * 5 + PORT_E);
    }
    for (unsigned cur = 0; cur < 5; ++cur)
        for (unsigned in = 0; in < 5; ++in)
            t.bid[cur][in] = static_cast<u8>((in + 5 - cur) % 5 << 3 | in);
    return t;
}

inline constexpr RouteTables ROUTE = makeRouteTables();

} // namespace opn_detail

class OpnNetwork
{
  public:
    static constexpr unsigned NODES = opn_detail::NODES;
    static constexpr unsigned FIFO_DEPTH = 4;
    /** Every flit in the mesh sits in some FIFO slot, so this many
     *  flit-table slots can never run out. */
    static constexpr unsigned SLOTS = opn_detail::FIFOS * FIFO_DEPTH;
    /** injectSlot()'s "local input FIFO full" answer. */
    static constexpr u16 NO_SLOT = 0xffff;

    OpnNetwork()
    {
        arrivals.reserve(NODES);
        claim.fill(NO_CLAIM);
        for (unsigned i = 0; i < SLOTS; ++i)
            freeSlots[i] = static_cast<u16>(SLOTS - 1 - i);
    }

    /**
     * Inject a packet at its source node. Returns false when the
     * node's local input FIFO is full (caller retries next cycle).
     * Zero-hop (src == dst) packets bypass the network and are
     * delivered by the next tick.
     */
    bool
    inject(OpnPacket pkt, Cycle now)
    {
        return injectSlot(pkt, now) != NO_SLOT;
    }

    /**
     * inject() that names the flit-table slot (< SLOTS) holding the
     * packet, or returns NO_SLOT when the local input FIFO is full.
     * The slot stays the packet's until the tick that delivers it has
     * passed it to the sink, so an owner can key per-packet data by
     * slot instead of allocating handles of its own.
     */
    u16
    injectSlot(OpnPacket pkt, Cycle now)
    {
        const unsigned f = pkt.src * 5u + opn_detail::PORT_LOCAL;
        if (depth[f] >= FIFO_DEPTH)
            return NO_SLOT;
        const u16 slot = freeSlots[--numFree];
        pkt.injected = now;
        flits[slot] = pkt;
        push(f, static_cast<u16>(slot << 5 | pkt.dst));
        ++packets;
        return slot;
    }

    /**
     * Advance one cycle and hand each packet that reaches its
     * destination to @p sink, called as sink(const OpnPacket &, slot)
     * with the packet's injectSlot() slot, in ascending destination-
     * node order (a node ejects at most one flit per tick). The tick
     * is two-phase: every router arbitrates against the start-of-tick
     * FIFO state, then the winning flits move. The sink runs during
     * the move phase, so it must not touch this network (inject()
     * included).
     */
    template <class Sink>
    void tick(Cycle now, Sink &&sink);

    /** Advance one cycle, collecting arrivals for delivered(). */
    void
    tick(Cycle now)
    {
        arrivals.clear();
        tick(now, [this](const OpnPacket &p, unsigned) {
            arrivals.push_back(p);
        });
    }

    /** Packets that arrived in the last tick(now) (valid until the
     *  next tick). */
    const std::vector<OpnPacket> &delivered() const { return arrivals; }

    /** No flit anywhere in the mesh: a tick would only advance the
     *  round-robin pointer. */
    bool empty() const { return (occ[0] | occ[1]) == 0; }

    /** Per-class hop distributions (bucket = hop count), built from
     *  the per-class counters on each call. */
    const Distribution &
    hopDist(OpnClass c) const
    {
        const size_t ci = static_cast<size_t>(c);
        Distribution &d = hop_dist[ci];
        d.reset();
        for (unsigned h = 0; h <= MAX_HOPS; ++h) {
            if (hopCount[ci][h])
                d.sample(h, hopCount[ci][h]);
        }
        return d;
    }

    u64 packetsSent() const { return packets; }
    double avgLatency() const
    {
        return latCount ? static_cast<double>(latSum) / latCount : 0.0;
    }

  private:
    static constexpr unsigned FIFOS = opn_detail::FIFOS;
    static constexpr unsigned MAX_HOPS =
        isa::OPN_ROWS + isa::OPN_COLS - 2;
    static constexpr size_t NUM_CLASSES =
        static_cast<size_t>(OpnClass::NUM_CLASSES);
    static_assert(SLOTS <= (1u << 11) && NODES <= 32,
                  "a flit handle is a 11-bit slot and a 5-bit dst");
    static_assert(FIFOS <= 128, "FIFO occupancy is two u64 words");

    /**
     * Each input FIFO is one u64 of four 16-bit flit handles, head in
     * the low bits; a handle is (flit-table slot << 5 | dst), so
     * arbitration routes the head without touching the flit table.
     * depth[] counts the handles (entry FIFOS is the ejection
     * pseudo-FIFO and stays 0, so "room downstream" needs no local-port
     * test), and occ is a 125-bit set of the non-empty FIFOs. The
     * whole arbitration state is ~1.2 KB; the 16-byte packets are
     * touched only at inject and ejection.
     */
    std::array<u64, FIFOS> fifo{};
    std::array<u8, FIFOS + 1> depth{};
    u64 occ[2] = {0, 0};
    std::array<OpnPacket, SLOTS> flits{};
    std::array<u16, SLOTS> freeSlots{};
    unsigned numFree = SLOTS;
    /** Per claim key during a tick: the best bid so far as round-robin
     *  rank << 3 | input port, or NO_CLAIM (the value between ticks).
     *  Entry FIFOS absorbs bids that found no room downstream. */
    static constexpr u8 NO_CLAIM = 0xff;
    std::array<u8, FIFOS + 1> claim;
    /** Every router's round-robin pointer advances once per tick, so a
     *  single 0..4 counter stands in for the per-node pointers. */
    u8 rrPtr = 0;

    /** Arrivals of the last tick(now); the sink form never fills it. */
    std::vector<OpnPacket> arrivals;

    /** Append handle @p h to FIFO @p f (depth[f] < FIFO_DEPTH). */
    void
    push(unsigned f, u16 h)
    {
        fifo[f] |= u64{h} << (16 * depth[f]);
        ++depth[f];
        occ[f >> 6] |= u64{1} << (f & 63);
    }

    /** Pop the head of the FIFO that won claim key @p k, resetting the
     *  claim. */
    u16
    pop(unsigned k)
    {
        const unsigned f = k - k % 5 + (claim[k] & 7);
        claim[k] = NO_CLAIM;
        const u16 h = static_cast<u16>(fifo[f]);
        fifo[f] >>= 16;
        --depth[f];
        occ[f >> 6] &= ~(u64{depth[f] == 0} << (f & 63));
        return h;
    }

    u64 hopCount[NUM_CLASSES][MAX_HOPS + 1] = {};
    mutable std::array<Distribution, NUM_CLASSES> hop_dist;
    u64 latSum = 0;       ///< integer accumulation: one add per arrival
    u64 latCount = 0;
    u64 packets = 0;
};

template <class Sink>
void
OpnNetwork::tick(Cycle now, Sink &&sink)
{
    using namespace opn_detail;
    const unsigned cur = rrPtr;
    rrPtr = static_cast<u8>(cur == 4 ? 0 : cur + 1);
    if (empty())
        return;     // nothing in flight anywhere

    // Phase 1: arbitrate against start-of-tick state. One pass over
    // the occupied FIFOs; each head flit with room downstream bids for
    // its output, and the lowest round-robin rank (input port distance
    // from the shared pointer) wins. All bidders for one output share
    // its downstream FIFO, so this is the first requester with room in
    // the rotated port scan. A bid without room goes to the spare
    // claim slot FIFOS, so the loop has no data-dependent branch. The
    // first bid on an output records its key, in ascending node order.
    // Every occupied FIFO writes both lists at their current ends, so
    // each needs an entry past its longest length: at most NODES
    // ejections and 4 * NODES < FIFOS hops.
    const u8 *bidOf = ROUTE.bid[cur];
    u8 hops[FIFOS], ejects[NODES + 1];
    unsigned nh = 0, ne = 0;
    for (unsigned w = 0; w < 2; ++w) {
        for (u64 m = occ[w]; m; m &= m - 1) {
            const unsigned f = w * 64 + static_cast<unsigned>(
                __builtin_ctzll(m));
            const unsigned node = f / 5;
            const unsigned k = ROUTE.key[node][fifo[f] & 31];
            const unsigned d = ROUTE.down[k];
            const bool room = depth[d] < FIFO_DEPTH;
            const unsigned key = room ? k : FIFOS;
            const u8 c = claim[key];
            const u8 bid = bidOf[f - node * 5];
            const bool first = room && c == NO_CLAIM;
            const bool eject = d == FIFOS;
            hops[nh] = static_cast<u8>(key);
            ejects[ne] = static_cast<u8>(key);
            nh += first && !eject;
            ne += first && eject;
            claim[key] = bid < c ? bid : c;
        }
    }

    // Phase 2: move the winners. Each FIFO loses at most its head and
    // gains at most one flit (its one upstream output), and a push
    // only targets a FIFO that had room at the start of the tick, so
    // the order of the moves does not change the final state: mesh
    // hops go first, then ejections. Only ejections are observable in
    // order: at most one per node, in ascending node order.
    for (unsigned i = 0; i < nh; ++i) {
        const unsigned k = hops[i];
        push(ROUTE.down[k], pop(k));
    }
    for (unsigned i = 0; i < ne; ++i) {
        const unsigned slot = pop(ejects[i]) >> 5;
        OpnPacket &pkt = flits[slot];
        const unsigned h = ROUTE.hops[pkt.src][pkt.dst];
        pkt.hops = static_cast<u8>(h);
        ++hopCount[static_cast<size_t>(pkt.cls)][h];
        latSum += now - pkt.injected;
        ++latCount;
        sink(static_cast<const OpnPacket &>(pkt), slot);
        freeSlots[numFree++] = static_cast<u16>(slot);
    }
}

} // namespace trips::net

#endif // TRIPSIM_NET_OPN_HH
