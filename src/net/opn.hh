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

/** Where a flit leaving a router through a mesh port lands. */
struct Link
{
    u8 node = 0;    ///< neighbouring router
    u8 port = 0;    ///< its input port facing back at us
};

/**
 * The mesh is 25 nodes, so every routing decision is a pure function
 * over a tiny domain, tabulated at compile time: the Y-then-X output
 * port and hop count per (node, dst), and the (neighbour, input port)
 * each mesh output port leads to. Ports that would leave the mesh are
 * never selected by dimension-order routing and stay zero.
 */
struct RouteTables
{
    u8 port[NODES][NODES] = {};
    u8 hops[NODES][NODES] = {};
    Link link[NODES][4] = {};
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
            u8 p = PORT_LOCAL;
            if (dr < nr)
                p = PORT_N;
            else if (dr > nr)
                p = PORT_S;
            else if (dc > nc)
                p = PORT_E;
            else if (dc < nc)
                p = PORT_W;
            t.port[n][d] = p;
            t.hops[n][d] = static_cast<u8>(
                (nr > dr ? nr - dr : dr - nr) +
                (nc > dc ? nc - dc : dc - nc));
        }
        if (nr > 0)
            t.link[n][PORT_N] = {static_cast<u8>(n - C), PORT_S};
        if (nc + 1 < C)
            t.link[n][PORT_E] = {static_cast<u8>(n + 1), PORT_W};
        if (nr + 1 < isa::OPN_ROWS)
            t.link[n][PORT_S] = {static_cast<u8>(n + C), PORT_N};
        if (nc > 0)
            t.link[n][PORT_W] = {static_cast<u8>(n - 1), PORT_E};
    }
    return t;
}

inline constexpr RouteTables ROUTE = makeRouteTables();

} // namespace opn_detail

class OpnNetwork
{
  public:
    static constexpr unsigned NODES = opn_detail::NODES;
    static constexpr unsigned FIFO_DEPTH = 4;

    OpnNetwork() { arrivals.reserve(NODES); }

    /**
     * Inject a packet at its source node. Returns false when the
     * node's local input FIFO is full (caller retries next cycle).
     * Zero-hop (src == dst) packets bypass the network and are
     * delivered by the next tick.
     */
    bool
    inject(OpnPacket pkt, Cycle now)
    {
        if (meta[pkt.src][opn_detail::PORT_LOCAL].size >= FIFO_DEPTH)
            return false;
        pkt.injected = now;
        push(pkt.src, opn_detail::PORT_LOCAL, pkt);
        ++packets;
        return true;
    }

    /**
     * Advance one cycle and hand each packet that reaches its
     * destination to @p sink, called as sink(const OpnPacket &) in move
     * order (ascending node, round-robin port order within a node).
     * The tick is two-phase: every router arbitrates against the
     * start-of-tick FIFO state, then the winning flits move. The sink
     * runs during the move phase, so it must not touch this network
     * (inject() included).
     */
    template <class Sink>
    void tick(Cycle now, Sink &&sink);

    /** Advance one cycle, collecting arrivals for delivered(). */
    void
    tick(Cycle now)
    {
        arrivals.clear();
        tick(now, [this](const OpnPacket &p) { arrivals.push_back(p); });
    }

    /** Packets that arrived in the last tick(now) (valid until the
     *  next tick). */
    const std::vector<OpnPacket> &delivered() const { return arrivals; }

    /** Per-class hop distributions (bucket = hop count). */
    const Distribution &hopDist(OpnClass c) const
    {
        return hop_dist[static_cast<size_t>(c)];
    }

    u64 packetsSent() const { return packets; }
    double avgLatency() const
    {
        return latCount ? static_cast<double>(latSum) / latCount : 0.0;
    }

  private:
    static_assert(NODES <= 64, "node occupancy mask is one u64");

    /**
     * Input FIFOs: a fixed FIFO_DEPTH-entry ring per (node, input port,
     * 0..3 = N,E,S,W, 4 = local), so steady state never allocates. The
     * ring bookkeeping lives apart from the packets, together with the
     * output port the head flit asks for (routing is a pure function of
     * (node, dst), so it is looked up once when a flit reaches the head
     * rather than on every tick it waits). The whole table is ~375
     * bytes, so the per-tick arbitration scan stays in a handful of
     * cache lines and the packet buffers are touched only when a flit
     * actually moves.
     */
    struct PortMeta
    {
        u8 size = 0;
        u8 head = 0;
        u8 out = 0;     ///< output port of the head flit (size > 0)
    };

    std::array<std::array<PortMeta, 5>, NODES> meta{};
    std::array<std::array<std::array<OpnPacket, FIFO_DEPTH>, 5>, NODES>
        bufs{};
    /** Arrivals of the last tick(now); the sink form never fills it. */
    std::vector<OpnPacket> arrivals;

    /**
     * Occupancy tracking so tick() touches only routers that hold
     * flits: one bit per node, plus a per-node bit per input port.
     * Every router's round-robin pointer advances once per tick, so a
     * single 0..4 counter stands in for the per-node pointers.
     */
    u64 nodeMask = 0;
    std::array<u8, NODES> portMask{};
    u8 rrPtr = 0;

    void
    push(unsigned node, unsigned port, const OpnPacket &pkt)
    {
        PortMeta &pm = meta[node][port];
        if (pm.size == 0)
            pm.out = opn_detail::ROUTE.port[node][pkt.dst];
        bufs[node][port][(pm.head + pm.size) % FIFO_DEPTH] = pkt;
        ++pm.size;
        portMask[node] |= static_cast<u8>(1u << port);
        nodeMask |= u64{1} << node;
    }

    OpnPacket
    pop(unsigned node, unsigned port)
    {
        PortMeta &pm = meta[node][port];
        const auto &buf = bufs[node][port];
        OpnPacket pkt = buf[pm.head];
        pm.head = static_cast<u8>((pm.head + 1) % FIFO_DEPTH);
        if (--pm.size > 0) {
            pm.out = opn_detail::ROUTE.port[node][buf[pm.head].dst];
        } else {
            portMask[node] &= static_cast<u8>(~(1u << port));
            if (portMask[node] == 0)
                nodeMask &= ~(u64{1} << node);
        }
        return pkt;
    }

    std::array<Distribution, static_cast<size_t>(OpnClass::NUM_CLASSES)>
        hop_dist;
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
    if (!nodeMask)
        return;     // nothing in flight anywhere

    // Phase 1: arbitrate. Scan only routers holding flits, ascending
    // node order; all reads come from the compact meta table. Each
    // router sends at most one flit per output port, so 5 moves per
    // node bound the list.
    struct Move
    {
        u8 node, in, out;
    };
    Move moves[NODES * 5];
    unsigned n_moves = 0;
    for (u64 m = nodeMask; m; m &= m - 1) {
        const unsigned node = static_cast<unsigned>(__builtin_ctzll(m));
        // One winner per output port; occupied inputs visited in
        // round-robin order via the rotated port mask (visiting only
        // non-empty ports is equivalent to skipping empty ones).
        const auto &nm = meta[node];
        const u8 pm = portMask[node];
        u8 rot = static_cast<u8>(((pm >> cur) | (pm << (5 - cur))) & 31);
        u8 port_used = 0;
        while (rot) {
            unsigned k = static_cast<unsigned>(__builtin_ctz(rot));
            rot = static_cast<u8>(rot & (rot - 1));
            unsigned in = cur + k;
            if (in >= 5)
                in -= 5;
            const unsigned out = nm[in].out;
            if (port_used & (1u << out))
                continue;
            if (out != PORT_LOCAL) {
                // Flow control: space in the downstream FIFO.
                const Link l = ROUTE.link[node][out];
                if (meta[l.node][l.port].size >= FIFO_DEPTH)
                    continue;
            }
            port_used = static_cast<u8>(port_used | (1u << out));
            moves[n_moves++] = {static_cast<u8>(node), static_cast<u8>(in),
                                static_cast<u8>(out)};
        }
    }

    // Phase 2: move the winners, in arbitration order.
    for (unsigned i = 0; i < n_moves; ++i) {
        const Move mv = moves[i];
        OpnPacket pkt = pop(mv.node, mv.in);
        if (mv.out == PORT_LOCAL) {
            const unsigned h = ROUTE.hops[pkt.src][pkt.dst];
            pkt.hops = static_cast<u8>(h);
            hop_dist[static_cast<size_t>(pkt.cls)].sample(h);
            latSum += now - pkt.injected;
            ++latCount;
            sink(pkt);
        } else {
            const Link l = ROUTE.link[mv.node][mv.out];
            push(l.node, l.port, pkt);
        }
    }
}

} // namespace trips::net

#endif // TRIPSIM_NET_OPN_HH
