/**
 * @file
 * A seeded synthetic OPN load shaped like figure-matrix traffic, for
 * pinning and timing the router on its own (tests/test_substrates.cc
 * `Opn.ModerateLoadGolden`, bench/bench_simspeed.cc `BM_OpnRouter`).
 *
 * CycleSim's figure runs inject about 1.7 packets per tick, mostly in
 * small same-cycle bursts from one node (an instruction's two targets,
 * a register read's targets, a load's reply fan-out), across all seven
 * traffic classes, and retry rejected injects in order the next cycle.
 * This generator reproduces that shape without the core: each tick it
 * first retries the packets the network rejected last tick, then emits
 * 0-2 bursts of 1-3 packets, each burst from one source node of a
 * randomly drawn class to that class's destination tiles.
 */

#ifndef TRIPSIM_NET_OPN_LOAD_HH
#define TRIPSIM_NET_OPN_LOAD_HH

#include <vector>

#include "net/opn.hh"
#include "support/rng.hh"

namespace trips::net {

class OpnLoad
{
  public:
    explicit OpnLoad(u64 seed) : rng(seed) { retry.reserve(64); }

    /**
     * Offer this tick's packets to @p opn at cycle @p now: last tick's
     * rejects first (in order), then the new bursts. Rejected packets
     * are kept for the next call. @p opn is an OpnNetwork or anything
     * with its inject(OpnPacket, Cycle) -> bool (e.g. a recorder).
     */
    template <class Net>
    void
    inject(Net &opn, Cycle now)
    {
        still.clear();
        for (const OpnPacket &p : retry)
            offer(opn, p, now);
        const u64 r = rng.below(10);
        const unsigned bursts = r < 3 ? 0 : r < 8 ? 1 : 2;
        for (unsigned b = 0; b < bursts; ++b)
            burst(opn, now);
        retry.swap(still);
    }

    u64 attempts() const { return tried; }
    u64 rejected() const { return rejects; }

  private:
    static unsigned et(unsigned e) { return isa::opnNode(isa::etCoord(e)); }
    static unsigned rt(unsigned r) { return isa::opnNode(isa::rtCoord(r)); }
    static unsigned dt(unsigned d) { return isa::opnNode(isa::dtCoord(d)); }

    template <class Net>
    void
    offer(Net &opn, const OpnPacket &p, Cycle now)
    {
        ++tried;
        if (!opn.inject(p, now)) {
            ++rejects;
            still.push_back(p);
        }
    }

    /** One burst: a class drawn with figure-like weights, one source
     *  node, 1-3 packets to that class's destination tiles. Load
     *  replies (DtEt, DtRt) leave from an ET node, as in CycleSim. */
    template <class Net>
    void
    burst(Net &opn, Cycle now)
    {
        const u64 w = rng.below(100);
        OpnClass cls = w < 45 ? OpnClass::EtEt
                     : w < 60 ? OpnClass::RtEt
                     : w < 72 ? OpnClass::EtRt
                     : w < 81 ? OpnClass::EtDt
                     : w < 89 ? OpnClass::DtEt
                     : w < 94 ? OpnClass::DtRt : OpnClass::EtGt;
        const unsigned src = cls == OpnClass::RtEt
            ? rt(static_cast<unsigned>(rng.below(4)))
            : et(static_cast<unsigned>(rng.below(16)));
        const unsigned n = cls == OpnClass::EtGt || cls == OpnClass::EtDt
            ? 1 : 1 + static_cast<unsigned>(rng.below(3));
        for (unsigned k = 0; k < n; ++k) {
            unsigned dst;
            switch (cls) {
              case OpnClass::EtRt:
              case OpnClass::DtRt:
                dst = rt(static_cast<unsigned>(rng.below(4)));
                break;
              case OpnClass::EtDt:
                dst = dt(static_cast<unsigned>(rng.below(4)));
                break;
              case OpnClass::EtGt:
                dst = isa::opnNode(isa::gtCoord());
                break;
              default:
                dst = et(static_cast<unsigned>(rng.below(16)));
                break;
            }
            OpnPacket p;
            p.src = static_cast<u8>(src);
            p.dst = static_cast<u8>(dst);
            p.cls = cls;
            p.tag = ++tag;
            offer(opn, p, now);
        }
    }

    Rng rng;
    u32 tag = 0;
    u64 tried = 0, rejects = 0;
    std::vector<OpnPacket> retry, still;
};

} // namespace trips::net

#endif // TRIPSIM_NET_OPN_LOAD_HH
