/**
 * @file
 * Substrate unit tests: caches (geometry, LRU, writebacks), the DRAM
 * model (row buffer, bandwidth), the operand network (routing,
 * delivery, hop accounting, backpressure), the predictors, the memory
 * image, and the statistics helpers.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "net/opn.hh"
#include "net/opn_load.hh"
#include "pred/predictors.hh"
#include "support/memimage.hh"
#include "support/rng.hh"
#include "support/stats.hh"

using namespace trips;

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

TEST(Cache, HitAfterMiss)
{
    mem::Cache c({1024, 2, 64});
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x1040, false).hit);  // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2 sets x 2 ways x 64B = 256B; three lines mapping to one set.
    mem::Cache c({256, 2, 64});
    Addr a = 0x0, b = 0x100, d = 0x200;   // same set (stride 128*2)
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);          // a most recent
    EXPECT_FALSE(c.access(d, false).hit);  // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyWriteback)
{
    mem::Cache c({256, 2, 64});
    c.access(0x0, true);         // dirty
    c.access(0x100, false);
    auto r = c.access(0x200, false);   // evicts dirty 0x0
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimLine, 0x0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheParam, MissRateFallsWithSize)
{
    // Property: bigger caches never miss more on the same trace.
    Rng rng(42);
    std::vector<Addr> trace;
    for (int i = 0; i < 20000; ++i)
        trace.push_back((rng.below(512) * 64) % 32768);
    double last = 1.0;
    for (u64 size : {1024, 4096, 16384, 65536}) {
        mem::Cache c({size, 4, 64});
        for (Addr a : trace)
            c.access(a, false);
        EXPECT_LE(c.missRate(), last + 1e-9) << size;
        last = c.missRate();
    }
    EXPECT_LT(last, 0.03);   // only cold misses remain (512/20000)
}

// ---------------------------------------------------------------------
// DRAM
// ---------------------------------------------------------------------

TEST(Dram, RowBufferHitsAreFaster)
{
    mem::Dram d(mem::DramConfig{});
    Cycle first = d.request(0x0, 1000);
    // Same channel, same bank, same row: line 16 (channels*banks).
    Cycle second = d.request(16 * 64, first);
    EXPECT_GT(first - 1000, second - first);
    EXPECT_GE(d.rowHits(), 1u);
}

TEST(Dram, BandwidthLimited)
{
    mem::DramConfig cfg;
    mem::Dram d(cfg);
    // Saturate: issue 64 line requests at the same cycle.
    Cycle last = 0;
    for (int i = 0; i < 64; ++i)
        last = std::max(last, d.request(static_cast<Addr>(i) * 64, 0));
    // 64 transfers across 2 channels, each occupying the bus.
    EXPECT_GE(last, 64ull / 2 * cfg.cyclesPerTransfer);
}

// ---------------------------------------------------------------------
// OPN
// ---------------------------------------------------------------------

TEST(Opn, DeliversWithManhattanHops)
{
    net::OpnNetwork opn;
    net::OpnPacket p;
    p.src = isa::opnNode(isa::etCoord(0));    // (1,1)
    p.dst = isa::opnNode(isa::etCoord(15));   // (4,4)
    p.cls = net::OpnClass::EtEt;
    p.tag = 77;
    ASSERT_TRUE(opn.inject(p, 0));
    Cycle t = 0;
    bool got = false;
    while (t < 50 && !got) {
        opn.tick(++t);
        for (const auto &d : opn.delivered()) {
            EXPECT_EQ(d.tag, 77u);
            EXPECT_EQ(d.hops, 6u);
            got = true;
        }
    }
    EXPECT_TRUE(got);
    // Latency at least hop count.
    EXPECT_GE(t, 6u);
    EXPECT_EQ(opn.hopDist(net::OpnClass::EtEt).samples(), 1u);
}

TEST(Opn, AllPairsDeliverExactlyOnce)
{
    net::OpnNetwork opn;
    unsigned sent = 0;
    u64 tag = 1;
    for (unsigned s = 0; s < net::OpnNetwork::NODES; ++s) {
        net::OpnPacket p;
        p.src = s;
        p.dst = (s * 7 + 3) % net::OpnNetwork::NODES;
        p.tag = tag++;
        p.cls = net::OpnClass::Other;
        if (opn.inject(p, 0))
            ++sent;
    }
    unsigned received = 0;
    for (Cycle t = 1; t < 200; ++t) {
        opn.tick(t);
        received += static_cast<unsigned>(opn.delivered().size());
    }
    EXPECT_EQ(received, sent);
}

TEST(Opn, BackpressureOnFullFifo)
{
    net::OpnNetwork opn;
    net::OpnPacket p;
    p.src = 0;
    p.dst = 24;
    unsigned accepted = 0;
    for (int i = 0; i < 10; ++i)
        accepted += opn.inject(p, 0);
    EXPECT_EQ(accepted, net::OpnNetwork::FIFO_DEPTH);
}

TEST(Opn, EveryNodeEjectsInOneTick)
{
    // All 25 nodes eject in the same tick, and the last node still has
    // a second occupied FIFO after its ejecting one: the claim pass
    // must not write past the end of the ejection list (the sanitizer
    // build catches it). Node 24's ejection arrives on its N input
    // from 19; its local FIFO holds a flit heading W to node 23.
    net::OpnNetwork opn;
    auto pkt = [](unsigned src, unsigned dst) {
        net::OpnPacket p;
        p.src = static_cast<u8>(src);
        p.dst = static_cast<u8>(dst);
        p.cls = net::OpnClass::EtEt;
        p.tag = src * 100 + dst;
        return p;
    };
    ASSERT_TRUE(opn.inject(pkt(19, 24), 0));
    opn.tick(1);
    EXPECT_TRUE(opn.delivered().empty());
    for (unsigned n = 0; n + 1 < net::OpnNetwork::NODES; ++n)
        ASSERT_TRUE(opn.inject(pkt(n, n), 1));
    ASSERT_TRUE(opn.inject(pkt(24, 23), 1));
    opn.tick(2);
    const auto &first = opn.delivered();
    ASSERT_EQ(first.size(), net::OpnNetwork::NODES);
    for (unsigned n = 0; n < net::OpnNetwork::NODES; ++n)
        EXPECT_EQ(first[n].tag,
                  n + 1 < net::OpnNetwork::NODES ? n * 101 : 1924u)
            << n;
    opn.tick(3);
    ASSERT_EQ(opn.delivered().size(), 1u);
    EXPECT_EQ(opn.delivered()[0].tag, 2423u);
    EXPECT_EQ(opn.delivered()[0].hops, 1u);
    EXPECT_TRUE(opn.empty());
}

namespace {

struct Fnv
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    add(u64 v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(double d)
    {
        u64 bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }
};

} // namespace

TEST(Opn, CongestionGolden)
{
    // A seeded schedule that keeps the mesh saturated: bursts of up to
    // 12 packets per cycle, half of them aimed at the centre node and a
    // quarter injected at one corner, so local FIFOs overflow (rejected
    // injects), several inputs contend for one output port, and full
    // downstream FIFOs hold flits back. Figure traffic almost never
    // reaches those branches, so this pins them directly: the delivered
    // (tick, tag, hops) stream, the reject count, and every statistic
    // the network exports. Captured from the switch-based router that
    // preceded the table-driven one.
    net::OpnNetwork opn;
    Rng rng(0x0b5e55ed);
    Fnv fnv;
    u32 tag = 0;
    u64 rejected = 0, delivered = 0;
    const Cycle inject_until = 3000;
    for (Cycle t = 1; t < inject_until + 200; ++t) {
        if (t < inject_until) {
            unsigned burst = static_cast<unsigned>(rng.below(13));
            for (unsigned k = 0; k < burst; ++k) {
                net::OpnPacket p;
                p.src = static_cast<u8>(rng.below(4) == 0
                    ? 0 : rng.below(net::OpnNetwork::NODES));
                p.dst = static_cast<u8>(rng.below(2) == 0
                    ? 12 : rng.below(net::OpnNetwork::NODES));
                p.cls = static_cast<net::OpnClass>(rng.below(
                    static_cast<u64>(net::OpnClass::NUM_CLASSES)));
                p.tag = ++tag;
                if (!opn.inject(p, t))
                    ++rejected;
            }
        }
        opn.tick(t);
        for (const auto &d : opn.delivered()) {
            fnv.add(t);
            fnv.add(u64{d.tag});
            fnv.add(u64{d.hops});
            ++delivered;
        }
    }
    EXPECT_EQ(delivered, opn.packetsSent());   // the tail fully drains
    EXPECT_EQ(rejected, 12134u);
    EXPECT_EQ(opn.packetsSent(), 6051u);
    fnv.add(rejected);
    fnv.add(opn.packetsSent());
    fnv.add(opn.avgLatency());
    for (size_t c = 0; c < static_cast<size_t>(net::OpnClass::NUM_CLASSES);
         ++c) {
        const auto &d = opn.hopDist(static_cast<net::OpnClass>(c));
        for (unsigned b = 0; b < d.numBuckets(); ++b)
            fnv.add(d.count(b));
        fnv.add(d.samples());
        fnv.add(d.mean());
    }
    EXPECT_EQ(fnv.h, 0x1828a27961d47cd5ULL) << std::hex << fnv.h;
}

TEST(Opn, ModerateLoadGolden)
{
    // Figure-shaped traffic (net/opn_load.hh): about 1.7 inject
    // attempts per tick in bursts of 1-3 packets from one node, all
    // seven classes, rejects retried in order. CongestionGolden covers
    // saturation; this pins the light-load, same-source-burst regime
    // that figure runs actually produce: the delivered (tick, tag,
    // hops) stream, the reject count, and every exported statistic.
    // Captured from the ring-buffer router before the flat rewrite.
    net::OpnNetwork opn;
    net::OpnLoad load(0x5eed0f1a);
    Fnv fnv;
    u64 delivered = 0;
    const Cycle ticks = 200'000;
    for (Cycle t = 1; t <= ticks; ++t) {
        load.inject(opn, t);
        opn.tick(t);
        for (const auto &d : opn.delivered()) {
            fnv.add(t);
            fnv.add(u64{d.tag});
            fnv.add(u64{d.hops});
            ++delivered;
        }
    }
    EXPECT_EQ(delivered + 14, opn.packetsSent());   // 14 still in flight
    EXPECT_EQ(load.attempts(), 335726u);
    EXPECT_EQ(load.rejected(), 2512u);
    EXPECT_EQ(opn.packetsSent(), 333214u);
    fnv.add(load.rejected());
    fnv.add(opn.packetsSent());
    fnv.add(opn.avgLatency());
    for (size_t c = 0; c < static_cast<size_t>(net::OpnClass::NUM_CLASSES);
         ++c) {
        const auto &d = opn.hopDist(static_cast<net::OpnClass>(c));
        for (unsigned b = 0; b < d.numBuckets(); ++b)
            fnv.add(d.count(b));
        fnv.add(d.samples());
        fnv.add(d.mean());
    }
    EXPECT_EQ(fnv.h, 0x6346a8a5cfebcfe1ULL) << std::hex << fnv.h;
}

// ---------------------------------------------------------------------
// Predictors
// ---------------------------------------------------------------------

TEST(Tournament, LearnsBiasAndPattern)
{
    pred::TournamentPredictor tp;
    // Strong taken bias.
    for (int i = 0; i < 100; ++i)
        tp.update(0x40, true);
    EXPECT_TRUE(tp.predict(0x40));
    // Alternating pattern learned via local history.
    for (int i = 0; i < 2000; ++i)
        tp.update(0x80, i & 1);
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        bool taken = i & 1;
        correct += tp.predict(0x80) == taken;
        tp.update(0x80, taken);
    }
    EXPECT_GT(correct, 90);
}

TEST(NextBlock, LearnsLoopExitAndTarget)
{
    pred::NextBlockPredictor nbp(pred::NextBlockConfig::prototype());
    // Block 5 loops to itself on exit 0 nine times, then exit 1 to 6.
    for (int rep = 0; rep < 50; ++rep) {
        for (int i = 0; i < 9; ++i)
            nbp.update(5, 0, 5, pred::BranchKind::Branch, 0);
        nbp.update(5, 1, 6, pred::BranchKind::Branch, 0);
        nbp.update(6, 0, 5, pred::BranchKind::Branch, 0);
    }
    // After warmup: the common case must predict correctly.
    auto p = nbp.predict(5);
    EXPECT_TRUE(p.valid);
    EXPECT_TRUE(p.nextBlock == 5 || p.nextBlock == 6);
    double rate = nbp.stats().missRate();
    EXPECT_LT(rate, 0.35);   // dominated by the 9-in-10 self loop
}

TEST(NextBlock, RasPredictsReturns)
{
    pred::NextBlockPredictor nbp(pred::NextBlockConfig::improved());
    // call block 1 -> 10, return to 2; callee 10 rets.
    for (int rep = 0; rep < 30; ++rep) {
        nbp.update(1, 0, 10, pred::BranchKind::Call, 2);
        nbp.update(10, 0, 2, pred::BranchKind::Ret, 0);
        nbp.update(2, 0, 1, pred::BranchKind::Branch, 0);
    }
    nbp.update(1, 0, 10, pred::BranchKind::Call, 2);
    auto p = nbp.predict(10);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.nextBlock, 2u);
    nbp.update(10, 0, 2, pred::BranchKind::Ret, 0);
}

TEST(DependencePredictor, TrainsAndDecays)
{
    pred::DependencePredictor dp(256);
    EXPECT_FALSE(dp.shouldWait(0x123));
    dp.trainViolation(0x123);
    EXPECT_TRUE(dp.shouldWait(0x123));
    EXPECT_FALSE(dp.shouldWait(0x456));
    for (int i = 0; i < 3 * 4096 + 10; ++i)
        dp.decayTick();
    EXPECT_FALSE(dp.shouldWait(0x123));
}

// ---------------------------------------------------------------------
// MemImage & stats
// ---------------------------------------------------------------------

TEST(MemImage, LittleEndianAndSparse)
{
    MemImage m;
    m.write(0x1000, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read8(0x1000), 0x88);
    EXPECT_EQ(m.read8(0x1007), 0x11);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566u);
    EXPECT_EQ(m.read64(0x900000), 0u);   // untouched reads zero
    m.writeF64(0x2000, 3.25);
    EXPECT_DOUBLE_EQ(m.readF64(0x2000), 3.25);
    EXPECT_LE(m.residentPages(), 3u);
}

TEST(MemImage, CrossPageWriteBytesMatchesByteWrites)
{
    // Runs that start mid-page, span whole pages, end mid-page, and an
    // empty run (which must create no page).
    std::vector<u8> src(3 * MemImage::PAGE_SIZE + 100);
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i * 131 + 7);
    const std::pair<Addr, size_t> runs[] = {
        {0x10ff0, 32}, {0x20000 - 5, src.size()}, {0x40000, 0},
        {0x51000, MemImage::PAGE_SIZE}};
    MemImage bulk, bytes;
    for (const auto &[a, n] : runs) {
        bulk.writeBytes(a, src.data(), n);
        for (size_t i = 0; i < n; ++i)
            bytes.write8(a + i, src[i]);
    }
    EXPECT_EQ(bulk.residentPages(), bytes.residentPages());
    EXPECT_EQ(bulk.residentPages(), 8u);
    for (const auto &[idx, page] : bytes.rawPages()) {
        const u8 *other = bulk.pageData(idx);
        ASSERT_NE(other, nullptr) << "page " << idx;
        EXPECT_EQ(std::memcmp(other, page.data(), page.size()), 0)
            << "page " << idx;
    }
}

TEST(Stats, DistributionAndMeans)
{
    Distribution d(8);
    d.sample(0, 10);
    d.sample(3, 10);
    d.sample(100);   // clamps into last bucket
    EXPECT_EQ(d.samples(), 21u);
    EXPECT_DOUBLE_EQ(d.fraction(0), 10.0 / 21);
    EXPECT_EQ(d.count(7), 1u);
    EXPECT_NEAR(d.mean(), (0 * 10 + 3 * 10 + 100) / 21.0, 1e-9);

    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
    EXPECT_NEAR(amean({1.0, 2.0, 3.0}), 2.0, 1e-9);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(9);
    for (int i = 0; i < 1000; ++i) {
        i64 v = c.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}
