#include "probes.hh"

#include <algorithm>
#include <ctime>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "isa/topology.hh"
#include "tracer.hh"

namespace perfbench {

namespace mem = trips::mem;
namespace net = trips::net;
namespace isa = trips::isa;

// ---------------------------------------------------------------------
// mem: recording port and replay
// ---------------------------------------------------------------------

mem::MemResponse
RecordingPort::access(const mem::MemRequest &req, Cycle now)
{
    mem::MemResponse r = real.access(req, now);
    PortOp op;
    op.req = req;
    op.now = now;
    op.done = r.done;
    log.push_back(op);
    return r;
}

void
RecordingPort::noteL1Writeback(unsigned core, Addr victim_line,
                               unsigned bytes)
{
    real.noteL1Writeback(core, victim_line, bytes);
    PortOp op;
    op.req.addr = victim_line;
    op.req.coreId = static_cast<trips::u8>(core);
    op.bytes = bytes;
    op.isNote = true;
    log.push_back(op);
}

ReplayResult
replayLog(const std::vector<PortOp> &log,
          const mem::MemorySystemConfig &cfg)
{
    mem::MemorySystem ms(cfg);
    ReplayResult res;
    std::vector<Cycle> done;
    done.reserve(log.size());
    auto t0 = Clock::now();
    for (const auto &op : log) {
        if (op.isNote)
            ms.noteL1Writeback(op.req.coreId, op.req.addr, op.bytes);
        else
            done.push_back(ms.access(op.req, op.now).done);
    }
    double ns = nsBetween(t0, Clock::now());
    size_t k = 0;
    for (const auto &op : log) {
        if (op.isNote)
            continue;
        if (done[k++] != op.done)
            ++res.mismatches;
    }
    res.accesses = done.size();
    res.accessNs = res.accesses ? ns / static_cast<double>(res.accesses)
                                : 0;
    return res;
}

// ---------------------------------------------------------------------
// net: OPN driver
// ---------------------------------------------------------------------

namespace {

u64
splitmix(u64 &s)
{
    u64 z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
unit(u64 &s)
{
    return static_cast<double>(splitmix(s) >> 11) * 0x1.0p-53;
}

std::vector<unsigned>
etNodes()
{
    std::vector<unsigned> v;
    for (unsigned e = 0; e < 16; ++e)
        v.push_back(isa::opnNode(isa::etCoord(e)));
    return v;
}

std::vector<unsigned>
dtNodes()
{
    std::vector<unsigned> v;
    for (unsigned d = 0; d < isa::NUM_DTS; ++d)
        v.push_back(isa::opnNode(isa::dtCoord(d)));
    return v;
}

std::vector<unsigned>
rtNodes()
{
    std::vector<unsigned> v;
    for (unsigned r = 0; r < 4; ++r)
        v.push_back(isa::opnNode(isa::rtCoord(r)));
    return v;
}

/** Source and destination node sets of each traffic class. */
std::pair<std::vector<unsigned>, std::vector<unsigned>>
classEnds(net::OpnClass c)
{
    std::vector<unsigned> all;
    for (unsigned n = 0; n < net::OpnNetwork::NODES; ++n)
        all.push_back(n);
    std::vector<unsigned> gt{isa::opnNode(isa::gtCoord())};
    switch (c) {
      case net::OpnClass::EtEt: return {etNodes(), etNodes()};
      case net::OpnClass::EtDt: return {etNodes(), dtNodes()};
      case net::OpnClass::EtRt: return {etNodes(), rtNodes()};
      case net::OpnClass::EtGt: return {etNodes(), gt};
      case net::OpnClass::DtRt: return {dtNodes(), rtNodes()};
      case net::OpnClass::DtEt: return {dtNodes(), etNodes()};
      case net::OpnClass::RtEt: return {rtNodes(), etNodes()};
      default: return {all, all};
    }
}

unsigned
hops(unsigned a, unsigned b)
{
    unsigned ar = a / isa::OPN_COLS, ac = a % isa::OPN_COLS;
    unsigned br = b / isa::OPN_COLS, bc = b % isa::OPN_COLS;
    return (ar > br ? ar - br : br - ar) + (ac > bc ? ac - bc : bc - ac);
}

struct Choice
{
    net::OpnClass cls;
    std::vector<std::pair<unsigned, unsigned>> pairs;
    double cum;   ///< cumulative weight
};

} // namespace

OpnDriveResult
driveOpn(const OpnMix &mix, u64 cycles, u64 seed)
{
    // Sampling table over (class, hop count > 0): weight = how often
    // the measured run routed that class over that many hops; each
    // entry holds the node pairs of that class at that distance (or
    // all pairs of the class when the topology has none).
    std::vector<Choice> table;
    double total = 0;
    for (size_t c = 0; c < mix.hops.size(); ++c) {
        auto cls = static_cast<net::OpnClass>(c);
        auto [srcs, dsts] = classEnds(cls);
        const auto &d = mix.hops[c];
        for (unsigned h = 1; h < d.numBuckets(); ++h) {
            if (!d.count(h))
                continue;
            Choice ch{cls, {}, 0};
            for (unsigned s : srcs)
                for (unsigned t : dsts)
                    if (s != t && hops(s, t) == h)
                        ch.pairs.push_back({s, t});
            if (ch.pairs.empty())
                for (unsigned s : srcs)
                    for (unsigned t : dsts)
                        if (s != t)
                            ch.pairs.push_back({s, t});
            total += static_cast<double>(d.count(h));
            ch.cum = total;
            table.push_back(std::move(ch));
        }
    }
    OpnDriveResult res;
    if (table.empty() || mix.packetsPerCycle <= 0)
        return res;

    // The schedule is generated up front so only inject + tick run
    // inside the timed loop.
    u64 rng = seed ^ 0x6f706e5f64726976ULL;
    std::vector<u32> perCycle(cycles);
    std::vector<net::OpnPacket> pkts;
    const double whole = static_cast<double>(
        static_cast<u64>(mix.packetsPerCycle));
    const double frac = mix.packetsPerCycle - whole;
    for (u64 cyc = 0; cyc < cycles; ++cyc) {
        u32 n = static_cast<u32>(whole) + (unit(rng) < frac ? 1 : 0);
        perCycle[cyc] = n;
        for (u32 k = 0; k < n; ++k) {
            double x = unit(rng) * total;
            size_t i = 0;
            while (i + 1 < table.size() && table[i].cum <= x)
                ++i;
            const auto &ch = table[i];
            const auto &p = ch.pairs[splitmix(rng) % ch.pairs.size()];
            net::OpnPacket pkt;
            pkt.src = static_cast<trips::u8>(p.first);
            pkt.dst = static_cast<trips::u8>(p.second);
            pkt.cls = ch.cls;
            pkt.tag = static_cast<u32>(pkts.size());
            pkts.push_back(pkt);
        }
    }

    net::OpnNetwork opn;
    std::vector<net::OpnPacket> retry, still;
    retry.reserve(64);
    still.reserve(64);
    size_t next = 0;
    u64 delivered = 0;
    auto t0 = Clock::now();
    for (u64 cyc = 0; cyc < cycles; ++cyc) {
        still.clear();
        for (const auto &p : retry)
            if (!opn.inject(p, cyc))
                still.push_back(p);
        for (u32 k = 0; k < perCycle[cyc]; ++k, ++next)
            if (!opn.inject(pkts[next], cyc))
                still.push_back(pkts[next]);
        retry.swap(still);
        opn.tick(cyc);
        delivered += opn.delivered().size();
    }
    double ns = nsBetween(t0, Clock::now());
    res.delivered = delivered;
    res.tickNs = ns / static_cast<double>(cycles);
    res.nsPerPacket = delivered ? ns / static_cast<double>(delivered) : 0;
    return res;
}

// ---------------------------------------------------------------------
// host
// ---------------------------------------------------------------------

namespace {

void
spin(u64 iters, volatile u64 *out)
{
    u64 x = iters;
    for (u64 i = 0; i < iters; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    *out = x;
}

double
spinWallNs(unsigned threads, u64 iters)
{
    std::vector<u64> sinks(threads * 8);
    auto t0 = Clock::now();
    std::vector<std::thread> th;
    th.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        th.emplace_back(spin, iters, &sinks[i * 8]);
    for (auto &t : th)
        t.join();
    return nsBetween(t0, Clock::now());
}

} // namespace

double
effectiveParallelism()
{
    // Idle virtual CPUs can take a few hundred ms of sustained load to
    // come up: on a 4-vCPU host a cold 100 ms spin reads ~1.0 where the
    // same spin reads 3.5-4.0 once warm. Warm up with ~0.3 s of
    // n-thread load, then measure (each spin ~0.1 s).
    unsigned n = std::max(1u, std::thread::hardware_concurrency());
    constexpr u64 ITERS = 80'000'000;
    spinWallNs(n, 3 * ITERS);
    double all = spinWallNs(n, ITERS);
    double one = spinWallNs(1, ITERS);
    return all > 0 ? n * one / all : 0;
}

namespace {

/** Keeps the reference loop's result alive. */
volatile u64 referenceSink;

} // namespace

double
referenceNs()
{
    // 1 MiB of pseudo-random successors, swept once so the table is
    // warm in cache, then a dependent walk with data-dependent
    // branches, about the shape of an interpreter loop.
    constexpr u32 MASK = (1u << 18) - 1;
    constexpr u64 STEPS = 50'000;
    static const std::vector<u32> table = [] {
        std::vector<u32> t(MASK + 1);
        u64 s = 0x243f6a8885a308d3ULL;
        for (auto &x : t) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            x = static_cast<u32>(s);
        }
        return t;
    }();
    u64 acc = 0;
    for (u32 w : table)
        acc += w;
    const auto t0 = Clock::now();
    u32 x = 1;
    for (u64 i = 0; i < STEPS; ++i) {
        x = table[x & MASK] ^ (x * 0x9e3779b1u);
        if (x & 1)
            acc += x;
        else
            acc ^= x >> 3;
    }
    referenceSink = acc;
    return nsBetween(t0, Clock::now());
}

double
HostRef::sample()
{
    recent.push_back(referenceNs());
    if (recent.size() > WINDOW)
        recent.pop_front();
    std::vector<double> v(recent.begin(), recent.end());
    std::sort(v.begin(), v.end());
    return NOMINAL_NS / v[v.size() / 2];
}

double
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 +
           static_cast<double>(ts.tv_nsec);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// observers
// ---------------------------------------------------------------------

void
NbpObserver::onBlockCommit(const isa::Block &b,
                           const trips::sim::BlockRecord &rec)
{
    if (rec.halts)
        return;
    const auto &br = b.insts[rec.branchInst];
    trips::pred::BranchKind kind =
        rec.isCall ? trips::pred::BranchKind::Call
      : rec.isRet ? trips::pred::BranchKind::Ret
                  : trips::pred::BranchKind::Branch;
    u32 push = rec.isCall ? static_cast<u32>(br.returnBlock) : 0;
    nbp.update(rec.blockIdx, rec.exitTaken, rec.nextBlock, kind, push);
}

// ---------------------------------------------------------------------
// engine trace
// ---------------------------------------------------------------------

bool
parseEngineTrace(const std::string &path, EngineCounts &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    // TraceSink::writeFile emits one event per line.
    const std::string replayed = "\"replayed\":";
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"name\":\"barrier\"") != std::string::npos) {
            ++out.quanta;
            auto p = line.find(replayed);
            if (p != std::string::npos)
                out.replayed += std::stoull(line.substr(p + replayed.size()));
        } else if (line.find("\"name\":\"reclone\"") != std::string::npos) {
            ++out.reclones;
        }
    }
    return true;
}

} // namespace perfbench
