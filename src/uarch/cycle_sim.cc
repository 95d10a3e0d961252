#include "uarch/cycle_sim.hh"

#include <algorithm>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "support/error.hh"
#include "trips/exec_core.hh"

namespace trips::uarch {

using isa::Block;
using isa::Instruction;
using isa::Opcode;
using isa::PredMode;
using isa::Target;

namespace {

// Token and instruction states are enum-typed, not u8: a store through
// a character type may alias anything, so every token write would make
// the compiler reload the surrounding state.
enum TokSt : u8 { TOK_EMPTY = 0, TOK_VALUE = 1, TOK_NULL = 2 };

/** Trace thread row for a core's memory instants (frame slots own
 *  rows 0..numFrames-1). */
enum : u32 { OBS_TID_MEM = 100 };
enum InstSt : u8 { IS_WAITING = 0, IS_READY = 1, IS_ISSUED = 2,
                   IS_FIRED = 3, IS_DEAD = 4 };

struct Tok
{
    TokSt st = TOK_EMPTY;
    u64 v = 0;
};

/** Per-instruction dynamic state, packed to 32 bytes (two per cache
 *  line) so one token delivery (operand write + wake check) touches a
 *  single line: operand values and their token states sit in separate
 *  arrays instead of three padded (state, value) pairs. */
struct InstState
{
    std::array<u64, 3> v{};
    std::array<TokSt, 3> st{};
    InstSt istate = IS_WAITING;
    bool dispatched = false;
};
static_assert(sizeof(InstState) == 32);

struct LsqEntry
{
    u16 inst = 0;
    u8 lsid = 0;
    bool isStore = false;
    bool executed = false;
    bool isNull = false;
    Addr addr = 0;
    u8 width = 0;
    u32 order = 0;      ///< insertion (execution) order within the frame
    u64 value = 0;
    Cycle execTime = 0;
};

} // namespace

struct CycleSim::Frame
{
    enum class St : u8 { Free, Fetching, Dispatching, Executing };

    // Hot scalars first: the per-cycle frame-queue walks (commit
    // check, RET resolution, older-store checks) should stay within
    // the frame's leading cache lines; the bulky containers follow.
    St st = St::Free;
    bool branchResolved = false;
    bool retPending = false;
    bool nextKnown = false;
    bool isCall = false, isRet = false, haltsCandidate = false;
    u8 exitTaken = 0;
    u16 branchInst = 0;
    u32 blockIdx = 0;
    u64 seq = 0;
    u32 epoch = 0;
    u32 predictedNext = 0;
    u32 actualNext = 0;
    std::array<u64, 2> writeMask{}; ///< bm->writeMask (RT read walks)
    const InstMeta *im = nullptr;   ///< bm->insts.data()
    const Block *blk = nullptr;
    const BlockMeta *bm = nullptr;  ///< decoded static facts (cached)
    Cycle fetchedAt = 0;    ///< stamp for obs block spans (write-only)

    unsigned dispatchedCount = 0;
    unsigned writesNeeded = 0, writesDone = 0;
    unsigned storesNeeded = 0, storesDone = 0;
    u32 storeDoneMask = 0;
    u32 lsqOrder = 0;
    unsigned firedCount = 0;
    /** Bit per instruction that received a token before it was
     *  dispatched: the only ones dispatch completion must re-examine. */
    std::array<u64, 2> earlyTokens{};
    static_assert(isa::MAX_INSTS <= 128, "earlyTokens is two u64 words");

    /** Inline, so a token reaches its instruction's state without
     *  first loading a buffer pointer; slots past the block's size
     *  are stale and never read. */
    std::array<InstState, isa::MAX_INSTS> is;
    std::vector<Tok> writeVals;
    /** LSQ kept insertion-sorted by LSID so loads merge in place.
     *  Small inline buffer: spills stay allocated for the life of the
     *  frame slot, so steady state is still allocation-free. */
    SmallVec<LsqEntry, 8> lsq;

    bool
    complete() const
    {
        return writesDone >= writesNeeded && storesDone >= storesNeeded &&
               nextKnown;
    }

    /** Insert into the LSQ keeping ascending LSID order (stable). */
    void
    lsqInsert(const LsqEntry &le_in)
    {
        LsqEntry le = le_in;
        le.order = lsqOrder++;
        size_t i = lsq.size();
        while (i > 0 && lsq[i - 1].lsid > le.lsid)
            --i;
        lsq.insertAt(i, le);
    }
};

struct CycleSim::DtState
{
    RingQueue<PacketData, 16> queue;  ///< MemRequest payloads
    Cycle bankFree = 0;
};

// ---------------------------------------------------------------------

namespace {

/** Fatal on an invalid config *before* any member consumes it: Cache
 *  and the predictors assert on malformed geometry themselves, so a
 *  post-construction check would crash with their internal messages
 *  instead of validate()'s diagnostics. */
const UarchConfig &
checkedConfig(const UarchConfig &cfg)
{
    std::string err = cfg.validate();
    if (!err.empty())
        TRIPS_THROW(ErrCode::InvalidConfig, Subsys::Uarch,
                    "invalid UarchConfig: ", err);
    return cfg;
}

} // namespace

CycleSim::CycleSim(const isa::Program &prog, MemImage &mem,
                   const UarchConfig &cfg_)
    : prog(prog), mem(mem), cfg(checkedConfig(cfg_)),
      frames(cfg.numFrames),
      l1i(cfg.l1i),
      ownedUncore(std::make_unique<mem::MemorySystem>(uncoreConfig(cfg))),
      uncore(ownedUncore.get()),
      predictor(cfg.predictor),
      depPred(cfg.depPredEntries),
      dts(isa::NUM_DTS)
{
    for (unsigned b = 0; b < isa::NUM_DTS; ++b)
        l1d.emplace_back(cfg.l1dBank);
    initCommon();
}

CycleSim::CycleSim(const isa::Program &prog, MemImage &mem,
                   const UarchConfig &cfg_, mem::UncorePort &uncore_,
                   unsigned core_id)
    : prog(prog), mem(mem), cfg(checkedConfig(cfg_)),
      frames(cfg.numFrames),
      l1i(cfg.l1i),
      uncore(&uncore_),
      coreId(core_id),
      predictor(cfg.predictor),
      depPred(cfg.depPredEntries),
      dts(isa::NUM_DTS)
{
    if (core_id >= uncore_.config().numCores)
        TRIPS_THROW(ErrCode::InvalidConfig, Subsys::Uarch,
                    "core id ", core_id, " out of range for an uncore "
                    "with ", uncore_.config().numCores, " core ports");
    for (unsigned b = 0; b < isa::NUM_DTS; ++b)
        l1d.emplace_back(cfg.l1dBank);
    initCommon();
}

void
CycleSim::initCommon()
{
    // Structural fit: every block's memory footprint must fit the
    // configured per-frame LSQ (one entry per LSID in hardware).
    for (u32 b = 0; b < prog.numBlocks(); ++b) {
        unsigned mem_insts = 0;
        for (const auto &in : prog.block(b).insts) {
            if (isa::isMemory(in.op))
                ++mem_insts;
        }
        if (mem_insts > cfg.lsqEntriesPerFrame)
            TRIPS_THROW(ErrCode::ResourceExhausted, Subsys::Uarch,
                        "block ", prog.block(b).label, " needs ",
                        mem_insts, " LSQ entries but the config provides ",
                        cfg.lsqEntriesPerFrame, " per frame");
    }
    regfile[1] = STACK_BASE;
    nextFetchBlock = prog.entry;
    retStack.reserve(64);
    blockMeta.resize(prog.numBlocks());
}

const CycleSim::BlockMeta &
CycleSim::metaFor(u32 block_idx)
{
    BlockMeta &bm = blockMeta[block_idx];
    if (!bm.insts.empty())
        return bm;
    const Block &blk = prog.block(block_idx);
    auto &m = bm.insts;
    m.resize(blk.insts.size());
    for (size_t i = 0; i < blk.insts.size(); ++i) {
        u8 et = static_cast<u8>(
            blk.placement.empty() ? (i % isa::NUM_ETS) : blk.placement[i]);
        m[i].et = et;
        m[i].etNode = static_cast<u8>(isa::opnNode(isa::etCoord(et)));
    }
    // Targets resolve to a destination node now, so the route path
    // never consults the consumer's placement or the write's bank.
    auto decode = [&](const Target (&ts)[2], unsigned src_node,
                      RouteTarget (&out)[2]) {
        u8 n = 0;
        for (const Target &t : ts) {
            if (!t.valid())
                continue;
            RouteTarget &rt = out[n++];
            rt.index = t.index;
            if (t.kind == Target::Kind::Write) {
                rt.slot = RouteTarget::WRITE_SLOT;
                rt.dst = static_cast<u8>(isa::opnNode(isa::rtCoord(
                    Block::regBank(blk.writes[t.index].reg))));
            } else {
                rt.slot = t.kind == Target::Kind::Op0 ? 0
                        : t.kind == Target::Kind::Op1 ? 1 : 2;
                rt.dst = m[t.index].etNode;
                rt.bypass = rt.dst == src_node;
            }
        }
        return n;
    };
    for (size_t i = 0; i < blk.insts.size(); ++i) {
        const Instruction &in = blk.insts[i];
        const auto &info = opInfo(in.op);
        InstMeta &im = m[i];
        im.numTargets = decode(in.targets, im.etNode, im.tgt);
        im.numInputs = info.numInputs;
        im.latency = info.latency;
        im.lsid = in.lsid;
        im.op = in.op;
        im.imm = in.imm;
        u8 fl = 0;
        if (in.predicated())
            fl |= FL_PREDICATED;
        if (in.pr == PredMode::OnTrue)
            fl |= FL_PRED_ON_TRUE;
        if (isBranch(in.op))
            fl |= FL_BRANCH;
        if (isMemory(in.op))
            fl |= FL_MEMORY;
        if (isLoad(in.op))
            fl |= FL_LOAD;
        im.flags = fl;
    }
    bm.reads.resize(blk.reads.size());
    for (size_t r = 0; r < blk.reads.size(); ++r) {
        const auto &rd = blk.reads[r];
        auto &out = bm.reads[r];
        out.reg = rd.reg;
        out.numTargets = decode(rd.targets,
            isa::opnNode(isa::rtCoord(Block::regBank(rd.reg))), out.tgt);
    }
    for (const auto &w : blk.writes)
        bm.writeMask[w.reg >> 6] |= u64{1} << (w.reg & 63);
    return bm;
}

CycleSim::~CycleSim() = default;

bool
CycleSim::frameOlder(unsigned a, unsigned b) const
{
    return frames[a].seq < frames[b].seq;
}

// ---------------------------------------------------------------------
// Event machinery
// ---------------------------------------------------------------------

// The per-token helpers below are force-inlined: each runs once per
// operand token, and as calls they cost more than their bodies.

__attribute__((always_inline)) inline void
CycleSim::pushEvent(Cycle when, const Event &ev)
{
    // The wheel requires a completion at least one cycle out; clamp
    // so zero-latency UarchConfig settings degrade to next-cycle
    // completion instead of landing in an already-drained bucket.
    if (when <= now)
        when = now + 1;
    Event *e;
    FarEvent far;
    const unsigned b = static_cast<unsigned>(when & WHEEL_MASK);
    if (when - now >= WHEEL_SIZE)
        e = &far.ev;
    else if (wheelCount[b] < BUCKET_SLOTS)
        e = &wheel[b][wheelCount[b]++];
    else
        e = &wheelSpill[b].emplace_back();
    // Field by field: callers build @p ev with narrow stores, and a
    // whole-struct copy would reload it as one wide word, which the
    // store buffer cannot forward.
    e->value = ev.value;
    e->epoch = ev.epoch;
    e->fidx = ev.fidx;
    e->inst = ev.inst;
    e->kind = ev.kind;
    e->arg = ev.arg;
    if (e == &far.ev) {
        far.when = when;
        far.seq = ++overflowSeq;
        overflow.push(far);
    }
}

__attribute__((always_inline)) inline void
CycleSim::processEvent(const Event &ev)
{
    Frame &f = frames[ev.fidx];
    if (f.st == Frame::St::Free || f.epoch != ev.epoch)
        return;
    switch (ev.kind) {
      case Event::ExecDone:
        finishExecute(f, ev.fidx, ev.inst, ev.value,
                      TokenArg::isNull(ev.arg), false);
        break;
      case Event::TokenDeliver:
        deliverToken(f, ev.fidx, ev.inst, TokenArg::operand(ev.arg),
                     ev.value, TokenArg::isNull(ev.arg));
        break;
      case Event::GtWriteNote:
        ++f.writesDone;
        break;
      case Event::GtStoreNote:
        if (!(f.storeDoneMask & (1u << ev.inst))) {
            f.storeDoneMask |= 1u << ev.inst;
            ++f.storesDone;
        }
        break;
      case Event::LoadReply:
        finishExecute(f, ev.fidx, ev.inst, ev.value, false, true);
        break;
    }
}

void
CycleSim::drainEvents()
{
    // Due overflow events first, then the bucket: that is push order.
    // An overflow event due now was pushed at least WHEEL_SIZE cycles
    // ago, every bucket entry less than WHEEL_SIZE cycles ago. Events
    // pushed while draining land at least one cycle ahead, never in
    // this bucket and never due in the heap.
    while (!overflow.empty() && overflow.top().when <= now) {
        const Event ev = overflow.top().ev;
        overflow.pop();
        processEvent(ev);
    }
    const unsigned b = static_cast<unsigned>(now & WHEEL_MASK);
    for (u32 i = 0; i < wheelCount[b]; ++i)
        processEvent(wheel[b][i]);
    for (const Event &ev : wheelSpill[b])
        processEvent(ev);
    wheelSpill[b].clear();
    wheelCount[b] = 0;
}

// ---------------------------------------------------------------------
// Fetch & dispatch
// ---------------------------------------------------------------------

void
CycleSim::startFetch(u32 block_idx)
{
    // Every frame in use: frameQueue holds exactly the non-free frames,
    // so the scan below could not find one (the common case in a full
    // window, where fetch retries every cycle).
    if (frameQueue.size() == frames.size())
        return;
    // Find a free frame.
    i32 slot = -1;
    for (unsigned i = 0; i < frames.size(); ++i) {
        if (frames[i].st == Frame::St::Free) {
            slot = static_cast<i32>(i);
            break;
        }
    }
    if (slot < 0)
        return;

    Frame &f = frames[slot];
    const Block &blk = prog.block(block_idx);
    f.st = Frame::St::Fetching;
    f.blockIdx = block_idx;
    f.seq = nextSeq++;
    ++f.epoch;
    f.blk = &blk;
    f.bm = &metaFor(block_idx);
    f.im = f.bm->insts.data();
    f.writeMask = f.bm->writeMask;
    std::fill_n(f.is.begin(), blk.insts.size(), InstState{});
    f.dispatchedCount = 0;
    f.writesNeeded = static_cast<unsigned>(blk.writes.size());
    f.writesDone = 0;
    f.storesNeeded = static_cast<unsigned>(
        __builtin_popcount(blk.storeMask));
    f.storesDone = 0;
    f.storeDoneMask = 0;
    f.writeVals.assign(blk.writes.size(), Tok{});
    f.lsq.clear();
    f.lsqOrder = 0;
    f.branchResolved = f.retPending = f.nextKnown = false;
    f.isCall = f.isRet = f.haltsCandidate = false;
    f.firedCount = 0;
    f.earlyTokens = {};
    f.fetchedAt = now;

    frameQueue.push_back(static_cast<unsigned>(slot));
    fetchingFrame = slot;
    dispatchCursor = 0;

    // I-cache access for every line of the block.
    Addr base = prog.blockAddr(block_idx);
    unsigned bytes = blk.codeBytes();
    Cycle ready = now + cfg.fetchLatency + cfg.l1iHitLatency;
    bool missed = false;
    for (Addr a = base; a < base + bytes; a += cfg.l1i.lineBytes) {
        auto r = l1i.access(a, false);
        if (!r.hit) {
            ++res.l1iMisses;
            missed = true;
            Cycle done = portAccess(a, false, 0, net::OcnClass::IFetch);
            ready = std::max(ready, done + cfg.fetchLatency);
        } else {
            ++res.l1iHits;
        }
    }
    if (missed)
        ++res.icacheMissStalls;
    fetchReadyAt = ready;

    // Chain-predict the successor.
    auto p = predictor.predict(block_idx);
    f.predictedNext = p.valid ? p.nextBlock
                              : (block_idx + 1 < prog.numBlocks()
                                     ? block_idx + 1 : 0);
    nextFetchBlock = f.predictedNext;
}

void
CycleSim::tickFetch()
{
    if (halted || fetchStalled || fetchingFrame >= 0)
        return;
    if (now < fetchReadyAt)
        return;
    startFetch(nextFetchBlock);
}

void
CycleSim::tickDispatch()
{
    if (fetchingFrame < 0 || now < fetchReadyAt)
        return;
    Frame &f = frames[fetchingFrame];
    if (f.st == Frame::St::Fetching) {
        f.st = Frame::St::Dispatching;
        // Header first: reads become visible to the register tiles.
        for (u32 r = 0; r < f.blk->reads.size(); ++r) {
            unsigned bank = Block::regBank(f.blk->reads[r].reg);
            rtQueues[bank].push_back(
                {static_cast<unsigned>(fetchingFrame), f.epoch,
                 static_cast<u16>(r)});
            rtBusy |= static_cast<u8>(1u << bank);
        }
    }
    const unsigned fidx = static_cast<unsigned>(fetchingFrame);
    const unsigned n = static_cast<unsigned>(f.blk->insts.size());
    const unsigned end = std::min(n, dispatchCursor + cfg.dispatchPerCycle);
    for (unsigned i = dispatchCursor; i < end; ++i) {
        f.is[i].dispatched = true;
        const InstMeta &im = f.im[i];
        if (im.numInputs == 0 && !(im.flags & FL_PREDICATED))
            maybeWake(f, fidx, i);
    }
    f.dispatchedCount += end - dispatchCursor;
    liveInsts += end - dispatchCursor;
    dispatchCursor = end;
    if (dispatchCursor >= n) {
        f.st = Frame::St::Executing;
        fetchingFrame = -1;
        fetchReadyAt = now + 1;
        // Re-examine instructions whose tokens arrived before they
        // were dispatched, in slot order; every other instruction was
        // examined at its last token (or at dispatch if it has none).
        for (unsigned w = 0; w < f.earlyTokens.size(); ++w) {
            for (u64 m = f.earlyTokens[w]; m; m &= m - 1) {
                maybeWake(f, fidx,
                          static_cast<unsigned>(w * 64 +
                                                __builtin_ctzll(m)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Token delivery & wakeup
// ---------------------------------------------------------------------

/** Deliver a token to a live frame @p f (the caller checked its
 *  epoch) and wake the consumer if that completes its operands. */
__attribute__((always_inline)) inline void
CycleSim::deliverToken(Frame &f, unsigned fidx, unsigned inst,
                       unsigned operand, u64 value, bool is_null)
{
    InstState &s = f.is[inst];
    TRIPS_ASSERT(s.st[operand] == TOK_EMPTY, "operand received two tokens");
    s.st[operand] = is_null ? TOK_NULL : TOK_VALUE;
    s.v[operand] = value;
    if (!s.dispatched) {
        f.earlyTokens[inst >> 6] |= u64{1} << (inst & 63);
        return;
    }
    maybeWake(f, fidx, inst);
}

__attribute__((always_inline)) inline void
CycleSim::maybeWake(Frame &f, unsigned fidx, unsigned inst)
{
    InstState &s = f.is[inst];
    if (!s.dispatched || s.istate != IS_WAITING)
        return;
    const InstMeta &im = f.im[inst];
    if (im.flags & FL_PREDICATED) {
        if (s.st[2] == TOK_EMPTY)
            return;
        bool want = (im.flags & FL_PRED_ON_TRUE) != 0;
        if (s.st[2] == TOK_NULL || (s.v[2] != 0) != want) {
            s.istate = IS_DEAD;
            return;
        }
    }
    for (unsigned k = 0; k < im.numInputs; ++k) {
        if (s.st[k] == TOK_EMPTY)
            return;
    }
    s.istate = IS_READY;
    etReady[im.et].push_back(
        {f.epoch, static_cast<u8>(fidx), static_cast<u8>(inst)});
    etReadyMask |= 1u << im.et;
}

// ---------------------------------------------------------------------
// Execution tiles
// ---------------------------------------------------------------------

void
CycleSim::tickEts()
{
    // Only ETs whose ready queue holds entries (ascending order, same
    // as the full scan). Queues never gain entries for a *different*
    // ET mid-loop (the only in-loop push is the same-ET retry), so the
    // snapshot mask covers everything the full scan would visit.
    for (u32 mask = etReadyMask; mask; mask &= mask - 1) {
        unsigned et = static_cast<unsigned>(__builtin_ctz(mask));
        auto &q = etReady[et];
        // One pass: compact stale entries out while selecting the
        // oldest-frame ready entry (first-wins on ties, matching
        // queue order).
        size_t w = 0;
        size_t sel = ~size_t{0};
        u64 best_seq = ~0ULL;
        for (size_t k = 0; k < q.size(); ++k) {
            const ReadyEntry e = q[k];
            const Frame &f = frames[e.fidx];
            // A live entry's instruction is IS_READY: only issuing it
            // (which removes the entry) or recycling the frame (a new
            // epoch) moves it on, so the epoch test finds every stale
            // entry.
            if (f.st == Frame::St::Free || f.epoch != e.epoch)
                continue;   // stale: drop
            if (f.seq < best_seq) {
                best_seq = f.seq;
                sel = w;
            }
            q[w++] = e;
        }
        q.truncate(w);
        if (sel < q.size()) {
            const ReadyEntry e = q[sel];
            q.eraseStable(sel);
            issueInst(e.fidx, e.inst, et);
        }
        // issueInst may have re-queued a retry entry; only clear the
        // occupancy bit when the queue really drained.
        if (q.empty())
            etReadyMask &= ~(1u << et);
    }
}

void
CycleSim::issueInst(unsigned fidx, unsigned inst, unsigned et)
{
    Frame &f = frames[fidx];
    const InstMeta &im = f.im[inst];
    InstState &s = f.is[inst];
    s.istate = IS_ISSUED;
    unsigned lat = im.latency;
    Event ev;
    ev.epoch = f.epoch;
    ev.fidx = static_cast<u8>(fidx);
    ev.inst = static_cast<u8>(inst);

    if (im.flags & FL_BRANCH) {
        // Exit packet to the GT.
        net::OpnPacket pkt;
        pkt.src = im.etNode;
        pkt.dst = static_cast<u8>(isa::opnNode(isa::gtCoord()));
        pkt.cls = net::OpnClass::EtGt;
        PacketData pd;
        pd.kind = PacketData::Kind::Branch;
        pd.fidx = static_cast<u8>(fidx);
        pd.epoch = f.epoch;
        pd.inst = static_cast<u8>(inst);
        queuePacket(pkt, pd);
        s.istate = IS_FIRED;
        ++f.firedCount;
        return;
    }

    if (im.flags & FL_MEMORY) {
        bool addr_null = s.st[0] == TOK_NULL;
        Addr ea = s.v[0] + static_cast<u64>(static_cast<i64>(im.imm));
        if (im.flags & FL_LOAD) {
            if (addr_null) {
                // Null loads complete locally.
                ev.kind = Event::ExecDone;
                ev.arg = TokenArg::make(0, true);
                pushEvent(now + lat, ev);
                return;
            }
            // Dependence predictor: wait for older stores?
            u64 key = prog.blockAddr(f.blockIdx) + inst;
            if (depPred.shouldWait(key) &&
                !olderStoresDone(fidx, static_cast<u16>(inst))) {
                // Retry next cycle.
                s.istate = IS_READY;
                etReady[et].push_back({f.epoch, static_cast<u8>(fidx),
                                       static_cast<u8>(inst)});
                etReadyMask |= 1u << et;
                return;
            }
            depPred.decayTick();
            sendMemRequest(fidx, inst, ea, 0);
            return;
        }
        // Store.
        bool val_null = s.st[1] == TOK_NULL;
        bool is_null = addr_null || val_null;
        if (is_null) {
            // Null store: completion token only.
            ev.kind = Event::GtStoreNote;
            ev.inst = im.lsid;
            pushEvent(now + cfg.statusLatency, ev);
            LsqEntry le;
            le.inst = static_cast<u16>(inst);
            le.lsid = im.lsid;
            le.isStore = true;
            le.executed = true;
            le.isNull = true;
            f.lsqInsert(le);
            s.istate = IS_FIRED;
            ++f.firedCount;
            return;
        }
        sendMemRequest(fidx, inst, ea, s.v[1]);
        return;
    }

    // Plain compute.
    bool any_null = false;
    for (unsigned k = 0; k < im.numInputs; ++k)
        any_null |= s.st[k] == TOK_NULL;
    u64 value = 0;
    bool is_null = any_null || im.op == Opcode::NULLW;
    if (!is_null)
        value = sim::evalOp(im.op, s.v[0], s.v[1], im.imm);
    ev.kind = Event::ExecDone;
    ev.value = value;
    ev.arg = TokenArg::make(0, is_null);
    pushEvent(now + lat, ev);
}

bool
CycleSim::olderStoresDone(unsigned fidx, u16 inst) const
{
    const Frame &f = frames[fidx];
    // Same frame: all store LSIDs below this load's LSID completed
    // (validateBlock makes storeMask exactly the block's store LSIDs).
    const u32 older = f.blk->storeMask & ((1u << f.im[inst].lsid) - 1);
    if (older & ~f.storeDoneMask)
        return false;
    // Older frames: all their stores completed.
    for (size_t qi = 0; qi < frameQueue.size(); ++qi) {
        unsigned idx = frameQueue[qi];
        if (idx == fidx)
            break;
        const Frame &g = frames[idx];
        if (g.st == Frame::St::Fetching ||
            g.st == Frame::St::Dispatching)
            return false;
        if (g.storesDone < g.storesNeeded)
            return false;
    }
    return true;
}

void
CycleSim::sendMemRequest(unsigned fidx, unsigned inst, Addr ea, u64 value)
{
    Frame &f = frames[fidx];
    unsigned bank = isa::dtForAddr(ea);
    net::OpnPacket pkt;
    pkt.src = f.im[inst].etNode;
    pkt.dst = static_cast<u8>(isa::opnNode(isa::dtCoord(bank)));
    pkt.cls = net::OpnClass::EtDt;
    PacketData pd;
    pd.kind = PacketData::Kind::MemRequest;
    pd.fidx = static_cast<u8>(fidx);
    pd.epoch = f.epoch;
    pd.inst = static_cast<u8>(inst);
    pd.addr = ea;
    pd.value = value;
    queuePacket(pkt, pd);
}

// ---------------------------------------------------------------------
// Operand routing
// ---------------------------------------------------------------------

__attribute__((always_inline)) inline void
CycleSim::finishExecute(Frame &f, unsigned fidx, unsigned inst, u64 value,
                        bool is_null, bool is_load_reply)
{
    if (f.is[inst].istate != IS_FIRED) {
        f.is[inst].istate = IS_FIRED;
        ++f.firedCount;
    }
    // Traffic-class accounting note: the model folds the DT->ET reply
    // leg of a load into the reply event's latency and distributes the
    // result from the load's own ET, so reply packets physically
    // originate at an ET node. They are still *accounted* as DT-ET /
    // DT-RT traffic (the paper's Fig. 8 reply classes); their hop
    // counts therefore measure the ET->consumer leg.
    const SrcClasses cls = is_load_reply
        ? SrcClasses{net::OpnClass::DtEt, net::OpnClass::DtRt}
        : SrcClasses{net::OpnClass::EtEt, net::OpnClass::EtRt};
    const InstMeta &im = f.im[inst];
    for (unsigned k = 0; k < im.numTargets; ++k)
        routeOperand(fidx, f.epoch, im.etNode, im.tgt[k], cls, value,
                     is_null);
}

__attribute__((always_inline)) inline void
CycleSim::routeOperand(unsigned fidx, u32 epoch, unsigned src_node,
                       const RouteTarget &t, SrcClasses cls, u64 value,
                       bool is_null)
{
    if (t.bypass) {
        // Local bypass within the ET: no network traversal.
        ++res.localBypasses;
        res.opnHops[static_cast<size_t>(cls.operand)].sample(0);
        Event ev;
        ev.kind = Event::TokenDeliver;
        ev.fidx = static_cast<u8>(fidx);
        ev.epoch = epoch;
        ev.inst = t.index;
        ev.arg = TokenArg::make(t.slot, is_null);
        ev.value = value;
        pushEvent(now + 1, ev);
        return;
    }
    net::OpnPacket pkt;
    pkt.src = static_cast<u8>(src_node);
    pkt.dst = t.dst;
    PacketData pd;
    pd.fidx = static_cast<u8>(fidx);
    pd.epoch = epoch;
    pd.value = value;
    pd.inst = t.index;
    if (t.slot == RouteTarget::WRITE_SLOT) {
        pkt.cls = cls.write;
        pd.kind = PacketData::Kind::WriteArrive;
        pd.arg = TokenArg::make(0, is_null);
    } else {
        pkt.cls = cls.operand;
        pd.kind = PacketData::Kind::Operand;
        pd.arg = TokenArg::make(t.slot, is_null);
    }
    queuePacket(pkt, pd);
}

__attribute__((always_inline)) inline void
CycleSim::queuePacket(net::OpnPacket pkt, const PacketData &pd)
{
    // Injecting now is what pumpOutbox() would do at the end of this
    // cycle: nothing else touches the router in between, and with the
    // outbox empty no older packet goes first (DESIGN.md §13).
    if (outbox.empty()) {
        const u16 slot = opn.injectSlot(pkt, now);
        if (slot != net::OpnNetwork::NO_SLOT) {
            payload[slot] = pd;
            return;
        }
    }
    outbox.push_back({pkt, pd});
}

void
CycleSim::pumpOutbox()
{
    // Try each packet once, in order; keep the failures in order
    // (stable in-place compaction, no O(n^2) middle erases).
    size_t w = 0;
    for (size_t i = 0; i < outbox.size(); ++i) {
        const u16 slot = opn.injectSlot(outbox[i].pkt, now);
        if (slot != net::OpnNetwork::NO_SLOT)
            payload[slot] = outbox[i].pd;
        else
            outbox[w++] = outbox[i];
    }
    outbox.truncate(w);
}

void
CycleSim::deliverPacket(unsigned slot)
{
    // Called by the router mid-tick, once per arrival. Nothing here
    // touches the network: routing starts at the events and stages
    // that run after the tick.
    const PacketData &pd = payload[slot];
    Frame &f = frames[pd.fidx];
    if (f.st == Frame::St::Free || f.epoch != pd.epoch)
        return;  // squashed
    switch (pd.kind) {
      case PacketData::Kind::Operand:
        deliverToken(f, pd.fidx, pd.inst, TokenArg::operand(pd.arg),
                     pd.value, TokenArg::isNull(pd.arg));
        break;
      case PacketData::Kind::WriteArrive: {
        auto &tok = f.writeVals[pd.inst];
        TRIPS_ASSERT(tok.st == TOK_EMPTY,
                     "write slot received two tokens");
        tok.st = TokenArg::isNull(pd.arg) ? TOK_NULL : TOK_VALUE;
        tok.v = pd.value;
        Event ev;
        ev.kind = Event::GtWriteNote;
        ev.fidx = pd.fidx;
        ev.epoch = pd.epoch;
        pushEvent(now + cfg.statusLatency, ev);
        break;
      }
      case PacketData::Kind::MemRequest: {
        unsigned bank = isa::dtForAddr(pd.addr);
        dts[bank].queue.push_back(pd);
        dtBusy |= static_cast<u8>(1u << bank);
        break;
      }
      case PacketData::Kind::Branch:
        resolveBranch(pd.fidx, pd.inst, f.blk->insts[pd.inst].exit);
        break;
    }
}

// ---------------------------------------------------------------------
// Data tiles
// ---------------------------------------------------------------------

Cycle
CycleSim::portAccess(Addr addr, bool is_write, unsigned requester_bank,
                     net::OcnClass cls)
{
    mem::MemRequest rq;
    rq.addr = addr;
    rq.cls = cls;
    rq.coreId = static_cast<u8>(coreId);
    rq.srcBank = static_cast<u8>(requester_bank);
    rq.isWrite = is_write;
    auto resp = uncore->access(rq, now);
    if (obs_)
        obsNoteMem(resp, cls);

    const auto &ucfg = uncore->config();
    res.bytesL2 += ucfg.l2Bank.lineBytes;
    if (resp.l2Hit) {
        ++res.l2Hits;
    } else {
        ++res.l2Misses;
        res.bytesMem += ucfg.dram.lineBytes;
    }
    if (resp.l2Writeback)
        ++res.l2Writebacks;
    return resp.done;
}

void
CycleSim::tickDts()
{
    // Most cycles carry no memory traffic at all; the busy mask makes
    // that case a single test instead of four scattered queue probes.
    for (u8 mask = dtBusy; mask; mask &= static_cast<u8>(mask - 1)) {
        unsigned bank = static_cast<unsigned>(__builtin_ctz(mask));
        auto &dt = dts[bank];
        if (now < dt.bankFree)
            continue;
        const PacketData pd = dt.queue.front();
        dt.queue.pop_front();
        if (dt.queue.empty())
            dtBusy &= static_cast<u8>(~(1u << bank));
        Frame &f = frames[pd.fidx];
        if (f.st == Frame::St::Free || f.epoch != pd.epoch)
            continue;
        dt.bankFree = now + cfg.dtServicePeriod;

        const InstMeta &im = f.im[pd.inst];
        const u8 width = static_cast<u8>(sim::memWidth(im.op));
        if (!(im.flags & FL_LOAD)) {
            LsqEntry le;
            le.inst = pd.inst;
            le.lsid = im.lsid;
            le.isStore = true;
            le.executed = true;
            le.addr = pd.addr;
            le.width = width;
            le.value = pd.value;
            le.execTime = now;
            f.lsqInsert(le);
            if (f.is[pd.inst].istate != IS_FIRED) {
                f.is[pd.inst].istate = IS_FIRED;
                ++f.firedCount;
            }
            Event ev;
            ev.kind = Event::GtStoreNote;
            ev.fidx = pd.fidx;
            ev.epoch = pd.epoch;
            ev.inst = im.lsid;
            pushEvent(now + cfg.statusLatency, ev);
            checkViolations(pd.fidx, pd.inst, pd.addr, width, im.lsid);
            continue;
        }

        // Load: record, access cache, schedule reply.
        LsqEntry le;
        le.inst = pd.inst;
        le.lsid = im.lsid;
        le.executed = true;
        le.addr = pd.addr;
        le.width = width;
        le.execTime = now;
        u64 value = loadValue(pd.fidx, im.lsid, pd.addr, width);
        value = sim::extendLoad(im.op, value);
        le.value = value;
        f.lsqInsert(le);
        ++res.loadsExecuted;
        res.bytesL1 += width;

        auto r = l1d[bank].access(pd.addr, false);
        if (r.writeback) {
            ++res.l1dWritebacks;
            uncore->noteL1Writeback(coreId, r.victimLine,
                                    cfg.l1dBank.lineBytes);
        }
        Cycle done;
        if (r.hit) {
            ++res.l1dHits;
            done = now + cfg.l1dHitLatency;
        } else {
            ++res.l1dMisses;
            done = portAccess(pd.addr, false, bank,
                              net::OcnClass::ReadReq) +
                   cfg.l1dHitLatency;
        }
        Event ev;
        ev.kind = Event::LoadReply;
        ev.fidx = pd.fidx;
        ev.epoch = pd.epoch;
        ev.inst = pd.inst;
        ev.value = value;
        pushEvent(done, ev);
    }
}

u64
CycleSim::loadValue(unsigned fidx, u8 lsid, Addr addr, u8 width)
{
    // Committed memory overlaid with older in-flight stores, oldest
    // frame first, LSID order within a frame (byte-accurate merge).
    // Each frame's LSQ is kept LSID-sorted, so the merge walks it in
    // place -- no temporary vector, no sort.
    u64 v = mem.read(addr, width);
    auto overlay = [&](const LsqEntry &s) {
        for (unsigned b = 0; b < width; ++b) {
            Addr byte = addr + b;
            if (byte >= s.addr && byte < s.addr + s.width) {
                u64 sb = (s.value >> (8 * (byte - s.addr))) & 0xff;
                v &= ~(0xffULL << (8 * b));
                v |= sb << (8 * b);
            }
        }
    };
    for (size_t qi = 0; qi < frameQueue.size(); ++qi) {
        unsigned idx = frameQueue[qi];
        const Frame &g = frames[idx];
        bool same = idx == fidx;
        for (const auto &e : g.lsq) {
            if (same && e.lsid >= lsid)
                break;
            if (!e.isStore || !e.executed || e.isNull)
                continue;
            overlay(e);
        }
        if (same)
            break;
    }
    return v;
}

void
CycleSim::checkViolations(unsigned fidx, u16, Addr addr, u8 width,
                          u8 lsid)
{
    // A store arriving after a younger load to an overlapping address
    // already executed means the load got stale data: flush the load's
    // frame (and younger) and train the load-wait table. Among several
    // overlapping loads in the first offending frame the one that
    // executed earliest is trained (the LSQ is LSID-sorted, so
    // execution order is tracked explicitly per entry).
    bool past_store_frame = false;
    for (size_t qi = 0; qi < frameQueue.size(); ++qi) {
        unsigned idx = frameQueue[qi];
        Frame &g = frames[idx];
        bool same = idx == fidx;
        if (!past_store_frame && !same)
            continue;
        const LsqEntry *victim = nullptr;
        for (const auto &e : g.lsq) {
            if (e.isStore || !e.executed)
                continue;
            if (same && e.lsid <= lsid)
                continue;
            bool overlap = e.addr < addr + width &&
                           addr < e.addr + e.width;
            if (!overlap)
                continue;
            if (!victim || e.order < victim->order)
                victim = &e;
        }
        if (victim) {
            ++res.loadViolationFlushes;
            u64 key = prog.blockAddr(g.blockIdx) + victim->inst;
            depPred.trainViolation(key);
            flushFrameAndYounger(idx, g.blockIdx);
            return;
        }
        if (same)
            past_store_frame = true;
    }
}

// ---------------------------------------------------------------------
// Register tiles
// ---------------------------------------------------------------------

bool
CycleSim::rtStillWaiting(const RtRead &rr) const
{
    // The walk in tickRts stopped at frame g. Every frame it passed on
    // the way (younger than g, older than the reader) lacks the
    // register or holds a null write for it, and neither changes while
    // those frames live: a write slot is filled once, and a passed
    // frame can only be freed by a flush that also squashes the reader
    // or by a commit that must wait for g. Frames join the queue only
    // at the young end. So the walk would stop at g again, with the
    // same answer, while g is the same incarnation (same epoch) and
    // its write slot is still empty.
    const Frame &g = frames[rr.waitFidx];
    return g.epoch == rr.waitEpoch &&
           g.writeVals[rr.waitSlot].st == TOK_EMPTY;
}

void
CycleSim::tickRts()
{
    for (u8 bm = rtBusy; bm; bm &= static_cast<u8>(bm - 1)) {
        unsigned bank = static_cast<unsigned>(__builtin_ctz(bm));
        auto &q = rtQueues[bank];
        RtRead rr = q.front();
        q.pop_front();
        if (q.empty())
            rtBusy &= static_cast<u8>(~(1u << bank));
        Frame &f = frames[rr.fidx];
        if (f.st == Frame::St::Free || f.epoch != rr.epoch)
            continue;
        if (rr.waitSlot != RtRead::WAIT_NONE && rtStillWaiting(rr)) {
            q.push_back(rr);  // retry next cycle
            rtBusy |= static_cast<u8>(1u << bank);
            continue;
        }
        const auto &read = f.bm->reads[rr.readIdx];
        const u64 reg_bit = u64{1} << (read.reg & 63);
        const unsigned reg_word = read.reg >> 6;

        // Resolve against older in-flight frames, youngest first
        // (walking the frame queue backwards from this frame's
        // position -- no temporary list).
        size_t pos = 0;
        const size_t qn = frameQueue.size();
        while (pos < qn && frameQueue[pos] != rr.fidx)
            ++pos;
        bool wait = false;
        bool have = false;
        u64 value = 0;
        for (size_t oi = pos; oi-- > 0;) {
            const unsigned gi = frameQueue[oi];
            Frame &g = frames[gi];
            if (g.st == Frame::St::Fetching ||
                g.st == Frame::St::Dispatching) {
                wait = true;  // writes unknown until header dispatched
                break;
            }
            if (!(g.writeMask[reg_word] & reg_bit))
                continue;     // g does not write this register
            for (size_t w = 0; w < g.blk->writes.size(); ++w) {
                if (g.blk->writes[w].reg != read.reg)
                    continue;
                const auto &tok = g.writeVals[w];
                if (tok.st == TOK_EMPTY) {
                    wait = true;
                    rr.waitSlot = static_cast<u8>(w);
                    rr.waitFidx = static_cast<u8>(gi);
                    rr.waitEpoch = g.epoch;
                } else if (tok.st == TOK_VALUE) {
                    have = true;
                    value = tok.v;
                }
                // Null write: keep searching older frames.
                break;
            }
            if (wait || have)
                break;
        }
        if (wait) {
            q.push_back(rr);  // retry next cycle
            rtBusy |= static_cast<u8>(1u << bank);
            continue;
        }
        if (!have)
            value = regfile[read.reg];

        const unsigned src = isa::opnNode(isa::rtCoord(bank));
        const SrcClasses cls{net::OpnClass::RtEt, net::OpnClass::EtRt};
        for (unsigned k = 0; k < read.numTargets; ++k)
            routeOperand(rr.fidx, f.epoch, src, read.tgt[k], cls, value,
                         false);
    }
}

// ---------------------------------------------------------------------
// Branch resolution, flush, commit
// ---------------------------------------------------------------------

void
CycleSim::resolveBranch(unsigned fidx, u16 inst, u8 exit)
{
    Frame &f = frames[fidx];
    TRIPS_ASSERT(!f.branchResolved, "two branches fired in block ",
                 f.blk->label);
    f.branchResolved = true;
    f.branchInst = inst;
    f.exitTaken = exit;
    const Instruction &in = f.blk->insts[inst];
    f.isCall = in.op == Opcode::CALLO;
    f.isRet = in.op == Opcode::RET;
    if (!f.isRet) {
        f.actualNext = static_cast<u32>(in.targetBlock);
        f.nextKnown = true;
        onNextKnown(fidx);
    } else {
        f.retPending = true;
        ++retsPending;
        tryResolveRets();
    }
}

void
CycleSim::tryResolveRets()
{
    // The walk below only has side effects on frames with a pending
    // RET; skip it entirely (most cycles) when there are none.
    if (retsPending == 0)
        return;
    // Resolve pending RET targets once all older frames know theirs.
    // The walk speculates over the architectural call stack; the copy
    // lives in a member scratch buffer so the per-cycle call does not
    // allocate.
    retStack.assign(archStack.begin(), archStack.end());
    for (size_t qi = 0; qi < frameQueue.size(); ++qi) {
        unsigned idx = frameQueue[qi];
        Frame &f = frames[idx];
        if (!f.branchResolved && f.st != Frame::St::Free)
            return;  // an older unresolved frame blocks the walk
        if (f.st == Frame::St::Free)
            continue;
        if (f.isCall && f.nextKnown) {
            retStack.push_back(
                static_cast<u32>(f.blk->insts[f.branchInst].returnBlock));
        } else if (f.isRet) {
            if (f.retPending) {
                if (retStack.empty()) {
                    f.haltsCandidate = true;
                    f.actualNext = f.blockIdx;  // unused
                } else {
                    f.actualNext = retStack.back();
                }
                f.retPending = false;
                --retsPending;
                f.nextKnown = true;
                onNextKnown(idx);
                return;  // frameQueue may have changed (flush)
            }
            if (f.nextKnown && !f.haltsCandidate && !retStack.empty())
                retStack.pop_back();
        }
    }
}

void
CycleSim::onNextKnown(unsigned fidx)
{
    Frame &f = frames[fidx];
    // Find the successor frame (next in queue after fidx).
    bool found = false;
    i32 succ = -1;
    for (size_t qi = 0; qi < frameQueue.size(); ++qi) {
        unsigned idx = frameQueue[qi];
        if (found) {
            succ = static_cast<i32>(idx);
            break;
        }
        if (idx == fidx)
            found = true;
    }
    u32 desired = f.haltsCandidate ? 0xffffffff : f.actualNext;
    if (succ >= 0) {
        if (frames[succ].blockIdx != desired) {
            flushYoungerThan(fidx);
            fetchReadyAt = std::max(fetchReadyAt,
                                    now + cfg.redirectPenalty);
            nextFetchBlock = f.actualNext;
            fetchStalled = f.haltsCandidate;
        }
    } else {
        // Nothing fetched beyond this frame yet: redirect the chain.
        if (f.predictedNext != f.actualNext || f.haltsCandidate) {
            nextFetchBlock = f.actualNext;
            fetchReadyAt = std::max(fetchReadyAt,
                                    now + cfg.redirectPenalty);
            fetchStalled = f.haltsCandidate;
        }
    }
}

void
CycleSim::flushYoungerThan(unsigned fidx)
{
    // Squash every frame younger than fidx (in place on the ring).
    const size_t n = frameQueue.size();
    size_t pos = 0;
    while (pos < n && frameQueue[pos] != fidx)
        ++pos;
    if (pos == n)
        return;
    for (size_t i = pos + 1; i < n; ++i)
        squashFrame(frameQueue[i]);
    frameQueue.truncate(pos + 1);
}

void
CycleSim::flushFrameAndYounger(unsigned fidx, u32 restart_block)
{
    const size_t n = frameQueue.size();
    size_t pos = 0;
    while (pos < n && frameQueue[pos] != fidx)
        ++pos;
    for (size_t i = pos; i < n; ++i)
        squashFrame(frameQueue[i]);
    frameQueue.truncate(pos);
    ++res.blocksFlushed;
    nextFetchBlock = restart_block;
    fetchReadyAt = std::max(fetchReadyAt, now + cfg.redirectPenalty);
    fetchStalled = false;
}

void
CycleSim::squashFrame(unsigned idx)
{
    Frame &f = frames[idx];
    if (obs_ && obs_->trace) {
        obs_->trace->instant(obs_->pid, idx, now, "flush", "block",
                             "block_idx", f.blockIdx);
    }
    liveInsts -= f.dispatchedCount;
    if (f.retPending) {
        f.retPending = false;
        --retsPending;
    }
    f.st = Frame::St::Free;
    ++f.epoch;
    f.lsq.clear();
    if (fetchingFrame == static_cast<i32>(idx))
        fetchingFrame = -1;
    ++res.blocksFlushed;
}

void
CycleSim::tickCommit()
{
    if (frameQueue.empty())
        return;
    unsigned fidx = frameQueue.front();
    Frame &f = frames[fidx];
    if (f.st != Frame::St::Executing)
        return;
    if (!committing) {
        if (!f.complete())
            return;
        unsigned drain =
            (f.storesNeeded + isa::NUM_DTS - 1) / isa::NUM_DTS;
        commitDoneAt = now + cfg.commitLatency + drain;
        committing = true;
        return;
    }
    if (now < commitDoneAt)
        return;
    committing = false;

    // Architectural commit.
    for (size_t w = 0; w < f.blk->writes.size(); ++w) {
        if (f.writeVals[w].st == TOK_VALUE)
            regfile[f.blk->writes[w].reg] = f.writeVals[w].v;
    }
    // The LSQ is LSID-sorted by construction; stores drain in order.
    for (const auto &e : f.lsq) {
        if (!e.isStore || e.isNull)
            continue;
        mem.write(e.addr, e.value, e.width);
        unsigned bank = isa::dtForAddr(e.addr);
        auto r = l1d[bank].access(e.addr, true);
        if (r.writeback) {
            ++res.l1dWritebacks;
            uncore->noteL1Writeback(coreId, r.victimLine,
                                    cfg.l1dBank.lineBytes);
        }
        if (!r.hit)
            ++res.l1dMisses;
        else
            ++res.l1dHits;
        ++res.storesCommitted;
        res.bytesL1 += e.width;
    }

    const Instruction &br = f.blk->insts[f.branchInst];
    if (f.isCall)
        archStack.push_back(static_cast<u32>(br.returnBlock));
    else if (f.isRet && !archStack.empty())
        archStack.pop_back();

    ++res.blocksCommitted;
    res.instsFetched += f.blk->insts.size();
    res.instsFired += f.firedCount;

    if (!f.haltsCandidate) {
        pred::BranchKind kind = f.isCall ? pred::BranchKind::Call
                              : f.isRet ? pred::BranchKind::Ret
                              : pred::BranchKind::Branch;
        u32 push_val = f.isCall
            ? static_cast<u32>(br.returnBlock) : 0;
        predictor.update(f.blockIdx, f.exitTaken, f.actualNext, kind,
                         push_val);
        if (f.predictedNext != f.actualNext) {
            ++res.branchMispredicts;
            if (f.isCall || f.isRet)
                ++res.callRetMispredicts;
        }
    }

    if (f.haltsCandidate) {
        halted = true;
        res.retVal = static_cast<i64>(regfile[3]);
    }
    if (obs_)
        obsBlockCommit(f);
    liveInsts -= f.dispatchedCount;
    f.st = Frame::St::Free;
    ++f.epoch;
    f.lsq.clear();
    frameQueue.pop_front();
}

// ---------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------

void
CycleSim::stepCycle()
{
    opn.tick(now, [this](const net::OpnPacket &, unsigned slot) {
        deliverPacket(slot);
    });
    drainEvents();
    tickDts();
    tickRts();
    tickEts();
    tickDispatch();
    tickFetch();
    tickCommit();
    tryResolveRets();
    pumpOutbox();

    // Window occupancy sampling (counters kept incrementally).
    sumBlocksInFlight += static_cast<double>(frameQueue.size());
    sumInstsInFlight += static_cast<double>(liveInsts);
    res.peakInstsInFlight =
        std::max(res.peakInstsInFlight, liveInsts);

    if (obs_)
        obsCycleTick();

    ++now;
}

void
CycleSim::warmStart(const sim::Checkpoint &ck)
{
    TRIPS_ASSERT(now == 0 && frameQueue.empty(),
                 "warmStart must precede the first simulated cycle");
    regfile = ck.regfile;
    archStack.assign(ck.callStack.begin(), ck.callStack.end());
    nextFetchBlock = ck.nextBlock;
}

UarchResult
CycleSim::finish()
{
    // A run stopped at a sampling block bound is complete, not out of
    // fuel; only a maxCycles stop without a halt reports exhaustion.
    if (!halted && !(stopAtBlocks && res.blocksCommitted >= stopAtBlocks))
        res.fuelExhausted = true;
    res.cycles = now;
    // Drain: dirty L1D lines still resident at halt are writeback
    // traffic the hardware would eventually push out; account them so
    // l1dWritebacks covers the program's full write footprint.
    for (unsigned b = 0; b < l1d.size(); ++b) {
        for (Addr line : l1d[b].drainDirty()) {
            ++res.l1dWritebacks;
            uncore->noteL1Writeback(coreId, line, cfg.l1dBank.lineBytes);
        }
    }
    res.avgBlocksInFlight = now ? sumBlocksInFlight / now : 0;
    res.avgInstsInFlight = now ? sumInstsInFlight / now : 0;
    res.predictor = predictor.stats();
    // res.opnHops already holds the local-bypass samples (0 hops);
    // fold in the traffic that actually crossed the network so the
    // per-class profile covers every delivered operand.
    for (size_t c = 0; c < res.opnHops.size(); ++c)
        res.opnHops[c].merge(opn.hopDist(static_cast<net::OpnClass>(c)));
    res.opnPackets = opn.packetsSent();
    if (obs_ && obs_->metrics)
        obsSample();
    return res;
}

// ---------------------------------------------------------------------
// Observability (obs/obs.hh). Every hook only *reads* simulator state,
// so an attached run is bit-identical to a detached one; the obs*
// members written here are never consulted by the simulation proper.
// ---------------------------------------------------------------------

void
CycleSim::attachObs(const obs::CoreObs *o)
{
    TRIPS_ASSERT(now == 0, "attachObs must precede the first cycle");
    obs_ = o;
    if (!obs_)
        return;
    if (obs_->metrics) {
        auto &m = *obs_->metrics;
        std::string p = obs_->metricPrefix.empty()
            ? "core" + std::to_string(coreId) + "."
            : obs_->metricPrefix;
        obsMid_[0] = m.addCounter(p + "uarch.blocks_committed");
        obsMid_[1] = m.addCounter(p + "uarch.insts_fired");
        obsMid_[2] = m.addCounter(p + "uarch.blocks_flushed");
        obsMid_[3] = m.addGauge(p + "uarch.blocks_in_flight");
        obsMid_[4] = m.addGauge(p + "uarch.insts_in_flight");
        obsMid_[5] = m.addCounter(p + "mem.l1d_misses");
        obsMid_[6] = m.addCounter(p + "mem.l2_misses");
        obsMid_[7] = m.addCounter(p + "mem.bank_conflict_cycles");
    }
    if (obs_->trace) {
        auto *t = obs_->trace;
        for (unsigned i = 0; i < frames.size(); ++i)
            t->setThreadName(obs_->pid, i, "frame " + std::to_string(i));
        t->setThreadName(obs_->pid, OBS_TID_MEM, "mem");
        // Seed the conflict counter track so it exists (and reads 0)
        // even on runs that never contend.
        t->counter(obs_->pid, 0, "bank_conflict_cycles", "cycles", 0);
    }
}

void
CycleSim::obsNoteMem(const mem::MemResponse &resp, net::OcnClass cls)
{
    if (resp.queuedCycles) {
        obsConflictUntil =
            std::max(obsConflictUntil, now + resp.queuedCycles);
        obsConflictCycles += resp.queuedCycles;
    }
    obsMemBusyUntil = std::max(obsMemBusyUntil, resp.done);
    if (obs_->trace) {
        obs_->trace->instant(obs_->pid, OBS_TID_MEM, now,
                             net::ocnClassName(cls), "mem", "bank",
                             resp.bank, "hops", resp.hops);
        if (resp.queuedCycles) {
            obs_->trace->counter(
                obs_->pid, now, "bank_conflict_cycles", "cycles",
                static_cast<double>(obsConflictCycles));
        }
    }
}

void
CycleSim::obsBlockCommit(const Frame &f)
{
    obsLastCommitBlock = f.blockIdx;
    if (obs_->trace) {
        unsigned slot = static_cast<unsigned>(&f - frames.data());
        obs_->trace->complete(
            obs_->pid, slot, f.fetchedAt, now - f.fetchedAt + 1,
            f.blk->label, "block", "block_idx", f.blockIdx, "insts",
            static_cast<double>(f.blk->insts.size()));
    }
}

void
CycleSim::obsCycleTick()
{
    if (obs_->stalls) {
        using obs::StallCat;
        StallCat cat;
        u32 blk = obs::StallCollector::NO_BLOCK;
        if (res.blocksCommitted != obsLastCommitted) {
            // A block committed this cycle: useful work, charged to
            // the block that committed.
            obsLastCommitted = res.blocksCommitted;
            cat = StallCat::Commit;
            blk = obsLastCommitBlock;
        } else if (frameQueue.empty()) {
            cat = StallCat::Fetch;
        } else {
            const Frame &f = frames[frameQueue.front()];
            blk = f.blockIdx;
            if (committing)
                cat = StallCat::Drain;
            else if (f.st != Frame::St::Executing)
                cat = StallCat::Fetch;
            else if (now < obsConflictUntil)
                cat = StallCat::BankConflict;
            else if (now < obsMemBusyUntil)
                cat = StallCat::Ocn;
            else if (f.storesDone < f.storesNeeded || dtBusy)
                cat = StallCat::Lsq;
            else if (f.writesDone < f.writesNeeded)
                cat = StallCat::Operand;
            else
                cat = StallCat::Control;
        }
        obs_->stalls->tick(cat, blk);
    }
    if (obs_->metrics && obs_->samplePeriod &&
        now % obs_->samplePeriod == 0) {
        obsSample();
    }
}

void
CycleSim::obsSample()
{
    auto &m = *obs_->metrics;
    m.set(obsMid_[0], static_cast<double>(res.blocksCommitted));
    m.set(obsMid_[1], static_cast<double>(res.instsFired));
    m.set(obsMid_[2], static_cast<double>(res.blocksFlushed));
    m.set(obsMid_[3], static_cast<double>(frameQueue.size()));
    m.set(obsMid_[4], static_cast<double>(liveInsts));
    m.set(obsMid_[5], static_cast<double>(res.l1dMisses));
    m.set(obsMid_[6], static_cast<double>(res.l2Misses));
    m.set(obsMid_[7], static_cast<double>(obsConflictCycles));
    m.snapshot(now);
}

UarchResult
CycleSim::run()
{
    while (!done())
        stepCycle();
    return finish();
}

} // namespace trips::uarch
