/**
 * @file
 * The TRIPS backend pass manager: drives the WIR-to-TIL front end
 * (codegen.cc), the block-splitting / fanout / register-allocation /
 * emission passes over TIL, and the region re-formation of oversized
 * regions. See pipeline.hh for the pass order and the overflow policy.
 */

#include "compiler/pipeline.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <queue>

#include "compiler/placement.hh"
#include "compiler/spill.hh"
#include "support/error.hh"

namespace trips::compiler {

using isa::Opcode;
using isa::PredMode;
using til::HBlock;
using til::HRead;
using til::HWrite;
using til::ProdSet;
using til::TNode;
using wir::Module;
using wir::Vreg;

const char *
passName(PassId id)
{
    switch (id) {
      case PassId::RegionForm: return "region-form";
      case PassId::IfConvert: return "if-convert";
      case PassId::Split: return "split";
      case PassId::Fanout: return "fanout";
      case PassId::Spill: return "spill";
      case PassId::RegAlloc: return "regalloc";
      case PassId::Emit: return "emit";
    }
    TRIPS_PANIC("bad pass id");
}

// ---------------------------------------------------------------------
// Pass 4 — fanout
// ---------------------------------------------------------------------

namespace {

struct ConsumerRef
{
    enum class Kind : u8 { Op0, Op1, Pred, Write };
    Kind kind;
    u32 index;
};

/**
 * Producer slots: read r is slot r, node i is slot reads + i. Fanout
 * visits producers in ascending TIL id (reads as -1-r, so reads in
 * descending index, then nodes ascending), which fixes the MOV ids.
 */
struct ProducerSlots
{
    u32 reads;
    u32 nodes;

    u32
    operator()(i32 p) const
    {
        TRIPS_ASSERT(p >= -static_cast<i32>(reads) &&
                         p < static_cast<i32>(nodes),
                     "TIL producer ", p, " out of range");
        return p < 0 ? static_cast<u32>(-1 - p)
                     : reads + static_cast<u32>(p);
    }

    i32
    producer(u32 slot) const
    {
        return slot < reads ? -1 - static_cast<i32>(slot)
                            : static_cast<i32>(slot - reads);
    }
};

/** Target capacity of producer slot `slot`: register reads have two. */
unsigned
slotCapacity(const HBlock &hb, const ProducerSlots &slots, u32 slot)
{
    return slot < slots.reads
               ? 2u
               : isa::opInfo(hb.nodes[slot - slots.reads].op).numTargets;
}

/** Call f(producer slot, kind, consumer index) for every operand edge,
 *  in the order fanout re-attaches them. */
template <typename F>
void
forEachEdge(const HBlock &hb, const ProducerSlots &slots, F &&f)
{
    for (u32 i = 0; i < hb.nodes.size(); ++i) {
        const TNode &n = hb.nodes[i];
        for (i32 p : n.in0)
            f(slots(p), ConsumerRef::Kind::Op0, i);
        for (i32 p : n.in1)
            f(slots(p), ConsumerRef::Kind::Op1, i);
        if (n.predNode >= 0)
            f(slots(n.predNode), ConsumerRef::Kind::Pred, i);
    }
    for (u32 w = 0; w < hb.writes.size(); ++w) {
        for (i32 p : hb.writes[w].prods)
            f(slots(p), ConsumerRef::Kind::Write, w);
    }
}

/**
 * The fanout tree shape: `count` consumers beyond a producer's
 * capacity are dealt round-robin into `cap` groups, and group g gets
 * this many of them. Singleton groups attach directly; every larger
 * group hangs off a fresh MOV (capacity 2) that recurses.
 */
u32
fanoutGroupSize(u32 count, unsigned g, unsigned cap)
{
    return (count - g + cap - 1) / cap;
}

/** MOVs the fanout tree adds for a producer with `k` consumers and
 *  target capacity `cap` (the tree FanoutBuilder::place builds). */
u32
fanoutMovs(u32 k, unsigned cap)
{
    TRIPS_ASSERT(cap >= 1, "producer without targets has consumers");
    if (k <= cap)
        return 0;
    u32 movs = 0;
    for (unsigned g = 0; g < cap; ++g) {
        const u32 size = fanoutGroupSize(k, g, cap);
        if (size >= 2)
            movs += 1 + fanoutMovs(size, 2);
    }
    return movs;
}

/** Consumer edges per producer slot. */
std::vector<u32>
consumerCounts(const HBlock &hb, const ProducerSlots &slots)
{
    std::vector<u32> uses(slots.reads + slots.nodes, 0);
    forEachEdge(hb, slots, [&](u32 s, ConsumerRef::Kind, u32) { ++uses[s]; });
    return uses;
}

/** MOVs fanout adds to the whole block, given consumerCounts(). */
u32
blockFanoutMovs(const HBlock &hb, const ProducerSlots &slots,
                const std::vector<u32> &uses)
{
    u32 movs = 0;
    for (u32 s = 0; s < uses.size(); ++s) {
        if (uses[s] > 0)
            movs += fanoutMovs(uses[s], slotCapacity(hb, slots, s));
    }
    return movs;
}

/** Builds the MOV trees over a CSR consumer array. */
struct FanoutBuilder
{
    HBlock &hb;
    const std::vector<ConsumerRef> &edges;

    void
    attach(i32 prod, const ConsumerRef &c)
    {
        switch (c.kind) {
          case ConsumerRef::Kind::Op0:
            hb.nodes[c.index].in0.push_back(prod);
            break;
          case ConsumerRef::Kind::Op1:
            hb.nodes[c.index].in1.push_back(prod);
            break;
          case ConsumerRef::Kind::Pred:
            hb.nodes[c.index].predNode = prod;
            break;
          case ConsumerRef::Kind::Write:
            hb.writes[c.index].prods.push_back(prod);
            break;
        }
    }

    /**
     * Attach the `count` consumers edges[first + j * stride] to `prod`.
     * Beyond its capacity they split round-robin into `cap` groups —
     * group g is the fanoutGroupSize() slice starting at element g
     * with stride `stride * cap` — and each group of two or more goes
     * through a fresh MOV, depth first, so MOV ids come out in tree
     * preorder.
     */
    void
    place(i32 prod, u32 first, u32 stride, u32 count, unsigned cap)
    {
        TRIPS_ASSERT(cap >= 1, "producer without targets has consumers");
        if (count <= cap) {
            for (u32 j = 0; j < count; ++j)
                attach(prod, edges[first + j * stride]);
            return;
        }
        for (unsigned g = 0; g < cap; ++g) {
            const u32 size = fanoutGroupSize(count, g, cap);
            const u32 head = first + g * stride;
            if (size == 1) {
                attach(prod, edges[head]);
                continue;
            }
            const u32 mv = static_cast<u32>(hb.nodes.size());
            hb.nodes.push_back(TNode{});
            hb.nodes.back().op = Opcode::MOV;
            hb.nodes.back().predNode = -1;
            attach(prod, {ConsumerRef::Kind::Op0, mv});
            place(static_cast<i32>(mv), head, stride * cap, size, 2);
        }
    }
};

} // namespace

void
fanoutPass(HBlock &hb)
{
    const ProducerSlots slots{static_cast<u32>(hb.reads.size()),
                              static_cast<u32>(hb.nodes.size())};
    const u32 nslots = slots.reads + slots.nodes;

    // Consumer edges in CSR form, grouped by producer slot; within a
    // producer they keep the order forEachEdge visits them in.
    const std::vector<u32> uses = consumerCounts(hb, slots);
    std::vector<u32> start(nslots + 1, 0);
    for (u32 s = 0; s < nslots; ++s)
        start[s + 1] = start[s] + uses[s];
    std::vector<ConsumerRef> edges(start[nslots]);
    std::vector<u32> cursor(start.begin(), start.end() - 1);
    forEachEdge(hb, slots, [&](u32 s, ConsumerRef::Kind k, u32 idx) {
        edges[cursor[s]++] = {k, idx};
    });

    // Detach every edge; the builder re-attaches each exactly once.
    for (TNode &n : hb.nodes) {
        n.in0.clear();
        n.in1.clear();
        if (n.predNode >= 0)
            n.predNode = -1;
    }
    for (HWrite &w : hb.writes)
        w.prods.clear();

    FanoutBuilder fb{hb, edges};
    auto visit = [&](u32 s) {
        if (uses[s] > 0)
            fb.place(slots.producer(s), start[s], 1, uses[s],
                     slotCapacity(hb, slots, s));
    };
    for (u32 r = slots.reads; r-- > 0;)
        visit(r);
    for (u32 s = slots.reads; s < nslots; ++s)
        visit(s);
}

// ---------------------------------------------------------------------
// Block-limit check
// ---------------------------------------------------------------------

std::string
checkBlockLimits(const HBlock &hb)
{
    // The post-fanout size is the node count plus each producer's MOV
    // tree, which depends only on its consumer count and capacity.
    const ProducerSlots slots{static_cast<u32>(hb.reads.size()),
                              static_cast<u32>(hb.nodes.size())};
    const size_t insts =
        hb.nodes.size() +
        blockFanoutMovs(hb, slots, consumerCounts(hb, slots));
    if (insts > isa::MAX_INSTS)
        return "instructions: " + std::to_string(insts);
    if (hb.reads.size() > isa::MAX_READS)
        return "reads: " + std::to_string(hb.reads.size());
    if (hb.writes.size() > isa::MAX_WRITES)
        return "writes: " + std::to_string(hb.writes.size());
    unsigned mems = 0, exits = 0;
    for (const TNode &n : hb.nodes) {
        if (isa::isMemory(n.op))
            ++mems;
        if (isa::isBranch(n.op))
            ++exits;
    }
    if (mems > isa::MAX_LSIDS)
        return "LSIDs: " + std::to_string(mems);
    if (exits > isa::MAX_EXITS)
        return "exits: " + std::to_string(exits);
    return "";
}

// ---------------------------------------------------------------------
// Pass 3 — block splitting
// ---------------------------------------------------------------------

namespace {

/** One valid cut of `rest` at node index K, fully materialized. */
struct Cut
{
    HBlock a, b;
    u64 spills = 0;   ///< register write/read pairs crossing the cut
};

/**
 * Stable topological renumbering. The front end's id order is
 * topological except for on-demand constant materialization (GENS/APP
 * chains created after their first consumer), and the cut works on id
 * ranges. Kahn's algorithm with a min-original-id heap keeps the
 * order deterministic and as close to creation order as possible.
 * Returns false on a dataflow cycle.
 */
bool
topoNormalize(HBlock &hb)
{
    const size_t n = hb.nodes.size();
    bool sorted = true;
    for (size_t i = 0; i < n && sorted; ++i) {
        const TNode &nd = hb.nodes[i];
        auto before = [&](i32 p) {
            return p < 0 || p < static_cast<i32>(i);
        };
        sorted &= nd.predNode < 0 || before(nd.predNode);
        for (i32 p : nd.in0)
            sorted &= before(p);
        for (i32 p : nd.in1)
            sorted &= before(p);
    }
    if (sorted)
        return true;

    std::vector<std::vector<u32>> succ(n);
    std::vector<u32> indeg(n, 0);
    auto edge = [&](i32 p, u32 c) {
        if (p >= 0) {
            succ[p].push_back(c);
            ++indeg[c];
        }
    };
    for (u32 i = 0; i < n; ++i) {
        const TNode &nd = hb.nodes[i];
        for (i32 p : nd.in0)
            edge(p, i);
        for (i32 p : nd.in1)
            edge(p, i);
        edge(nd.predNode, i);
    }
    std::priority_queue<u32, std::vector<u32>, std::greater<u32>> q;
    for (u32 i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            q.push(i);
    }
    std::vector<i32> newId(n, -1);
    u32 next = 0;
    while (!q.empty()) {
        u32 i = q.top();
        q.pop();
        newId[i] = static_cast<i32>(next++);
        for (u32 c : succ[i]) {
            if (--indeg[c] == 0)
                q.push(c);
        }
    }
    if (next != n)
        return false;

    std::vector<TNode> nodes(n);
    for (u32 i = 0; i < n; ++i) {
        TNode nd = std::move(hb.nodes[i]);
        auto remap = [&](i32 p) { return p >= 0 ? newId[p] : p; };
        for (i32 &p : nd.in0)
            p = remap(p);
        for (i32 &p : nd.in1)
            p = remap(p);
        if (nd.predNode >= 0)
            nd.predNode = newId[nd.predNode];
        nodes[static_cast<u32>(newId[i])] = std::move(nd);
    }
    hb.nodes = std::move(nodes);
    for (HWrite &w : hb.writes) {
        for (i32 &p : w.prods) {
            if (p >= 0)
                p = newId[p];
        }
    }
    return true;
}

/**
 * Try to cut `rest` before node K into (A, B). Returns false when the
 * cut is invalid: an operand producer set straddles the cut, a
 * crossing set is not total (its spill write could starve), a branch
 * would land in A, or memory order would be violated (all of A's
 * LSIDs must precede B's — chunks commit in chain order).
 */
bool
cutAt(const HBlock &rest, u32 K, const std::string &bLabel,
      const std::function<Vreg()> &freshVreg,
      const std::vector<bool> &always, Cut &out)
{
    const size_t n = rest.nodes.size();
    if (K == 0 || K >= n)
        return false;
    u16 maxLsidA = 0, minLsidB = 0xffff;
    for (u32 i = 0; i < n; ++i) {
        const TNode &nd = rest.nodes[i];
        if (i < K && isa::isBranch(nd.op))
            return false;  // original exits must stay in the tail
        if (isa::isMemory(nd.op)) {
            if (i < K)
                maxLsidA = std::max(maxLsidA, nd.lsid);
            else
                minLsidB = std::min(minLsidB, nd.lsid);
        }
    }
    if (maxLsidA > minLsidB && minLsidB != 0xffff)
        return false;

    auto inA = [&](i32 p) { return p >= 0 && p < static_cast<i32>(K); };

    // Classify every producer set consumed on the B side.
    auto crossing = [&](const ProdSet &set, bool &straddle) {
        bool any_a = false, any_b = false;
        for (i32 p : set) {
            if (inA(p))
                any_a = true;
            else if (p >= 0)
                any_b = true;
        }
        straddle = any_a && any_b;
        return any_a;
    };

    // Distinct crossing predicate roots, in ascending id order.
    std::vector<i32> predSpills;
    for (size_t j = K; j < n; ++j) {
        i32 p = rest.nodes[j].predNode;
        if (p >= 0 && inA(p)) {
            if (!always[p])
                return false;  // test may not deliver: cannot spill
            if (std::find(predSpills.begin(), predSpills.end(), p) ==
                predSpills.end())
                predSpills.push_back(p);
        }
    }
    std::sort(predSpills.begin(), predSpills.end());

    // Validate all crossing sets up front.
    auto validate = [&](const ProdSet &set) {
        bool straddle = false;
        if (!crossing(set, straddle))
            return !straddle;
        if (straddle)
            return false;
        return til::totalSet(rest, always, set);
    };
    for (size_t j = K; j < n; ++j) {
        if (!validate(rest.nodes[j].in0) || !validate(rest.nodes[j].in1))
            return false;
    }
    for (const HWrite &w : rest.writes) {
        if (!validate(w.prods))
            return false;
    }

    // Which architectural writes can commit in A? A write whose
    // producer set lies wholly on the A side and is total delivers one
    // path-independent value, so committing it a block early is
    // equivalent — unless some B-side consumer still reads the same
    // register (it would see the new value instead of the incoming
    // one). Migrating writes is what keeps the tail chunk's read and
    // write counts inside the format limits.
    std::vector<u8> readUsedByB(rest.reads.size(), 0);
    {
        auto scan = [&](const ProdSet &set) {
            bool straddle = false;
            if (crossing(set, straddle))
                return;  // spilled: B sees a fresh vreg, not the read
            for (i32 p : set) {
                if (p < 0)
                    readUsedByB[-1 - p] = 1;
            }
        };
        for (size_t j = K; j < n; ++j) {
            scan(rest.nodes[j].in0);
            scan(rest.nodes[j].in1);
        }
    }
    std::vector<u8> moveWrite(rest.writes.size(), 0);
    for (size_t w = 0; w < rest.writes.size(); ++w) {
        const HWrite &hw = rest.writes[w];
        bool all_a = true;
        for (i32 p : hw.prods)
            all_a &= p < 0 || inA(p);
        if (!all_a || !til::totalSet(rest, always, hw.prods))
            continue;
        // Conflict: a B-side node, or another write staying in B,
        // still reads this write's register.
        auto conflicts = [&](u32 ridx) {
            const HRead &r = rest.reads[ridx];
            if (hw.v != wir::NO_VREG && r.v == hw.v)
                return true;
            return hw.fixedReg >= 0 && r.fixedReg == hw.fixedReg;
        };
        bool clash = false;
        for (u32 ridx = 0; ridx < rest.reads.size() && !clash; ++ridx)
            clash = readUsedByB[ridx] && conflicts(ridx);
        for (size_t w2 = 0; w2 < rest.writes.size() && !clash; ++w2) {
            if (w2 == w)
                continue;
            bool straddle = false;
            if (crossing(rest.writes[w2].prods, straddle))
                continue;
            for (i32 p : rest.writes[w2].prods) {
                if (p < 0 && conflicts(static_cast<u32>(-1 - p)))
                    clash = true;
            }
        }
        if (!clash)
            moveWrite[w] = 1;
    }

    // ---- materialize ----
    HBlock &A = out.a;
    HBlock &B = out.b;
    A = HBlock{};
    B = HBlock{};
    A.label = rest.label;
    B.label = bLabel;
    A.wirMembers = rest.wirMembers;
    B.wirMembers = rest.wirMembers;
    A.nodes.assign(rest.nodes.begin(), rest.nodes.begin() + K);

    // Reads referenced by the A side keep their slots (compacted in
    // original order); the B side re-registers the reads it still
    // uses plus one fresh spill read per crossing set.
    std::vector<i32> readMapA(rest.reads.size(), -1);
    auto readA = [&](i32 old) {
        i32 idx = -1 - old;
        if (readMapA[idx] < 0) {
            readMapA[idx] = static_cast<i32>(A.reads.size());
            A.reads.push_back(rest.reads[idx]);
        }
        return -1 - readMapA[idx];
    };
    std::vector<i32> readMapB(rest.reads.size(), -1);
    auto readB = [&](i32 old) {
        i32 idx = -1 - old;
        if (readMapB[idx] < 0) {
            readMapB[idx] = static_cast<i32>(B.reads.size());
            B.reads.push_back(rest.reads[idx]);
        }
        return -1 - readMapB[idx];
    };

    // Remap an A-side producer list (A node ids are unchanged).
    auto remapA = [&](const ProdSet &set) {
        ProdSet out_set;
        for (i32 p : set)
            out_set.push_back(p >= 0 ? p : readA(p));
        return out_set;
    };

    // One spill per distinct crossing set: a register write of the set
    // in A, a read of the fresh vreg in B.
    std::map<ProdSet, i32> spillOf;  // set -> B read producer id
    auto spill = [&](const ProdSet &set) {
        auto it = spillOf.find(set);
        if (it != spillOf.end())
            return it->second;
        Vreg v = freshVreg();
        HWrite w;
        w.v = v;
        w.prods = remapA(set);
        A.writes.push_back(std::move(w));
        HRead r;
        r.v = v;
        i32 prod = -1 - static_cast<i32>(B.reads.size());
        B.reads.push_back(r);
        spillOf.emplace(set, prod);
        ++out.spills;
        return prod;
    };

    // Cut-crossing predicates: spill the test's value and re-derive
    // the predicate in B with a TNEI against zero (tests produce 0/1).
    const i32 P = static_cast<i32>(predSpills.size());
    std::map<i32, i32> predNodeInB;  // old test id -> B TNEI id
    for (i32 t : predSpills) {
        i32 rd = spill({t});
        TNode tn;
        tn.op = Opcode::TNEI;
        tn.imm = 0;
        tn.in0.push_back(rd);
        predNodeInB[t] = static_cast<i32>(B.nodes.size());
        B.nodes.push_back(std::move(tn));
    }

    auto mapBNode = [&](i32 old) {
        return old - static_cast<i32>(K) + P;
    };
    auto remapB = [&](const ProdSet &set) {
        bool straddle = false;
        ProdSet out_set;
        if (crossing(set, straddle)) {
            out_set.push_back(spill(set));
            return out_set;
        }
        for (i32 p : set)
            out_set.push_back(p >= 0 ? mapBNode(p) : readB(p));
        return out_set;
    };

    for (size_t j = K; j < n; ++j) {
        TNode nd = rest.nodes[j];
        nd.in0 = remapB(rest.nodes[j].in0);
        nd.in1 = remapB(rest.nodes[j].in1);
        if (nd.predNode >= 0) {
            nd.predNode = inA(nd.predNode)
                              ? predNodeInB.at(nd.predNode)
                              : mapBNode(nd.predNode);
        }
        B.nodes.push_back(std::move(nd));
    }
    for (size_t w = 0; w < rest.writes.size(); ++w) {
        HWrite nw = rest.writes[w];
        if (moveWrite[w]) {
            nw.prods = remapA(rest.writes[w].prods);
            A.writes.push_back(std::move(nw));
        } else {
            nw.prods = remapB(rest.writes[w].prods);
            B.writes.push_back(std::move(nw));
        }
    }

    // Remap read references inside A's node operand lists.
    for (TNode &nd : A.nodes) {
        for (auto *list : {&nd.in0, &nd.in1}) {
            for (i32 &p : *list) {
                if (p < 0)
                    p = readA(p);
            }
        }
    }

    // A exits unconditionally into B.
    {
        TNode br;
        br.op = Opcode::BRO;
        br.targetLabel = bLabel;
        A.nodes.push_back(std::move(br));
    }

    // Renumber LSIDs densely per side, preserving the original order
    // (monotonicity across the cut was checked above).
    for (HBlock *side : {&A, &B}) {
        std::vector<std::pair<u16, TNode *>> mems;
        for (TNode &nd : side->nodes) {
            if (isa::isMemory(nd.op))
                mems.emplace_back(nd.lsid, &nd);
        }
        std::sort(mems.begin(), mems.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        u16 seq = 0;
        for (auto &[lsid, nd] : mems)
            nd->lsid = seq++;
    }
    return true;
}

} // namespace

std::vector<HBlock>
splitPass(HBlock hb, const std::string &fname,
          const std::function<Vreg()> &freshVreg, CompileStats *stats)
{
    std::vector<HBlock> out;
    if (checkBlockLimits(hb).empty()) {
        out.push_back(std::move(hb));
        return out;
    }

    // The splitter cuts by node-id range, so bring the graph into a
    // stable topological id order first (on-demand constants are the
    // one place lowering emits a producer after its consumer).
    if (!topoNormalize(hb))
        throw CompileError(ErrCode::ResourceExhausted,
                           "cyclic TIL in " + hb.label, fname);

    const std::string base = hb.label;
    unsigned chunkNo = 0;
    HBlock rest = std::move(hb);
    std::string reason;
    while (!(reason = checkBlockLimits(rest)).empty()) {
        const size_t prevNodes = rest.nodes.size();
        u32 firstBranch = 0;
        while (firstBranch < rest.nodes.size() &&
               !isa::isBranch(rest.nodes[firstBranch].op))
            ++firstBranch;
        const auto always = til::alwaysDelivers(rest);

        // Prefer the largest prefix whose post-fanout form fits
        // (fewer, fuller blocks), but scan every smaller cut before
        // giving up: a prefix can be invalid (non-total crossing set,
        // fanout overflow) while a smaller one is legal.
        bool made = false;
        for (u32 K = std::min<u32>(firstBranch, 88); K >= 1 && !made;
             --K) {
            Cut cut;
            if (!cutAt(rest, K, base + ".s" + std::to_string(chunkNo + 1),
                       freshVreg, always, cut))
                continue;
            if (!checkBlockLimits(cut.a).empty())
                continue;  // prefix overflows post-fanout: cut earlier
            if (cut.b.nodes.size() >= prevNodes)
                continue;  // no progress (re-derived tests dominate)
            out.push_back(std::move(cut.a));
            rest = std::move(cut.b);
            ++chunkNo;
            if (stats) {
                ++stats->splitBlocks;
                stats->spillWrites += cut.spills;
                stats->spillReads += cut.spills;
            }
            made = true;
        }
        if (!made)
            throw CompileError(
                ErrCode::ResourceExhausted,
                detail::formatMsg("function ", fname, ": block ", rest.label,
                                  " exceeds limit '", reason,
                                  "' and cannot be split"),
                fname);
    }
    out.push_back(std::move(rest));
    return out;
}

// ---------------------------------------------------------------------
// Pass 5 — register allocation
// ---------------------------------------------------------------------

/**
 * Linear-scan register allocation over a function's TIL blocks. Ranges
 * come from WIR liveness projected onto blocks (liveSets), not just
 * read/write touch points: a value carried around a loop is live in
 * every region of the loop even where untouched, and its register must
 * not be reused there.
 */
void
allocateRegisters(std::vector<HBlock> &hbs, const std::string &fname,
                  const std::vector<std::vector<Vreg>> &liveSets)
{
    // Per-vreg state is dense, indexed by vreg: every vreg that needs a
    // register is a read or write of some block.
    Vreg nvregs = 0;
    for (const HBlock &hb : hbs) {
        for (const HRead &r : hb.reads) {
            if (r.fixedReg < 0 && r.v != wir::NO_VREG)
                nvregs = std::max(nvregs, r.v + 1);
        }
        for (const HWrite &w : hb.writes) {
            if (w.fixedReg < 0 && w.v != wir::NO_VREG)
                nvregs = std::max(nvregs, w.v + 1);
        }
    }
    struct Range
    {
        u32 lo = 0xffffffff, hi = 0;
        bool used() const { return lo != 0xffffffff; }
    };
    std::vector<Range> ranges(nvregs);
    auto touch = [&](Vreg v, u32 region) {
        if (v == wir::NO_VREG)
            return;
        auto &r = ranges[v];
        r.lo = std::min(r.lo, region);
        r.hi = std::max(r.hi, region);
    };
    for (u32 i = 0; i < hbs.size(); ++i) {
        for (auto &r : hbs[i].reads) {
            if (r.fixedReg < 0)
                touch(r.v, i);
        }
        for (auto &w : hbs[i].writes) {
            if (w.fixedReg < 0)
                touch(w.v, i);
        }
    }
    // Extend over liveness: only for vregs that need a register at all.
    for (u32 i = 0; i < liveSets.size() && i < hbs.size(); ++i) {
        for (Vreg v : liveSets[i]) {
            if (v < nvregs && ranges[v].used())
                touch(v, i);
        }
    }
    std::vector<std::pair<Vreg, Range>> order;
    for (Vreg v = 0; v < nvregs; ++v) {
        if (ranges[v].used())
            order.emplace_back(v, ranges[v]);
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.second.lo < b.second.lo;
              });
    std::vector<int> assign(nvregs, -1);
    std::vector<std::pair<u32, int>> active;  // (end, reg)
    std::vector<int> free_regs;
    for (int r = isa::NUM_REGS - 1; r >= abi::FIRST_ALLOC_REG; --r)
        free_regs.push_back(r);
    for (auto &[v, range] : order) {
        // Expire.
        for (size_t i = 0; i < active.size();) {
            if (active[i].first < range.lo) {
                free_regs.push_back(active[i].second);
                active.erase(active.begin() + i);
            } else {
                ++i;
            }
        }
        // The spill pass (chooseSpills + Frontend::spillToFrame) has
        // already brought peak pressure within the budget by the time
        // the allocator runs, so this is a backstop: reaching it means
        // the chooser's range computation diverged from this one — a
        // pipeline bug, reported structurally so sweeps quarantine it.
        if (free_regs.empty())
            throw CompileError(
                ErrCode::ResourceExhausted,
                detail::formatMsg("out of registers in ", fname,
                                  " (cross-region values exceed 116 "
                                  "after spilling — chooser/allocator "
                                  "mismatch)"),
                fname);
        int reg = free_regs.back();
        free_regs.pop_back();
        assign[v] = reg;
        active.emplace_back(range.hi, reg);
    }
    for (auto &hb : hbs) {
        for (auto &r : hb.reads)
            r.assignedReg = r.fixedReg >= 0 ? r.fixedReg : assign[r.v];
        for (auto &w : hb.writes)
            w.assignedReg = w.fixedReg >= 0 ? w.fixedReg : assign[w.v];
    }
}

// ---------------------------------------------------------------------
// Pass 6 — emission
// ---------------------------------------------------------------------

isa::Block
emitBlock(const HBlock &hb, const std::string &fname,
          std::vector<std::pair<u32, std::string>> &fixups,
          std::vector<std::pair<u32, std::string>> &ret_fixups)
{
    // The splitting pass guarantees the format limits; a breach here is
    // a pipeline bug, reported with full context. PANIC, not a
    // structured error: no input should be able to reach this.
    auto limit = [&](bool ok, const char *what, size_t got, size_t max) {
        if (!ok)
            TRIPS_PANIC("function ", fname, " block ", hb.label, ": ",
                        got, " ", what, " exceed the limit of ", max,
                        " (block splitting failed to engage)");
    };
    limit(hb.nodes.size() <= isa::MAX_INSTS, "instructions",
          hb.nodes.size(), isa::MAX_INSTS);
    limit(hb.reads.size() <= isa::MAX_READS, "reads", hb.reads.size(),
          isa::MAX_READS);
    limit(hb.writes.size() <= isa::MAX_WRITES, "writes",
          hb.writes.size(), isa::MAX_WRITES);

    isa::Block blk;
    blk.label = hb.label;
    blk.insts.resize(hb.nodes.size());
    blk.reads.resize(hb.reads.size());

    // Consumer edges -> target fields, straight into the encoded slots;
    // `given` counts every edge so a fanout failure is still caught
    // below even when it overflows the two fields.
    std::vector<u32> given(hb.reads.size() + hb.nodes.size(), 0);
    auto add_target = [&](i32 prod, isa::Target t) {
        isa::Target *fields;
        u32 *n;
        if (prod >= 0) {
            fields = blk.insts[prod].targets;
            n = &given[hb.reads.size() + static_cast<u32>(prod)];
        } else {
            fields = blk.reads[-1 - prod].targets;
            n = &given[static_cast<u32>(-1 - prod)];
        }
        if (*n < 2)
            fields[*n] = t;
        ++*n;
    };
    for (u32 i = 0; i < hb.nodes.size(); ++i) {
        const TNode &n = hb.nodes[i];
        for (i32 p : n.in0)
            add_target(p, {isa::Target::Kind::Op0, static_cast<u8>(i)});
        for (i32 p : n.in1)
            add_target(p, {isa::Target::Kind::Op1, static_cast<u8>(i)});
        if (n.predNode >= 0)
            add_target(n.predNode,
                       {isa::Target::Kind::Pred, static_cast<u8>(i)});
    }
    for (u32 w = 0; w < hb.writes.size(); ++w) {
        for (i32 p : hb.writes[w].prods)
            add_target(p, {isa::Target::Kind::Write, static_cast<u8>(w)});
    }

    unsigned exit_no = 0;
    for (u32 i = 0; i < hb.nodes.size(); ++i) {
        const TNode &n = hb.nodes[i];
        isa::Instruction &inst = blk.insts[i];
        inst.op = n.op;
        inst.imm = static_cast<i32>(n.imm);
        limit(n.lsid < isa::MAX_LSIDS || !isa::isMemory(n.op), "LSIDs",
              n.lsid, isa::MAX_LSIDS);
        inst.lsid = static_cast<u8>(n.lsid);
        if (n.predNode >= 0)
            inst.pr = n.predPol ? PredMode::OnTrue : PredMode::OnFalse;
        if (isBranch(n.op)) {
            limit(exit_no < isa::MAX_EXITS, "exits", exit_no + 1,
                  isa::MAX_EXITS);
            inst.exit = static_cast<u8>(exit_no++);
            if (n.op != Opcode::RET)
                fixups.emplace_back(i, n.targetLabel);
            if (n.op == Opcode::CALLO)
                ret_fixups.emplace_back(i, n.returnLabel);
        }
        TRIPS_ASSERT(given[hb.reads.size() + i] <=
                         isa::opInfo(n.op).numTargets,
                     "fanout failed for ", isa::opName(n.op), " in ",
                     fname, " block ", hb.label);
        if (isStore(n.op))
            blk.storeMask |= 1u << n.lsid;
    }
    for (u32 r = 0; r < hb.reads.size(); ++r) {
        blk.reads[r].reg = static_cast<u8>(hb.reads[r].assignedReg);
        TRIPS_ASSERT(given[r] <= 2, "read fanout failed in ", fname,
                     " block ", hb.label);
    }
    blk.writes.reserve(hb.writes.size());
    for (auto &w : hb.writes) {
        isa::WriteInst wi;
        wi.reg = static_cast<u8>(w.assignedReg);
        blk.writes.push_back(wi);
    }
    return blk;
}

// ---------------------------------------------------------------------
// The pass manager
// ---------------------------------------------------------------------

namespace {

/** Snapshot the TIL node mix after a pass. */
void
recordPass(PassCounters local[], PassId id, const std::vector<HBlock> &hbs,
           u64 prevNodes)
{
    PassCounters &pc = local[static_cast<unsigned>(id)];
    pc = PassCounters{};
    pc.tilBlocks = hbs.size();
    for (const HBlock &hb : hbs) {
        pc.tilNodes += hb.nodes.size();
        for (const TNode &n : hb.nodes) {
            if (n.op == Opcode::MOV)
                ++pc.movNodes;
            if (n.op == Opcode::NULLW)
                ++pc.nullNodes;
            if (isa::isTest(n.op))
                ++pc.testNodes;
        }
    }
    pc.addedNodes = pc.tilNodes > prevNodes ? pc.tilNodes - prevNodes : 0;
}

/** Between-pass debug hooks: TIL dump and/or verification. */
void
passDebug(const Options &opts, const std::string &fname, PassId id,
          const std::vector<HBlock> &hbs, bool sizeLimits)
{
    if (opts.tilDump) {
        *opts.tilDump << "=== TIL after " << passName(id) << " ("
                      << fname << ")\n";
        for (const HBlock &hb : hbs)
            *opts.tilDump << til::dump(hb);
    }
    if (opts.verifyTil) {
        til::VerifyOptions vo;
        vo.sizeLimits = sizeLimits;
        for (const HBlock &hb : hbs) {
            std::string verr = til::verify(hb, vo);
            if (!verr.empty())
                throw CompileError(
                    ErrCode::Internal,
                    detail::formatMsg("TIL verification failed after ",
                                      passName(id), " pass in ", fname,
                                      ": ", verr),
                    fname);
        }
    }
}

struct FuncOutput
{
    std::vector<isa::Block> emitted;
    /** (local block, inst, label, isReturnLabel) fixups. */
    std::vector<std::tuple<u32, u32, std::string, bool>> fixups;
    unsigned regions = 0;
};

/** Fixed-point bound on spill-to-memory rounds. Every round either
 *  succeeds outright or removes its victims' register ranges (a
 *  rewritten victim is block-local, and reload vregs never cross a
 *  block), so pressure strictly falls and one round almost always
 *  suffices; the bound guards the re-formed-region corner cases. */
constexpr int MAX_SPILL_ROUNDS = 8;

/** Victim list for the exhaustion diagnostics: "v37[r2-r9]" is vreg 37
 *  live over TIL blocks 2..9 of this function. */
std::string
describeVictims(const std::vector<SpillVictim> &victims)
{
    std::string out;
    for (const SpillVictim &sv : victims) {
        out += out.empty() ? "" : " ";
        out += "v" + std::to_string(sv.v) + "[r" + std::to_string(sv.lo) +
               "-r" + std::to_string(sv.hi) + "]";
    }
    return out.empty() ? "(none)" : out;
}

/**
 * Passes 1 and 2 to a fixed point: form regions, if-convert them all,
 * and shrink the root of every multi-block region that breaks a block
 * limit, until none does. Each failing round shrinks at least one
 * budget and a singleton is never shrunk, so the loop ends. Leaves the
 * last round's TIL in `hbs`; every multi-block region in it fits.
 */
unsigned
formFittingRegions(Frontend &fe, std::vector<HBlock> &hbs,
                   CompileStats &cs)
{
    for (;;) {
        const unsigned nregions = fe.formRegions();
        hbs = fe.ifConvert();
        bool shrunk = false;
        for (const HBlock &hb : hbs) {
            if (hb.wirMembers.size() > 1 &&
                !checkBlockLimits(hb).empty()) {
                fe.shrinkRegion(hb.wirMembers.front());
                shrunk = true;
            }
        }
        if (!shrunk)
            return nregions;
        ++cs.overflowRetries;
    }
}

FuncOutput
compileFunction(const Module &mod, const std::string &fname,
                const Options &opts, CompileStats &cs)
{
    Frontend fe(mod, fname, opts);
    fe.normalize();

    unsigned spilledSoFar = 0;
    for (int round = 0;; ++round) {
        PassCounters local[NUM_PASSES];
        CompileStats splitStats;

        // Passes 1 and 2 — region formation and if-conversion.
        std::vector<HBlock> hbs;
        const unsigned nregions = formFittingRegions(fe, hbs, cs);
        local[static_cast<unsigned>(PassId::RegionForm)].tilBlocks =
            nregions;
        recordPass(local, PassId::IfConvert, hbs, 0);
        passDebug(opts, fname, PassId::IfConvert, hbs, false);
        auto regionLive = fe.regionLiveSets();
        auto regionDepth = fe.regionLoopDepths();

        // Pass 3 — block splitting. Multi-block regions fit by now;
        // an oversized single-block region is cut into a chain.
        std::vector<HBlock> blocks;
        std::vector<std::vector<Vreg>> liveSets;
        std::vector<unsigned> blockDepth;
        u64 preSplitNodes =
            local[static_cast<unsigned>(PassId::IfConvert)].tilNodes;
        for (u32 ri = 0; ri < hbs.size(); ++ri) {
            std::vector<HBlock> chunks;
            if (hbs[ri].wirMembers.size() > 1)
                chunks.push_back(std::move(hbs[ri]));
            else
                chunks = splitPass(std::move(hbs[ri]), fname,
                                   [&] { return fe.freshVreg(); },
                                   &splitStats);
            for (auto &c : chunks) {
                blocks.push_back(std::move(c));
                liveSets.push_back(regionLive[ri]);
                blockDepth.push_back(regionDepth[ri]);
            }
        }
        recordPass(local, PassId::Split, blocks, preSplitNodes);
        passDebug(opts, fname, PassId::Split, blocks, true);

        // Pass 4 — fanout.
        u64 preFanoutNodes =
            local[static_cast<unsigned>(PassId::Split)].tilNodes;
        for (HBlock &hb : blocks)
            fanoutPass(hb);
        recordPass(local, PassId::Fanout, blocks, preFanoutNodes);
        passDebug(opts, fname, PassId::Fanout, blocks, true);

        // Pass 5 — spill-to-memory. Pure analysis here: the chooser
        // reads the post-fanout blocks, and a non-empty plan sends the
        // whole front end around for another round with the victims
        // rewritten through frame slots. The TIL is untouched either
        // way (no passDebug: dumps and verification would only repeat
        // the fanout state), so when pressure fits — every
        // pre-existing workload — this pass is bit-exact invisible.
        u64 fanoutNodes =
            local[static_cast<unsigned>(PassId::Fanout)].tilNodes;
        SpillPlan plan = chooseSpills(
            blocks, liveSets, blockDepth,
            [&fe](Vreg v) { return fe.spillableVreg(v); });
        recordPass(local, PassId::Spill, blocks, fanoutNodes);
        if (!plan.feasible)
            throw CompileError(
                ErrCode::ResourceExhausted,
                detail::formatMsg(
                    "out of registers in ", fname, ": ", plan.detail,
                    "; chosen-but-insufficient spill set: ",
                    describeVictims(plan.victims), "; ", spilledSoFar,
                    " value(s) spilled in earlier rounds"),
                fname);
        if (!plan.victims.empty()) {
            if (round == MAX_SPILL_ROUNDS - 1)
                throw CompileError(
                    ErrCode::ResourceExhausted,
                    detail::formatMsg(
                        "out of registers in ", fname,
                        ": spill fixed point did not converge after ",
                        round, " round(s): ", plan.maxLive,
                        " live values at ",
                        blocks[plan.pressureBlock].label,
                        " still exceed the budget; spill set: ",
                        describeVictims(plan.victims), "; ",
                        spilledSoFar,
                        " value(s) spilled in earlier rounds"),
                    fname);
            std::vector<Vreg> vs;
            for (const SpillVictim &sv : plan.victims)
                vs.push_back(sv.v);
            Frontend::SpillRewrite rw = fe.spillToFrame(vs);
            cs.spilledValues += static_cast<unsigned>(vs.size());
            cs.spillSlots += rw.slots;
            cs.spillLoads += rw.loads;
            cs.spillStores += rw.stores;
            ++cs.spillRounds;
            spilledSoFar += static_cast<unsigned>(vs.size());
            continue;  // next round re-runs the front end
        }

        // Pass 6 — register allocation (no TIL shape change).
        allocateRegisters(blocks, fname, liveSets);
        recordPass(local, PassId::RegAlloc, blocks,
                   local[static_cast<unsigned>(PassId::Spill)].tilNodes);

        // Pass 7 — emission.
        FuncOutput outp;
        outp.regions = nregions;
        for (u32 hi = 0; hi < blocks.size(); ++hi) {
            std::vector<std::pair<u32, std::string>> fix, rfix;
            outp.emitted.push_back(emitBlock(blocks[hi], fname, fix, rfix));
            for (auto &[inst, label] : fix)
                outp.fixups.emplace_back(hi, inst, label, false);
            for (auto &[inst, label] : rfix)
                outp.fixups.emplace_back(hi, inst, label, true);
        }
        recordPass(local, PassId::Emit, blocks,
                   local[static_cast<unsigned>(PassId::RegAlloc)].tilNodes);

        // Success: merge this round's counters.
        for (unsigned p = 0; p < NUM_PASSES; ++p) {
            PassCounters &dst = cs.pass[p];
            const PassCounters &src = local[p];
            dst.tilBlocks += src.tilBlocks;
            dst.tilNodes += src.tilNodes;
            dst.movNodes += src.movNodes;
            dst.nullNodes += src.nullNodes;
            dst.testNodes += src.testNodes;
            dst.addedNodes += src.addedNodes;
        }
        cs.splitBlocks += splitStats.splitBlocks;
        cs.spillWrites += splitStats.spillWrites;
        cs.spillReads += splitStats.spillReads;
        return outp;
    }
}

} // namespace

isa::Program
compileToTrips(const Module &mod, const Options &opts,
               CompileStats *stats)
{
    auto err = wir::verifyModule(mod);
    if (!err.empty())
        throw CompileError(ErrCode::InvalidArgument,
                           "WIR verification failed: " + err);

    isa::Program prog;
    CompileStats cs;

    // main first, then remaining functions in name order.
    std::vector<std::string> order;
    order.push_back(mod.mainFunction);
    for (const auto &[name, fn] : mod.functions) {
        if (name != mod.mainFunction)
            order.push_back(name);
    }

    // (block index, inst index) -> label fixups across functions.
    std::vector<std::tuple<u32, u32, std::string, bool>> fixups;

    for (const auto &fname : order) {
        FuncOutput fo = compileFunction(mod, fname, opts, cs);
        ++cs.functions;
        cs.regions += fo.regions;
        std::vector<u32> local_to_global;
        for (auto &blk : fo.emitted) {
            local_to_global.push_back(prog.addBlock(std::move(blk)));
            ++cs.blocks;
        }
        for (auto &[hi, inst, label, is_ret] : fo.fixups)
            fixups.emplace_back(local_to_global[hi], inst, label, is_ret);
    }

    for (auto &[bidx, inst, label, is_ret] : fixups) {
        u32 target = prog.blockIndex(label);
        auto &in = prog.mutableBlock(bidx).insts[inst];
        if (is_ret)
            in.returnBlock = static_cast<i32>(target);
        else
            in.targetBlock = static_cast<i32>(target);
    }
    prog.entry = prog.blockIndex(mod.mainFunction + ".r0");

    for (u32 b = 0; b < prog.numBlocks(); ++b) {
        const auto &blk = prog.block(b);
        cs.totalInsts += blk.insts.size();
        for (const auto &in : blk.insts) {
            if (in.op == Opcode::MOV)
                ++cs.movInsts;
            if (in.op == Opcode::NULLW)
                ++cs.nullInsts;
            if (isTest(in.op))
                ++cs.testInsts;
        }
    }
    if (stats)
        *stats = cs;

    placeProgram(prog);

    auto ferr = prog.finalize();
    if (!ferr.empty())
        throw CompileError(ErrCode::Internal,
                           "compiled program failed validation: " + ferr);
    return prog;
}

} // namespace trips::compiler
