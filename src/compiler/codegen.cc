/**
 * @file
 * The WIR-to-TIL front end of the TRIPS backend: hyperblock region
 * formation over the WIR CFG and if-conversion of regions into
 * predicated TIL dataflow graphs (speculating conditional-arm
 * arithmetic per the paper's model). Driven per-pass by the pipeline
 * manager in pipeline.cc through the `Frontend` interface.
 */

#include "compiler/pipeline.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <type_traits>

#include "compiler/analysis.hh"
#include "compiler/transform.hh"
#include "support/error.hh"

namespace trips::compiler {

using isa::Opcode;
using til::HBlock;
using til::HRead;
using til::HWrite;
using til::TNode;
using wir::Function;
using wir::Instr;
using wir::MemWidth;
using wir::Module;
using wir::TermKind;
using wir::Vreg;
using wir::WOp;

namespace {

// ---------------------------------------------------------------------
// Region formation
// ---------------------------------------------------------------------

struct Region
{
    std::vector<u32> members;   ///< topological (RPO) order, root first
    bool isCall = false;
};

struct FormElem
{
    u32 block;
    bool pol;
    bool operator==(const FormElem &) const = default;
};
/** An edge's predicate chain: at most maxPredDepth + 1 elements, which
 *  stay inline for every preset. */
using FormChain = SmallVec<FormElem, 8>;

/** Region budget of one root in WIR ops and memory ops; a singleton
 *  root is neither grown nor absorbed into another region. */
struct RegionBudget
{
    unsigned ops, mems;
    bool singleton = false;
};

/** Regions in RPO of their roots, each within its root's budget. */
std::vector<Region>
formRegionsOf(const Function &f, const Options &opts,
              const std::vector<RegionBudget> &budgets)
{
    const size_t nb = f.blocks.size();
    // Predecessors in CSR form, each list in ascending block order.
    std::vector<u32> predStart(nb + 1, 0);
    for (u32 b = 0; b < nb; ++b) {
        for (u32 s : f.successors(b))
            ++predStart[s + 1];
    }
    for (size_t b = 0; b < nb; ++b)
        predStart[b + 1] += predStart[b];
    std::vector<u32> preds(predStart[nb]);
    {
        std::vector<u32> fill(predStart.begin(), predStart.end() - 1);
        for (u32 b = 0; b < nb; ++b) {
            for (u32 s : f.successors(b))
                preds[fill[s]++] = b;
        }
    }
    auto rpo = reversePostOrder(f);
    std::vector<u32> rpo_pos(nb, 0xffffffff);
    for (u32 i = 0; i < rpo.size(); ++i)
        rpo_pos[rpo[i]] = i;

    std::vector<i32> assigned(nb, -1);
    std::vector<Region> regions;
    regions.reserve(nb);
    // Per block, for the region being formed: its chain once a member,
    // and membership stamps (the region's index). `inPass` holds the
    // members as of the start of the current growth pass; `inRegion`
    // every member so far.
    std::vector<FormChain> chain(nb);
    constexpr u32 NONE = 0xffffffff;
    std::vector<u32> inPass(nb, NONE), inRegion(nb, NONE);

    // Chain of a candidate edge pred -> succ.
    auto edge_chain = [&](const FormChain &pc, u32 p, u32 s) {
        FormChain c = pc;
        const auto &t = f.blocks[p].term;
        if (t.kind == TermKind::Br && t.thenBlock != t.elseBlock)
            c.push_back({p, t.thenBlock == s});
        return c;
    };

    for (u32 b : rpo) {
        if (assigned[b] >= 0)
            continue;
        u32 ridx = static_cast<u32>(regions.size());
        Region r;
        r.members.push_back(b);
        assigned[b] = static_cast<i32>(ridx);
        inRegion[b] = ridx;
        r.isCall = isCallBlock(f, b);

        const RegionBudget &budget = budgets[b];
        bool grow = opts.enablePredication && !r.isCall && !budget.singleton;
        chain[b].clear();
        u64 ops = f.blocks[b].instrs.size();
        unsigned mems = blockMemOps(f, b);

        auto count_exits = [&]() {
            unsigned n = 0;
            for (u32 m : r.members) {
                const auto &t = f.blocks[m].term;
                if (t.kind == TermKind::Ret) {
                    ++n;
                    continue;
                }
                for (u32 s : f.successors(m)) {
                    if (inRegion[s] != ridx || s == b)
                        ++n;
                }
            }
            return n;
        };

        bool grew = grow;
        size_t stamped = 0;
        while (grew) {
            grew = false;
            for (; stamped < r.members.size(); ++stamped)
                inPass[r.members[stamped]] = ridx;
            // By index: adding a member may reallocate r.members. A
            // pass ends after the member whose successor it added.
            const size_t n0 = r.members.size();
            for (size_t i = 0; i < n0 && !grew; ++i) {
                for (u32 s : f.successors(r.members[i])) {
                    if (s == b || inPass[s] == ridx || assigned[s] >= 0)
                        continue;
                    if (s == 0 || isCallBlock(f, s) || budgets[s].singleton)
                        continue;
                    // All predecessors must already be inside.
                    const u32 *pb = preds.data() + predStart[s];
                    const u32 *pe = preds.data() + predStart[s + 1];
                    bool all_in = true;
                    for (const u32 *p = pb; p != pe; ++p)
                        all_in &= inPass[*p] == ridx;
                    if (!all_in)
                        continue;
                    // Join-shape check.
                    FormChain nc;
                    if (pe - pb == 1) {
                        nc = edge_chain(chain[pb[0]], pb[0], s);
                    } else if (pe - pb == 2) {
                        const FormChain c1 = edge_chain(chain[pb[0]], pb[0], s);
                        const FormChain c2 = edge_chain(chain[pb[1]], pb[1], s);
                        if (c1.size() != c2.size() || c1.empty())
                            continue;
                        bool sibling = true;
                        for (size_t i = 0; i + 1 < c1.size(); ++i)
                            sibling &= c1[i] == c2[i];
                        sibling &= c1.back().block == c2.back().block &&
                                   c1.back().pol != c2.back().pol;
                        if (!sibling)
                            continue;
                        nc.assign(c1.begin(), c1.end() - 1);
                    } else {
                        continue;
                    }
                    if (nc.size() > opts.maxPredDepth)
                        continue;
                    if (ops + f.blocks[s].instrs.size() > budget.ops)
                        continue;
                    if (mems + blockMemOps(f, s) > budget.mems)
                        continue;
                    r.members.push_back(s);
                    inRegion[s] = ridx;
                    if (count_exits() > 7) {
                        r.members.pop_back();
                        inRegion[s] = NONE;
                        continue;
                    }
                    assigned[s] = static_cast<i32>(ridx);
                    chain[s] = nc;
                    ops += f.blocks[s].instrs.size();
                    mems += blockMemOps(f, s);
                    grew = true;
                }
            }
        }
        std::sort(r.members.begin(), r.members.end(),
                  [&](u32 x, u32 y) { return rpo_pos[x] < rpo_pos[y]; });
        regions.push_back(std::move(r));
    }
    return regions;
}

// ---------------------------------------------------------------------
// If-conversion: lowering one region to TIL
// ---------------------------------------------------------------------

/** A value source: the set of producers that deliver exactly one token
 *  on any path consistent with the owning context. At most two: one
 *  node or read, or the predicated MOV pair of a join or select. */
struct ValSource
{
    i32 prods[2] = {0, 0};    ///< >=0 node id; <0 read slot (-1-idx)
    u8 nprods = 0;
    bool total = true;        ///< delivers on every region path
    bool isConst = false;
    i64 cval = 0;

    const i32 *begin() const { return prods; }
    const i32 *end() const { return prods + nprods; }

    void
    push(i32 p)
    {
        TRIPS_ASSERT(nprods < 2, "value source with three producers");
        prods[nprods++] = p;
    }

    /** A compile-time constant not yet materialized as a node. */
    bool foldable() const { return isConst && nprods == 0; }

    bool
    sameProds(const ValSource &o) const
    {
        return nprods == o.nprods &&
               std::equal(begin(), end(), o.begin());
    }
};
static_assert(std::is_trivially_copyable_v<ValSource>);

/**
 * A block's if-conversion context: the current source of every vreg
 * the region has defined or read so far, sorted by vreg. Joins merge
 * two contexts in ascending vreg order, which is the order their MOV
 * pairs reach the output.
 */
struct CtxEntry
{
    Vreg v;
    ValSource vs;
};
using Context = std::vector<CtxEntry>;

Context::iterator
ctxLowerBound(Context &ctx, Vreg v)
{
    return std::lower_bound(
        ctx.begin(), ctx.end(), v,
        [](const CtxEntry &e, Vreg key) { return e.v < key; });
}

/** The source of `v` in `ctx`, or nullptr. */
ValSource *
ctxFind(Context &ctx, Vreg v)
{
    auto it = ctxLowerBound(ctx, v);
    return it != ctx.end() && it->v == v ? &it->vs : nullptr;
}

/** Define (or redefine) `v` in `ctx`. By value: an insertion moves the
 *  entries after it, so `vs` must not point into `ctx`. */
void
ctxSet(Context &ctx, Vreg v, ValSource vs)
{
    auto it = ctxLowerBound(ctx, v);
    if (it != ctx.end() && it->v == v)
        it->vs = vs;
    else
        ctx.insert(it, CtxEntry{v, vs});
}

struct CElem
{
    i32 test;
    bool pol;
    bool operator==(const CElem &) const = default;
};
using CChain = std::vector<CElem>;

/** Sanity ceiling on pre-split memory ops in one region (the split
 *  pass renumbers per chunk; TNode::lsid is 16-bit). */
constexpr unsigned PRESPLIT_LSID_CAP = 4096;

// ---------------------------------------------------------------------
// Per-function front end
// ---------------------------------------------------------------------

class FuncCompiler
{
  public:
    FuncCompiler(const Module &mod, const std::string &fname,
                 const Options &opts)
        : opts(opts), mod(mod), fname(fname), f(mod.function(fname))
    {}

    const Options opts;

    void
    normalize()
    {
        unrollLoops(f, opts);
        normalizeBlocks(f, 32, 20);
        splitCalls();
        vregSPV = f.nextVreg++;
        vregRETV = f.nextVreg++;
        vregSPREST = f.nextVreg++;
        spillBound = f.nextVreg;
        live.emplace(f);
        planSpills();
        // The CFG is final from here on (spillToFrame rewrites only
        // instructions), so loop depths are computed once.
        blockDepth.assign(f.blocks.size(), 0);
        for (const NaturalLoop &lp : findLoops(f)) {
            for (u32 b : lp.body)
                ++blockDepth[b];
        }
    }

    std::vector<unsigned>
    regionLoopDepths() const
    {
        std::vector<unsigned> out(regions.size(), 0);
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            for (u32 m : regions[ri].members)
                out[ri] = std::max(out[ri], blockDepth[m]);
        }
        return out;
    }

    bool
    spillableVreg(Vreg v) const
    {
        return v >= f.numParams && v < spillBound && v != vregSPV &&
               v != vregRETV && v != vregSPREST;
    }

    /**
     * The spill pass's rewrite half (chooser: compiler/spill.cc). Each
     * victim gets a dedicated frame slot above the caller-save area;
     * every def is followed by an 8-byte store to the slot, and every
     * use reloads into a fresh block-local vreg (cached per block, so
     * repeated uses share one reload). A victim defined by a call
     * materializes in the continuation block (via the RETVAL read), so
     * its store is prepended there instead. Loads and stores address
     * the frame through vregSPV, whose lowering pins R1 and reuses the
     * wide-displacement machinery (`frameSlotAddr` path in
     * `lowerInstr`); LSIDs follow WIR program order, and a store after
     * a conditionally executed def is predicated on the same chain, so
     * the slot keeps its old value on the untaken paths — exactly the
     * register's semantics. Afterwards no victim is live across a
     * block boundary, so its regalloc range is gone; liveness and the
     * caller-save plan are recomputed (victims drop out of call
     * live-out sets, so stale caller-save slots would otherwise
     * resurrect the cross-region reads the rewrite just removed).
     */
    Frontend::SpillRewrite
    spillToFrame(const std::vector<Vreg> &victims)
    {
        Frontend::SpillRewrite rw;
        const unsigned base = frameSlots;
        std::map<Vreg, unsigned> slotOf;
        for (Vreg v : victims) {
            TRIPS_ASSERT(spillableVreg(v), "unspillable victim in ",
                         fname);
            unsigned s = base + static_cast<unsigned>(slotOf.size());
            slotOf.emplace(v, s);
        }
        rw.slots = static_cast<unsigned>(slotOf.size());

        // Victims defined by a call get their store at the head of the
        // continuation block (ids of continuations are always greater
        // than their call block's, so ascending order sees the call
        // first).
        std::map<u32, Vreg> contStore;

        auto slotDisp = [&](Vreg v) {
            return static_cast<i64>(slotOf.at(v)) * 8;
        };
        auto makeStore = [&](Vreg v) {
            Instr st;
            st.op = WOp::Store;
            st.srcs = {vregSPV, v};
            st.imm = slotDisp(v);
            st.width = MemWidth::B8;
            ++rw.stores;
            return st;
        };

        for (u32 b = 0; b < f.blocks.size(); ++b) {
            std::vector<Instr> out;
            std::map<Vreg, Vreg> local;  // victim -> in-block copy
            auto it = contStore.find(b);
            if (it != contStore.end()) {
                out.push_back(makeStore(it->second));
                local[it->second] = it->second;
            }
            auto reload = [&](Vreg v) {
                auto lit = local.find(v);
                if (lit != local.end())
                    return lit->second;
                Instr ld;
                ld.op = WOp::Load;
                ld.dst = f.nextVreg++;
                ld.srcs = {vregSPV};
                ld.imm = slotDisp(v);
                ld.width = MemWidth::B8;
                out.push_back(ld);
                ++rw.loads;
                local.emplace(v, ld.dst);
                return ld.dst;
            };
            for (Instr in : f.blocks[b].instrs) {
                for (Vreg &s : in.srcs) {
                    if (slotOf.count(s))
                        s = reload(s);
                }
                const bool isCall = in.op == WOp::Call;
                const Vreg d = in.dst;
                out.push_back(std::move(in));
                if (d != wir::NO_VREG && slotOf.count(d)) {
                    if (isCall) {
                        contStore[callCont.at(b)] = d;
                    } else {
                        out.push_back(makeStore(d));
                        local[d] = d;
                    }
                }
            }
            auto &term = f.blocks[b].term;
            if (term.kind == TermKind::Br && slotOf.count(term.cond))
                term.cond = reload(term.cond);
            if (term.kind == TermKind::Ret &&
                term.retVal != wir::NO_VREG && slotOf.count(term.retVal))
                term.retVal = reload(term.retVal);
            f.blocks[b].instrs = std::move(out);
        }

        frameSlots = base + rw.slots;
        live.emplace(f);
        spillMap.clear();
        planSpills();
        return rw;
    }

    unsigned
    formRegions()
    {
        budgets.resize(f.blocks.size(),
                       {opts.regionBudgetOps, opts.regionBudgetMem});
        regions = formRegionsOf(f, opts, budgets);
        blockRegion.assign(f.blocks.size(), -1);
        memberPos.assign(f.blocks.size(), 0);
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            const auto &ms = regions[ri].members;
            for (u32 mi = 0; mi < ms.size(); ++mi) {
                blockRegion[ms[mi]] = static_cast<i32>(ri);
                memberPos[ms[mi]] = mi;
            }
        }
        return static_cast<unsigned>(regions.size());
    }

    std::vector<HBlock>
    ifConvert()
    {
        std::vector<HBlock> hbs;
        for (u32 ri = 0; ri < regions.size(); ++ri)
            hbs.push_back(genRegion(ri));
        return hbs;
    }

    std::vector<std::vector<Vreg>>
    regionLiveSets() const
    {
        // Sized from the liveness sets, not f.nextVreg: freshVreg()
        // keeps growing the function after liveness ran.
        const size_t width =
            live->liveIn.empty() ? 0 : live->liveIn.front().size();
        std::vector<std::vector<Vreg>> live_sets(regions.size());
        for (u32 ri = 0; ri < regions.size(); ++ri) {
            VregSet ls(width);
            for (u32 b : regions[ri].members) {
                ls.merge(live->liveIn[b]);
                ls.merge(live->liveOut[b]);
            }
            live_sets[ri] = ls.bits();
        }
        return live_sets;
    }

    Vreg freshVreg() { return f.nextVreg++; }

    void
    shrinkRegion(u32 root)
    {
        RegionBudget &b = budgets.at(root);
        TRIPS_ASSERT(!b.singleton, "cannot shrink the singleton region at ",
                     "block ", root, " of ", fname);
        if (b.ops <= 20) {
            b.singleton = true;
            return;
        }
        b.ops = std::max(18u, b.ops * 3 / 5);
        b.mems = std::max(8u, b.mems * 3 / 4);
    }

    std::string
    labelOf(u32 region_idx) const
    {
        return fname + ".r" + std::to_string(region_idx);
    }

    unsigned frameSlots = 0;

  private:
    const Module &mod;
    std::string fname;
    Function f;
    std::optional<Liveness> live;
    std::vector<Region> regions;
    std::vector<RegionBudget> budgets;  ///< per WIR block, as a root
    std::vector<unsigned> blockDepth;   ///< natural-loop depth per block
    std::vector<i32> blockRegion;
    std::vector<u32> memberPos;   ///< block -> position in its region
    Vreg vregSPV = 0, vregRETV = 0, vregSPREST = 0;
    Vreg spillBound = 0;   ///< vregs >= this are backend-invented
                           ///< (split-pass TIL values, spill reloads)

    // Per call block: spill assignments and continuation block.
    std::map<u32, std::map<Vreg, unsigned>> spillMap;
    std::map<u32, u32> callCont;       ///< call block -> continuation
    std::map<u32, u32> contOfRegionRoot;  ///< continuation root -> call

    /** Guarantee each call has a fresh, single-predecessor
     *  continuation block reached by an unconditional jump. */
    void
    splitCalls()
    {
        for (u32 b = 0; b < f.blocks.size(); ++b) {
            if (!isCallBlock(f, b))
                continue;
            wir::BasicBlock tail;
            tail.name = f.blocks[b].name + ".k";
            tail.term = f.blocks[b].term;
            u32 tail_id = static_cast<u32>(f.blocks.size());
            f.blocks[b].term = wir::Terminator{};
            f.blocks[b].term.kind = TermKind::Jmp;
            f.blocks[b].term.thenBlock = tail_id;
            f.blocks.push_back(std::move(tail));
            callCont[b] = tail_id;
        }
    }

    void
    planSpills()
    {
        for (auto &[cb, cont] : callCont) {
            const Instr &call = f.blocks[cb].instrs.back();
            std::map<Vreg, unsigned> slots;
            unsigned next = 0;
            for (u32 v : (*live).liveOut[cb].bits()) {
                if (call.dst != wir::NO_VREG && v == call.dst)
                    continue;
                if (v == vregSPV)
                    continue;  // SP survives calls by convention
                slots[v] = next++;
            }
            frameSlots = std::max(frameSlots, next);
            spillMap[cb] = std::move(slots);
            contOfRegionRoot[cont] = cb;
        }
    }

    // ------------------------------------------------------------------
    // Region code generation
    // ------------------------------------------------------------------

    struct CExit
    {
        CChain chain;
        u32 exitBlock = 0;   ///< WIR block the exit branch lives in
        bool isRet = false;
    };

    /** One node per i64 key, sorted by key (per-region caches). */
    using NodePool = std::vector<std::pair<i64, i32>>;

    static NodePool::iterator
    poolLowerBound(NodePool &pool, i64 key)
    {
        return std::lower_bound(
            pool.begin(), pool.end(), key,
            [](const std::pair<i64, i32> &e, i64 k) { return e.first < k; });
    }

    /** If-conversion state of one region. Per-member state is indexed
     *  by the member's position in `Region::members` (`memberPos`). */
    struct GenState
    {
        HBlock hb;
        std::vector<Context> ctx;   ///< per member
        std::vector<CChain> chains; ///< per member: predicate chain
        std::vector<i32> ctlTest;   ///< per member: branch test, or -1
        std::vector<i32> readIdx;  ///< read slot per vreg, -1 if none
        NodePool constPool;
        NodePool spAddrPool;       ///< wide frame-slot addresses
        VregSet defined;
        std::vector<CExit> exits;
        unsigned memSeq = 0;
        u32 cur = 0;   ///< position of the member being lowered
    };

    /** Is `b` a member of the region being lowered, other than its
     *  root (an edge to the root leaves the block)? */
    bool
    inRegion(u32 b, u32 root) const
    {
        return blockRegion[b] == static_cast<i32>(curRegion) && b != root;
    }

    i32
    newNode(GenState &g, Opcode op)
    {
        g.hb.nodes.emplace_back().op = op;
        return static_cast<i32>(g.hb.nodes.size() - 1);
    }

    i32
    newMemNode(GenState &g, Opcode op)
    {
        i32 n = newNode(g, op);
        // LSIDs past the block limit are allowed here: the pipeline
        // re-forms a multi-block region that has them, and the
        // splitting pass renumbers a single block's LSIDs per chunk.
        if (g.memSeq >= PRESPLIT_LSID_CAP)
            throw CompileError(
                ErrCode::ResourceExhausted,
                detail::formatMsg("function ", fname, " region ",
                                  curRegion, " (", labelOf(curRegion),
                                  "): ", g.memSeq,
                                  " memory ops exceed the pre-split "
                                  "cap of ", PRESPLIT_LSID_CAP),
                fname);
        g.hb.nodes[n].lsid = static_cast<u16>(g.memSeq++);
        return n;
    }

    void
    setPred(GenState &g, i32 node, const CChain &chain)
    {
        if (chain.empty())
            return;
        g.hb.nodes[node].predNode = chain.back().test;
        g.hb.nodes[node].predPol = chain.back().pol;
    }

    /** Materialize a constant via GENS/APP chains (cached per region). */
    i32
    constNode(GenState &g, i64 value)
    {
        auto it = poolLowerBound(g.constPool, value);
        if (it != g.constPool.end() && it->first == value)
            return it->second;
        // Chunk the constant into 16-bit pieces, high to low; the top
        // chunk sign-extends via GENS.
        int chunks = 1;
        while (chunks < 4) {
            i64 reduced = (value << (64 - 16 * chunks)) >> (64 - 16 * chunks);
            if (reduced == value)
                break;
            ++chunks;
        }
        i32 node = -1;
        for (int c = chunks - 1; c >= 0; --c) {
            i64 piece = (value >> (16 * c)) & 0xffff;
            if (node < 0) {
                i64 signed_piece = (piece ^ 0x8000) - 0x8000;
                node = newNode(g, Opcode::GENS);
                g.hb.nodes[node].imm = signed_piece;
            } else {
                i32 app = newNode(g, Opcode::APP);
                g.hb.nodes[app].imm = static_cast<i64>(
                    static_cast<i16>(piece));
                g.hb.nodes[app].in0.push_back(node);
                node = app;
            }
        }
        g.constPool.insert(it, {value, node});
        return node;
    }

    /** Resolve a ValSource to concrete producers. A constant is
     *  materialized once, in place: later uses of the same source see
     *  the node, not a foldable constant. */
    const ValSource &
    prodsOf(GenState &g, ValSource &vs)
    {
        if (vs.foldable())
            vs.push(constNode(g, vs.cval));
        return vs;
    }

    void
    connect(GenState &g, i32 node, unsigned operand, ValSource &vs)
    {
        // prodsOf may materialize constant nodes and reallocate the
        // node vector, so resolve producers before touching the list.
        const ValSource &prods = prodsOf(g, vs);
        auto &list = operand == 0 ? g.hb.nodes[node].in0
                                  : g.hb.nodes[node].in1;
        list.append(prods.begin(), prods.end());
    }

    /** The register-read slot of a vreg's incoming (pre-region) value,
     *  created on first use. */
    u32
    readSlot(GenState &g, Vreg v)
    {
        i32 &slot = g.readIdx[v];
        if (slot < 0) {
            HRead r;
            r.v = v;
            if (curRegion == 0 && v < f.numParams) {
                TRIPS_ASSERT(v < abi::MAX_ARGS, "too many parameters in ",
                             fname);
                r.fixedReg = abi::REG_ARG0 + static_cast<int>(v);
            }
            if (v == vregSPV)
                r.fixedReg = abi::REG_SP;  // SP lives in R1 across regions
            slot = static_cast<i32>(g.hb.reads.size());
            g.hb.reads.push_back(r);
        }
        return static_cast<u32>(slot);
    }

    /** Look up a vreg in the current context, creating a register read
     *  on demand. The reference lasts until the next insertion into
     *  the context: the next lookup of another vreg or definition. */
    ValSource &
    lookup(GenState &g, Vreg v)
    {
        Context &ctx = g.ctx[g.cur];
        auto it = ctxLowerBound(ctx, v);
        if (it != ctx.end() && it->v == v)
            return it->vs;
        return ctx.insert(it, CtxEntry{v, incomingVS(g, v)})->vs;
    }

    /** lookup(a), then lookup(b), as two references that are both
     *  valid (the second lookup may move the first entry). */
    std::pair<ValSource &, ValSource &>
    lookupPair(GenState &g, Vreg a, Vreg b)
    {
        lookup(g, a);
        ValSource &vb = lookup(g, b);
        return {*ctxFind(g.ctx[g.cur], a), vb};
    }

    static ValSource
    makeNodeVS(i32 node, bool total)
    {
        ValSource vs;
        vs.push(node);
        vs.total = total;
        return vs;
    }

    /**
     * A ValSource for the *incoming* (pre-region) value of a vreg:
     * a register read, without touching any block context. Used when a
     * merge needs "the old value of v" on a path that never defines it.
     */
    ValSource
    incomingVS(GenState &g, Vreg v)
    {
        ValSource vs;
        vs.push(-1 - static_cast<i32>(readSlot(g, v)));
        return vs;
    }

    u32 curRegion = 0;
    std::vector<ValSource *> leafScratch;  ///< connectOneWrite's sources

    HBlock
    genRegion(u32 ridx)
    {
        curRegion = ridx;
        const Region &r = regions[ridx];
        const u32 root = r.members[0];
        const size_t nm = r.members.size();
        GenState g;
        g.hb.label = labelOf(ridx);
        g.hb.wirMembers = r.members;
        g.ctx.resize(nm);
        g.chains.resize(nm);
        g.ctlTest.assign(nm, -1);
        g.readIdx.assign(f.nextVreg, -1);
        g.defined = VregSet(f.nextVreg);

        // Entry preambles.
        g.cur = 0;
        Context &rootCtx = g.ctx[0];
        bool is_entry = ridx == 0;
        if (is_entry && frameSlots > 0) {
            // SPV = R1 - frame
            ValSource &sp = lookup(g, vregSPV);
            // Force the read to fixed R1: the entry read of SPV *is* the
            // incoming stack pointer.
            g.hb.reads[g.readIdx[vregSPV]].fixedReg = abi::REG_SP;
            i32 adj = spAdjustNode(g, sp,
                                   -static_cast<i64>(frameBytes()),
                                   false);
            ctxSet(rootCtx, vregSPV, makeNodeVS(adj, true));
            g.defined.set(vregSPV);
        }
        auto cont_it = contOfRegionRoot.find(root);
        if (cont_it != contOfRegionRoot.end()) {
            // Call continuation: read the return value and reload
            // caller-saved values from the frame.
            u32 call_block = cont_it->second;
            const Instr &call = f.blocks[call_block].instrs.back();
            if (call.dst != wir::NO_VREG) {
                HRead rr;
                rr.v = call.dst;
                rr.fixedReg = abi::REG_RETVAL;
                g.readIdx[call.dst] = static_cast<i32>(g.hb.reads.size());
                g.hb.reads.push_back(rr);
                ValSource vs;
                vs.push(-1 - g.readIdx[call.dst]);
                ctxSet(rootCtx, call.dst, vs);
                g.defined.set(call.dst);
            }
            for (auto &[v, slot] : spillMap[call_block]) {
                if (!(*live).liveIn[root].test(v))
                    continue;
                ValSource &sp = lookup(g, vregSPV);
                auto [base, disp] = frameSlotAddr(g, sp, slot);
                i32 ld = newMemNode(g, Opcode::LD);
                g.hb.nodes[ld].imm = disp;
                connect(g, ld, 0, base);
                ctxSet(rootCtx, v, makeNodeVS(ld, true));
                g.defined.set(v);
            }
        }
        if (is_entry) {
            // Parameters materialize here; downstream regions read the
            // allocated registers, so params count as defined.
            for (Vreg p = 0; p < f.numParams; ++p) {
                if ((*live).liveIn[root].test(p))
                    g.defined.set(p);
            }
        }

        // Process members topologically.
        for (u32 mi = 0; mi < nm; ++mi) {
            u32 B = r.members[mi];
            g.cur = mi;
            if (mi > 0)
                mergeIntoBlock(g, r, mi);
            lowerBlockBody(g, B);
            lowerTerminator(g, B, root);
        }

        connectWrites(g, r);
        return std::move(g.hb);
    }

    u64 frameBytes() const { return (frameSlots + 1) * 8; }

    /**
     * The stack pointer plus an immediate, as a node: an ADDI when the
     * immediate fits the 9-bit form, else an ADD against a
     * materialized constant (the prototype's wide-offset idiom, used
     * by frames of 32+ spill slots). With `cache`, repeated offsets —
     * the spill/reload loops — share one node per region; the frame
     * adjustments on entry and return are unique per site and stay
     * uncached.
     */
    i32
    spAdjustNode(GenState &g, ValSource &sp, i64 imm, bool cache)
    {
        NodePool::iterator hit;
        if (cache) {
            hit = poolLowerBound(g.spAddrPool, imm);
            if (hit != g.spAddrPool.end() && hit->first == imm)
                return hit->second;
        }
        i32 n;
        if (imm >= isa::IMM9_MIN && imm <= isa::IMM9_MAX) {
            n = newNode(g, Opcode::ADDI);
            g.hb.nodes[n].imm = imm;
            connect(g, n, 0, sp);
        } else {
            i32 cn = constNode(g, imm);
            n = newNode(g, Opcode::ADD);
            connect(g, n, 0, sp);
            g.hb.nodes[n].in1.push_back(cn);
        }
        if (cache)
            g.spAddrPool.insert(hit, {imm, n});
        return n;
    }

    /**
     * Address of a caller-save frame slot as (base source, imm9
     * displacement). Slots beyond the 9-bit displacement range round
     * down to a shared 256-byte base — one cached ADD per region
     * serves a whole run of wide slots — with the remainder in the
     * memory op's immediate.
     */
    std::pair<ValSource, i64>
    frameSlotAddr(GenState &g, ValSource &sp, unsigned slot)
    {
        i64 disp = static_cast<i64>(slot) * 8;
        if (disp <= isa::IMM9_MAX)
            return {sp, disp};
        i64 base = disp & ~i64{255};
        return {makeNodeVS(spAdjustNode(g, sp, base, true), sp.total),
                disp - base};
    }

    /**
     * Compute chain and context of the non-root member at position
     * `mi` from its in-region predecessors. A single predecessor hands
     * over its context (moved) when nothing reads it afterwards: it has
     * no exit (exits read their block's context) and this is its last
     * in-region successor. A diamond join merges its two inputs in one
     * pass, in ascending vreg order.
     */
    void
    mergeIntoBlock(GenState &g, const Region &r, u32 mi)
    {
        const u32 B = r.members[mi];
        const u32 root = r.members[0];
        // An in-region edge p -> B: its chain is p's chain, extended by
        // p's branch test when p branches.
        struct InEdge
        {
            u32 pos;
            bool tested;
            CElem elem;
        };
        InEdge in[2];
        unsigned nin = 0;
        for (u32 pi = 0; pi < r.members.size(); ++pi) {
            const u32 p = r.members[pi];
            for (u32 s : f.successors(p)) {
                if (s != B)
                    continue;
                TRIPS_ASSERT(pi < mi && nin < 2,
                             "bad join shape in region of ", fname);
                const auto &t = f.blocks[p].term;
                InEdge &e = in[nin++];
                e.pos = pi;
                e.tested =
                    t.kind == TermKind::Br && t.thenBlock != t.elseBlock;
                if (e.tested)
                    e.elem = {g.ctlTest[pi], t.thenBlock == B};
            }
        }
        TRIPS_ASSERT(nin > 0, "bad join shape in region of ", fname);
        CChain &chain = g.chains[mi];
        if (nin == 1) {
            chain = g.chains[in[0].pos];
            if (in[0].tested)
                chain.push_back(in[0].elem);
            bool lastUse = true;
            for (u32 s : f.successors(r.members[in[0].pos]))
                lastUse &= inRegion(s, root) && memberPos[s] <= mi;
            if (lastUse)
                g.ctx[mi] = std::move(g.ctx[in[0].pos]);
            else
                g.ctx[mi] = g.ctx[in[0].pos];
            return;
        }
        // Proper diamond join: the edge chains are complementary
        // siblings, so the join's chain is either one less its last
        // element. The side of the lower block id comes first.
        if (r.members[in[0].pos] > r.members[in[1].pos])
            std::swap(in[0], in[1]);
        const CChain &pc = g.chains[in[0].pos];
        CElem last;
        if (in[0].tested) {
            chain = pc;
            last = in[0].elem;
        } else {
            TRIPS_ASSERT(!pc.empty(), "bad join shape in region of ", fname);
            chain.assign(pc.begin(), pc.end() - 1);
            last = pc.back();
        }
        const bool total = chain.empty();
        const i32 t = last.test;
        const bool pol1 = last.pol;

        // Predicated movs merging the two sides, `s1` on polarity `pol`
        // first. A vreg defined on one side only keeps its incoming
        // (register) value on the other; that side's def comes first. A
        // NULLW would be wrong there: downstream arithmetic would be
        // poisoned by the null.
        auto movPair = [&](ValSource &s1, bool pol, ValSource &s2) {
            i32 m1 = newNode(g, Opcode::MOV);
            g.hb.nodes[m1].predNode = t;
            g.hb.nodes[m1].predPol = pol;
            connect(g, m1, 0, s1);
            i32 m2 = newNode(g, Opcode::MOV);
            g.hb.nodes[m2].predNode = t;
            g.hb.nodes[m2].predPol = !pol;
            connect(g, m2, 0, s2);
            ValSource vs;
            vs.push(m1);
            vs.push(m2);
            vs.total = total;
            return vs;
        };
        Context &ctx1 = g.ctx[in[0].pos];
        Context &ctx2 = g.ctx[in[1].pos];
        Context &merged = g.ctx[mi];
        merged.reserve(ctx1.size() + ctx2.size());
        auto i1 = ctx1.begin(), i2 = ctx2.begin();
        while (i1 != ctx1.end() || i2 != ctx2.end()) {
            const bool has1 =
                i2 == ctx2.end() || (i1 != ctx1.end() && i1->v <= i2->v);
            const bool has2 =
                i1 == ctx1.end() || (i2 != ctx2.end() && i2->v <= i1->v);
            const Vreg v = has1 ? i1->v : i2->v;
            ValSource vs;
            if (!has2 || !has1) {
                ValSource inc = incomingVS(g, v);
                vs = has1 ? movPair(i1->vs, pol1, inc)
                          : movPair(i2->vs, !pol1, inc);
            } else if ((i1->vs.sameProds(i2->vs) && !i1->vs.foldable()) ||
                       (i1->vs.isConst && i2->vs.isConst &&
                        i1->vs.cval == i2->vs.cval)) {
                vs = i1->vs;
            } else {
                vs = movPair(i1->vs, pol1, i2->vs);
            }
            merged.push_back(CtxEntry{v, vs});
            i1 += has1;
            i2 += has2;
        }
    }

    bool
    speculable() const
    {
        return opts.speculateArith;
    }

    /** Lower one WIR instruction list. */
    void
    lowerBlockBody(GenState &g, u32 B)
    {
        const CChain &chain = g.chains[g.cur];
        Context &ctx = g.ctx[g.cur];
        for (const Instr &in : f.blocks[B].instrs)
            lowerInstr(g, B, chain, ctx, in);
    }

    static bool
    fitsImm9(i64 v)
    {
        return v >= isa::IMM9_MIN && v <= isa::IMM9_MAX;
    }

    /** Integer binop folding when both sides are compile-time consts.
     *  Add/Sub/Mul wrap mod 2^64, as wir::Interp and the hardware do
     *  (computed unsigned: signed overflow is undefined). */
    static std::optional<i64>
    foldConsts(WOp op, i64 a, i64 b)
    {
        const u64 ua = static_cast<u64>(a), ub = static_cast<u64>(b);
        switch (op) {
          case WOp::Add: return static_cast<i64>(ua + ub);
          case WOp::Sub: return static_cast<i64>(ua - ub);
          case WOp::Mul: return static_cast<i64>(ua * ub);
          case WOp::And: return a & b;
          case WOp::Or: return a | b;
          case WOp::Xor: return a ^ b;
          case WOp::Shl: return static_cast<i64>(
              static_cast<u64>(a) << (b & 63));
          case WOp::Shr: return static_cast<i64>(
              static_cast<u64>(a) >> (b & 63));
          case WOp::Sar: return a >> (b & 63);
          default: return std::nullopt;
        }
    }

    void
    lowerInstr(GenState &g, u32 B, const CChain &chain,
               Context &ctx, const Instr &in)
    {
        auto def = [&](ValSource vs) { ctxSet(ctx, in.dst, vs);
                                       g.defined.set(in.dst); };
        // A speculated (unpredicated) op still only delivers when all
        // its inputs deliver, so totality is ANDed through the inputs:
        // an add fed by a predicated load is NOT total, and a store
        // address built from it must get NULLW complement coverage
        // like any other predicated operand (found by differential
        // fuzzing: blocks hung at commit with the store's address
        // operand starved on the untaken path).
        auto unpredTotal = [&](i32 node, bool inputs_total) {
            bool spec = speculable();
            if (!spec)
                setPred(g, node, chain);
            return makeNodeVS(node,
                              (spec || chain.empty()) && inputs_total);
        };

        switch (in.op) {
          case WOp::Const: {
            ValSource vs;
            vs.isConst = true;
            if (in.isFloat)
                std::memcpy(&vs.cval, &in.fimm, 8);
            else
                vs.cval = in.imm;
            def(vs);
            return;
          }
          case WOp::Copy:
            def(lookup(g, in.srcs[0]));
            return;
          case WOp::Select: {
            // A copy: the arm lookups may move the entry. Not foldable
            // past the test below, so connecting leaves it unchanged.
            ValSource c = lookup(g, in.srcs[0]);
            if (c.foldable()) {
                def(lookup(g, in.srcs[c.cval ? 1 : 2]));
                return;
            }
            i32 t = newNode(g, Opcode::TNEI);
            g.hb.nodes[t].imm = 0;
            connect(g, t, 0, c);
            if (!speculable())
                setPred(g, t, chain);
            auto [tv, fv] = lookupPair(g, in.srcs[1], in.srcs[2]);
            i32 m1 = newNode(g, Opcode::MOV);
            g.hb.nodes[m1].predNode = t;
            g.hb.nodes[m1].predPol = true;
            connect(g, m1, 0, tv);
            i32 m2 = newNode(g, Opcode::MOV);
            g.hb.nodes[m2].predNode = t;
            g.hb.nodes[m2].predPol = false;
            connect(g, m2, 0, fv);
            ValSource vs;
            vs.push(m1);
            vs.push(m2);
            // The predicated movs can only fire if the test itself
            // delivers, so the condition's totality gates the result.
            vs.total = c.total && tv.total && fv.total &&
                       (speculable() || chain.empty());
            def(vs);
            return;
          }
          case WOp::Load: {
            ValSource addr = lookup(g, in.srcs[0]);  // copy: may rewrite
            i64 disp = in.imm;
            if (addr.foldable()) {
                addr.cval += disp;
                disp = 0;
            }
            if (!fitsImm9(disp)) {
                addr = addByConst(g, chain, addr, disp);
                disp = 0;
            }
            Opcode op = loadOpcode(in.width, in.loadSigned);
            i32 n = newMemNode(g, op);
            g.hb.nodes[n].imm = disp;
            setPred(g, n, chain);
            connect(g, n, 0, addr);
            def(makeNodeVS(n, chain.empty()));
            return;
          }
          case WOp::Store: {
            ValSource addr = lookup(g, in.srcs[0]);
            ValSource val = lookup(g, in.srcs[1]);
            i64 disp = in.imm;
            if (addr.foldable()) {
                addr.cval += disp;
                disp = 0;
            }
            if (!fitsImm9(disp)) {
                addr = addByConst(g, chain, addr, disp);
                disp = 0;
            }
            Opcode op = storeOpcode(in.width);
            i32 n = newMemNode(g, op);
            g.hb.nodes[n].imm = disp;
            if (chain.empty()) {
                connect(g, n, 0, addr);
                connect(g, n, 1, val);
                return;
            }
            // Predicated path: merge value (and address if needed)
            // against NULLW coverage of the complement paths.
            std::vector<i32> nulls;
            for (const CElem &e : chain) {
                i32 nn = newNode(g, Opcode::NULLW);
                g.hb.nodes[nn].predNode = e.test;
                g.hb.nodes[nn].predPol = !e.pol;
                nulls.push_back(nn);
            }
            auto gate = [&](unsigned operand, ValSource &vs) {
                i32 mv = newNode(g, Opcode::MOV);
                g.hb.nodes[mv].predNode = chain.back().test;
                g.hb.nodes[mv].predPol = chain.back().pol;
                connect(g, mv, 0, vs);
                auto &list = operand == 0 ? g.hb.nodes[n].in0
                                          : g.hb.nodes[n].in1;
                list.push_back(mv);
                for (i32 nn : nulls)
                    list.push_back(nn);
            };
            gate(1, val);
            if (addr.total && addr.nprods != 0)
                connect(g, n, 0, addr);
            else if (addr.foldable())
                connect(g, n, 0, addr);
            else
                gate(0, addr);
            return;
          }
          case WOp::Call:
            lowerCall(g, B, in);
            return;
          default:
            break;
        }

        // Remaining ops are pure value computations.
        ValSource *ap, *b = nullptr;
        if (in.srcs.size() > 1) {
            auto [ra, rb] = lookupPair(g, in.srcs[0], in.srcs[1]);
            ap = &ra;
            b = &rb;
        } else {
            ap = &lookup(g, in.srcs[0]);
        }
        ValSource &a = *ap;
        bool a_const = a.foldable();
        bool b_const = b && b->foldable();

        if (a_const && (in.srcs.size() == 1 || b_const)) {
            // Full compile-time folding when supported.
            if (auto fv = b ? foldConsts(in.op, a.cval, b->cval)
                            : std::nullopt) {
                ValSource vs;
                vs.isConst = true;
                vs.cval = *fv;
                def(vs);
                return;
            }
        }

        // Immediate forms (9-bit) with a constant right operand.
        struct ImmMap { WOp w; Opcode imm; };
        static const ImmMap imm_map[] = {
            {WOp::Add, Opcode::ADDI}, {WOp::Mul, Opcode::MULI},
            {WOp::And, Opcode::ANDI}, {WOp::Or, Opcode::ORI},
            {WOp::Xor, Opcode::XORI}, {WOp::Shl, Opcode::SLLI},
            {WOp::Shr, Opcode::SRLI}, {WOp::Sar, Opcode::SRAI},
            {WOp::CmpEq, Opcode::TEQI}, {WOp::CmpNe, Opcode::TNEI},
            {WOp::CmpLt, Opcode::TLTI}, {WOp::CmpGt, Opcode::TGTI},
        };
        if (opts.foldImmediates && b) {
            ValSource *cv = b_const ? b : nullptr;
            ValSource *ov = b_const ? &a : nullptr;
            bool commutative = in.op == WOp::Add || in.op == WOp::Mul ||
                               in.op == WOp::And || in.op == WOp::Or ||
                               in.op == WOp::Xor;
            if (!cv && a_const && commutative) {
                cv = &a;
                ov = b;
            } else if (cv) {
                ov = &a;
            }
            if (cv && fitsImm9(cv->cval)) {
                for (const auto &mapping : imm_map) {
                    if (mapping.w != in.op)
                        continue;
                    i32 n = newNode(g, mapping.imm);
                    g.hb.nodes[n].imm = cv->cval;
                    connect(g, n, 0, *ov);
                    def(unpredTotal(n, ov->total));
                    return;
                }
            }
            // Sub with constant rhs becomes ADDI of the negation
            // (wrapping: INT64_MIN negates to itself and stays out of
            // imm9 range).
            const i64 neg_b =
                b_const ? static_cast<i64>(0 - static_cast<u64>(b->cval)) : 0;
            if (b_const && in.op == WOp::Sub && fitsImm9(neg_b)) {
                i32 n = newNode(g, Opcode::ADDI);
                g.hb.nodes[n].imm = neg_b;
                connect(g, n, 0, a);
                def(unpredTotal(n, a.total));
                return;
            }
        }

        Opcode op = pureOpcode(in.op);
        i32 n = newNode(g, op);
        connect(g, n, 0, a);
        if (b)
            connect(g, n, 1, *b);
        def(unpredTotal(n, a.total && (!b || b->total)));
    }

    /** addr + wide constant helper (pre-add when disp exceeds imm9). */
    ValSource
    addByConst(GenState &g, const CChain &chain, ValSource &base, i64 c)
    {
        (void)chain;
        i32 cn = constNode(g, c);
        i32 n = newNode(g, Opcode::ADD);
        connect(g, n, 0, base);
        g.hb.nodes[n].in1.push_back(cn);
        return makeNodeVS(n, base.total);
    }

    static Opcode
    loadOpcode(MemWidth w, bool sgn)
    {
        switch (w) {
          case MemWidth::B1: return sgn ? Opcode::LB : Opcode::LBU;
          case MemWidth::B2: return sgn ? Opcode::LH : Opcode::LHU;
          case MemWidth::B4: return sgn ? Opcode::LW : Opcode::LWU;
          case MemWidth::B8: return Opcode::LD;
        }
        TRIPS_PANIC("bad width");
    }

    static Opcode
    storeOpcode(MemWidth w)
    {
        switch (w) {
          case MemWidth::B1: return Opcode::SB;
          case MemWidth::B2: return Opcode::SH;
          case MemWidth::B4: return Opcode::SW;
          case MemWidth::B8: return Opcode::SD;
        }
        TRIPS_PANIC("bad width");
    }

    static Opcode
    pureOpcode(WOp w)
    {
        switch (w) {
          case WOp::Add: return Opcode::ADD;
          case WOp::Sub: return Opcode::SUB;
          case WOp::Mul: return Opcode::MUL;
          case WOp::Div: return Opcode::DIV;
          case WOp::DivU: return Opcode::DIVU;
          case WOp::Mod: return Opcode::MOD;
          case WOp::ModU: return Opcode::MODU;
          case WOp::And: return Opcode::AND;
          case WOp::Or: return Opcode::OR;
          case WOp::Xor: return Opcode::XOR;
          case WOp::Not: return Opcode::NOT;
          case WOp::Shl: return Opcode::SLL;
          case WOp::Shr: return Opcode::SRL;
          case WOp::Sar: return Opcode::SRA;
          case WOp::SextB: return Opcode::EXTSB;
          case WOp::SextH: return Opcode::EXTSH;
          case WOp::SextW: return Opcode::EXTSW;
          case WOp::ZextB: return Opcode::EXTUB;
          case WOp::ZextH: return Opcode::EXTUH;
          case WOp::ZextW: return Opcode::EXTUW;
          case WOp::FAdd: return Opcode::FADD;
          case WOp::FSub: return Opcode::FSUB;
          case WOp::FMul: return Opcode::FMUL;
          case WOp::FDiv: return Opcode::FDIV;
          case WOp::FNeg: return Opcode::FNEG;
          case WOp::IToF: return Opcode::ITOF;
          case WOp::FToI: return Opcode::FTOI;
          case WOp::CmpEq: return Opcode::TEQ;
          case WOp::CmpNe: return Opcode::TNE;
          case WOp::CmpLt: return Opcode::TLT;
          case WOp::CmpLe: return Opcode::TLE;
          case WOp::CmpGt: return Opcode::TGT;
          case WOp::CmpGe: return Opcode::TGE;
          case WOp::CmpLtU: return Opcode::TLTU;
          case WOp::CmpGeU: return Opcode::TGEU;
          case WOp::FCmpEq: return Opcode::TFEQ;
          case WOp::FCmpNe: return Opcode::TFNE;
          case WOp::FCmpLt: return Opcode::TFLT;
          case WOp::FCmpLe: return Opcode::TFLE;
          default:
            TRIPS_PANIC("unexpected WIR op in pureOpcode");
        }
    }

    void
    lowerCall(GenState &g, u32 B, const Instr &in)
    {
        TRIPS_ASSERT(in.srcs.size() <= abi::MAX_ARGS,
                     "too many call args in ", fname);
        // Argument writes.
        for (size_t i = 0; i < in.srcs.size(); ++i) {
            HWrite w;
            w.fixedReg = abi::REG_ARG0 + static_cast<int>(i);
            const ValSource &vs = prodsOf(g, lookup(g, in.srcs[i]));
            w.prods.assign(vs.begin(), vs.end());
            g.hb.writes.push_back(std::move(w));
        }
        // Caller-save spills.
        for (auto &[v, slot] : spillMap.at(B)) {
            auto [sp, val] = lookupPair(g, vregSPV, v);
            auto [base, disp] = frameSlotAddr(g, sp, slot);
            i32 st = newMemNode(g, Opcode::SD);
            g.hb.nodes[st].imm = disp;
            connect(g, st, 0, base);
            connect(g, st, 1, val);
        }
        // The CALLO exit itself.
        i32 c = newNode(g, Opcode::CALLO);
        g.hb.nodes[c].targetLabel = in.callee + ".r0";
        u32 cont = callCont.at(B);
        i32 cont_region = blockRegion[cont];
        TRIPS_ASSERT(cont_region >= 0, "in ", fname);
        g.hb.nodes[c].returnLabel =
            labelOf(static_cast<u32>(cont_region));
        CExit e;
        e.chain = g.chains[g.cur];
        e.exitBlock = B;
        g.exits.push_back(std::move(e));
    }

    i32
    controlTest(GenState &g, Vreg cond)
    {
        const CChain &chain = g.chains[g.cur];
        ValSource &vs = lookup(g, cond);
        if (vs.nprods == 1 && vs.prods[0] >= 0 && chain.empty()) {
            const TNode &n = g.hb.nodes[vs.prods[0]];
            if (isTest(n.op) && n.predNode < 0)
                return vs.prods[0];
        }
        i32 t = newNode(g, Opcode::TNEI);
        g.hb.nodes[t].imm = 0;
        connect(g, t, 0, vs);
        setPred(g, t, chain);
        return t;
    }

    void
    lowerTerminator(GenState &g, u32 B, u32 root)
    {
        // A call block's CALLO is its exit; the Jmp to the continuation
        // is encoded as the CALLO return label, not a branch.
        if (isCallBlock(f, B))
            return;
        const auto &t = f.blocks[B].term;
        const CChain &chain = g.chains[g.cur];
        auto in_region = [&](u32 s) { return inRegion(s, root); };
        auto emit_bro = [&](u32 target, const CChain &bchain) {
            i32 n = newNode(g, Opcode::BRO);
            i32 tr = blockRegion[target];
            TRIPS_ASSERT(tr >= 0, "in ", fname);
            g.hb.nodes[n].targetLabel = labelOf(static_cast<u32>(tr));
            if (!bchain.empty()) {
                g.hb.nodes[n].predNode = bchain.back().test;
                g.hb.nodes[n].predPol = bchain.back().pol;
            }
            CExit e;
            e.chain = bchain;
            e.exitBlock = B;
            g.exits.push_back(std::move(e));
        };

        switch (t.kind) {
          case TermKind::Jmp:
            if (!in_region(t.thenBlock))
                emit_bro(t.thenBlock, chain);
            return;
          case TermKind::Br: {
            if (t.thenBlock == t.elseBlock) {
                if (!in_region(t.thenBlock))
                    emit_bro(t.thenBlock, chain);
                return;
            }
            i32 ctl = controlTest(g, t.cond);
            g.ctlTest[g.cur] = ctl;
            for (bool pol : {true, false}) {
                u32 target = pol ? t.thenBlock : t.elseBlock;
                if (in_region(target))
                    continue;
                CChain bc = chain;
                bc.push_back({ctl, pol});
                emit_bro(target, bc);
            }
            return;
          }
          case TermKind::Ret: {
            if (t.retVal != wir::NO_VREG) {
                ctxSet(g.ctx[g.cur], vregRETV, lookup(g, t.retVal));
                g.defined.set(vregRETV);
            }
            if (frameSlots > 0) {
                // Restore the caller's stack pointer on return paths:
                // the ret-exit context of SPV becomes SP + frame, so
                // the (fixed R1) write commits the restored value.
                ValSource &sp = lookup(g, vregSPV);
                i32 adj = spAdjustNode(
                    g, sp, static_cast<i64>(frameBytes()), false);
                ctxSet(g.ctx[g.cur], vregSPV, makeNodeVS(adj, false));
                g.defined.set(vregSPV);
            }
            i32 n = newNode(g, Opcode::RET);
            setPred(g, n, chain);
            CExit e;
            e.chain = chain;
            e.exitBlock = B;
            e.isRet = true;
            g.exits.push_back(std::move(e));
            return;
          }
        }
    }

    // ------------------------------------------------------------------
    // Block-output (register write) connection
    // ------------------------------------------------------------------

    void
    connectWrites(GenState &g, const Region &r)
    {
        if (r.isCall) {
            // Live values are spilled; only the arg writes remain —
            // except that an entry region that is itself a call block
            // must still publish the adjusted stack pointer.
            if (g.defined.test(vregSPV)) {
                HWrite w;
                w.v = vregSPV;
                w.fixedReg = abi::REG_SP;
                connectOneWrite(g, w);
                g.hb.writes.push_back(std::move(w));
            }
            return;
        }

        // Which vregs need register writes? (Ascending vreg order.)
        VregSet write_set(g.defined.size());
        for (const CExit &e : g.exits) {
            if (e.isRet)
                continue;
            u32 target = exitTargetOf(g, e);
            live->liveIn[target].forEach([&](u32 v) {
                if (g.defined.test(v))
                    write_set.set(v);
            });
        }
        if (g.defined.test(vregRETV))
            write_set.set(vregRETV);
        if (g.defined.test(vregSPV))
            write_set.set(vregSPV);

        g.hb.writes.reserve(g.hb.writes.size() + write_set.count());
        write_set.forEach([&](Vreg v) {
            HWrite w;
            w.v = v;
            if (v == vregRETV)
                w.fixedReg = abi::REG_RETVAL;
            if (v == vregSPV)
                w.fixedReg = abi::REG_SP;
            connectOneWrite(g, w);
            g.hb.writes.push_back(std::move(w));
        });
    }

    /** WIR successor block of a non-ret exit (for liveness). */
    u32
    exitTargetOf(GenState &g, const CExit &e)
    {
        // Recover: scan the exit block's terminator for targets outside
        // the region or back to root — conservative union handled by
        // caller looping over all exits, so returning any outside
        // target of this block is sufficient. We track it precisely by
        // recomputing from the terminator and chain polarity.
        const auto &t = f.blocks[e.exitBlock].term;
        if (t.kind == TermKind::Jmp)
            return t.thenBlock;
        if (t.kind == TermKind::Br) {
            if (e.chain.empty())
                return t.thenBlock;
            // The chain's last element distinguishes then/else when the
            // branch itself created the exit.
            const CElem &last = e.chain.back();
            if (g.ctlTest[memberPos[e.exitBlock]] == last.test)
                return last.pol ? t.thenBlock : t.elseBlock;
            return t.thenBlock;
        }
        TRIPS_PANIC("ret exit has no target in ", fname);
    }

    void
    connectOneWrite(GenState &g, HWrite &w)
    {
        // The source of w.v on each exit, parallel to g.exits.
        // A member buffer: reused by every write of the function.
        std::vector<ValSource *> &leaves = leafScratch;
        leaves.clear();
        for (const CExit &e : g.exits)
            leaves.push_back(ctxFind(g.ctx[memberPos[e.exitBlock]], w.v));
        // Shortcut: single exit, or identical total sources everywhere.
        const ValSource *first = leaves[0];
        bool all_same = first != nullptr;
        for (const ValSource *l : leaves) {
            if (!all_same)
                break;
            all_same &= l != nullptr &&
                        ((l->sameProds(*first) && !l->foldable()) ||
                         (l->foldable() && first->foldable() &&
                          l->cval == first->cval));
        }
        if (leaves.size() == 1 || (all_same && first->total)) {
            // Without a source: defined only on sibling paths that exit
            // elsewhere, so this exit keeps the incoming register value.
            ValSource inc;
            if (!first)
                inc = incomingVS(g, w.v);
            const ValSource &vs = prodsOf(g, first ? *leaves[0] : inc);
            w.prods.append(vs.begin(), vs.end());
            return;
        }
        for (size_t li = 0; li < leaves.size(); ++li) {
            const CExit &e = g.exits[li];
            ValSource *vs = leaves[li];
            TRIPS_ASSERT(!e.chain.empty(),
                         "multi-exit region with unpredicated exit in ",
                         fname);
            const CElem &leaf = e.chain.back();
            if (!vs) {
                // No in-region definition on this exit. If the value is
                // live into the exit's target it is live-THROUGH (e.g.
                // a parameter used past a join): forward the incoming
                // register value. A NULLW here would commit null over
                // the live value (found by differential fuzzing: params
                // read as 0 after a region with a conditional call).
                // Only a genuinely dead exit gets the slot-satisfying
                // NULLW.
                bool live_through =
                    !e.isRet && w.fixedReg < 0 &&
                    (*live).liveIn[exitTargetOf(g, e)].test(w.v);
                if (live_through) {
                    i32 mv = newNode(g, Opcode::MOV);
                    g.hb.nodes[mv].predNode = leaf.test;
                    g.hb.nodes[mv].predPol = leaf.pol;
                    ValSource inc = incomingVS(g, w.v);
                    connect(g, mv, 0, inc);
                    w.prods.push_back(mv);
                    continue;
                }
                i32 nn = newNode(g, Opcode::NULLW);
                g.hb.nodes[nn].predNode = leaf.test;
                g.hb.nodes[nn].predPol = leaf.pol;
                w.prods.push_back(nn);
            } else {
                i32 mv = newNode(g, Opcode::MOV);
                g.hb.nodes[mv].predNode = leaf.test;
                g.hb.nodes[mv].predPol = leaf.pol;
                connect(g, mv, 0, *vs);
                w.prods.push_back(mv);
            }
        }
    }
};

} // namespace

// ---------------------------------------------------------------------
// Frontend: the pipeline-facing interface
// ---------------------------------------------------------------------

struct Frontend::Impl
{
    FuncCompiler fc;
};

Frontend::Frontend(const Module &mod, const std::string &fname,
                   const Options &opts)
    : impl(std::make_unique<Impl>(Impl{FuncCompiler(mod, fname, opts)}))
{}

Frontend::~Frontend() = default;

void
Frontend::normalize()
{
    impl->fc.normalize();
}

unsigned
Frontend::formRegions()
{
    return impl->fc.formRegions();
}

void
Frontend::shrinkRegion(u32 root)
{
    impl->fc.shrinkRegion(root);
}

std::vector<til::HBlock>
Frontend::ifConvert()
{
    return impl->fc.ifConvert();
}

std::vector<std::vector<Vreg>>
Frontend::regionLiveSets() const
{
    return impl->fc.regionLiveSets();
}

Vreg
Frontend::freshVreg()
{
    return impl->fc.freshVreg();
}

std::vector<unsigned>
Frontend::regionLoopDepths() const
{
    return impl->fc.regionLoopDepths();
}

bool
Frontend::spillableVreg(Vreg v) const
{
    return impl->fc.spillableVreg(v);
}

Frontend::SpillRewrite
Frontend::spillToFrame(const std::vector<Vreg> &victims)
{
    return impl->fc.spillToFrame(victims);
}

} // namespace trips::compiler
