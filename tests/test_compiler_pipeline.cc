/**
 * @file
 * The TRIPS backend pass pipeline: per-pass CompileStats pinned on
 * golden workloads (the mov/null/test instruction mix behind the
 * paper's Fig. 5 composition breakdown), golden digests of the whole
 * compile output (code, placement, addresses, stats) on registry and
 * generated programs, the analytic block-limit check against trial
 * fanout, the TIL structural verifier against hand-broken graphs, and
 * the block-splitting pass on programs that exceed the prototype block
 * limits the seed backend fataled on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "compiler/pipeline.hh"
#include "compiler/spill.hh"
#include "compiler/til.hh"
#include "core/machines.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "isa/disasm.hh"
#include "wir/builder.hh"

using namespace trips;
using compiler::PassId;
using compiler::til::HBlock;
using compiler::til::HRead;
using compiler::til::HWrite;
using compiler::til::TNode;
using isa::Opcode;
using wir::FunctionBuilder;
using wir::Module;

namespace {

const compiler::PassCounters &
pass(const compiler::CompileStats &cs, PassId id)
{
    return cs.pass[static_cast<unsigned>(id)];
}

compiler::CompileStats
compileWorkload(const char *name, compiler::Options opts)
{
    wir::Module mod;
    workloads::find(name).build(mod);
    compiler::CompileStats cs;
    opts.verifyTil = true;
    compiler::compileToTrips(mod, opts, &cs);
    return cs;
}

// ---- small TIL graph builders for the verifier tests ----

/** A block with one read, one unpredicated BRO exit, and `n` nodes
 *  appended by the caller. */
HBlock
skeleton()
{
    HBlock hb;
    hb.label = "t.r0";
    HRead r;
    r.v = 100;
    hb.reads.push_back(r);
    return hb;
}

i32
addNode(HBlock &hb, Opcode op, std::vector<i32> in0 = {},
        std::vector<i32> in1 = {}, i32 pred = -1, bool pol = true)
{
    TNode n;
    n.op = op;
    n.in0.assign(in0.begin(), in0.end());
    n.in1.assign(in1.begin(), in1.end());
    n.predNode = pred;
    n.predPol = pol;
    hb.nodes.push_back(std::move(n));
    return static_cast<i32>(hb.nodes.size() - 1);
}

void
addExit(HBlock &hb)
{
    TNode br;
    br.op = Opcode::BRO;
    br.targetLabel = "t.r1";
    hb.nodes.push_back(std::move(br));
}

constexpr i32 READ0 = -1;

} // namespace

// ---------------------------------------------------------------------
// Per-pass CompileStats on golden workloads
// ---------------------------------------------------------------------

TEST(PassStats, VaddPinnedPerPassBreakdown)
{
    auto cs = compileWorkload("vadd", compiler::Options::compiled());
    // Final instruction mix (the Fig. 5-style composition for vadd).
    EXPECT_EQ(cs.regions, 3u);
    EXPECT_EQ(cs.blocks, 3u);
    EXPECT_EQ(cs.totalInsts, 94u);
    EXPECT_EQ(cs.movInsts, 40u);
    EXPECT_EQ(cs.nullInsts, 3u);
    EXPECT_EQ(cs.testInsts, 5u);
    // Per-pass: if-conversion produces the dataflow; fanout adds the
    // mov trees (the paper's mov overhead); nothing splits.
    EXPECT_EQ(pass(cs, PassId::IfConvert).tilNodes, 60u);
    EXPECT_EQ(pass(cs, PassId::IfConvert).movNodes, 6u);
    EXPECT_EQ(pass(cs, PassId::Split).addedNodes, 0u);
    EXPECT_EQ(pass(cs, PassId::Fanout).tilNodes, 94u);
    EXPECT_EQ(pass(cs, PassId::Fanout).addedNodes, 34u);
    // The spill pass observes but does not touch vadd: its counters
    // mirror fanout's and no spill activity is recorded.
    EXPECT_EQ(pass(cs, PassId::Spill).tilNodes, 94u);
    EXPECT_EQ(pass(cs, PassId::Spill).addedNodes, 0u);
    EXPECT_EQ(cs.spilledValues, 0u);
    EXPECT_EQ(cs.spillSlots, 0u);
    EXPECT_EQ(cs.spillLoads, 0u);
    EXPECT_EQ(cs.spillStores, 0u);
    EXPECT_EQ(cs.spillRounds, 0u);
    EXPECT_EQ(cs.splitBlocks, 0u);
    EXPECT_EQ(cs.overflowRetries, 0u);
}

TEST(PassStats, MesaPinnedPerPassBreakdown)
{
    // mesa is the predication-heavy proxy: more movs and NULLWs from
    // if-conversion itself, before fanout adds its trees.
    auto cs = compileWorkload("mesa", compiler::Options::compiled());
    EXPECT_EQ(cs.regions, 5u);
    EXPECT_EQ(cs.totalInsts, 111u);
    EXPECT_EQ(cs.movInsts, 52u);
    EXPECT_EQ(cs.nullInsts, 7u);
    EXPECT_EQ(cs.testInsts, 8u);
    EXPECT_EQ(pass(cs, PassId::IfConvert).tilNodes, 73u);
    EXPECT_EQ(pass(cs, PassId::IfConvert).movNodes, 14u);
    EXPECT_EQ(pass(cs, PassId::IfConvert).nullNodes, 7u);
    EXPECT_EQ(pass(cs, PassId::Fanout).addedNodes, 38u);
    EXPECT_EQ(pass(cs, PassId::Spill).tilNodes, 111u);
    EXPECT_EQ(pass(cs, PassId::Spill).addedNodes, 0u);
    EXPECT_EQ(cs.spilledValues, 0u);
    EXPECT_EQ(cs.spillRounds, 0u);
}

TEST(PassStats, StructuralInvariantsAcrossAllWorkloads)
{
    for (const auto &w : workloads::all()) {
        auto cs = compileWorkload(w.name.c_str(),
                                  compiler::Options::compiled());
        SCOPED_TRACE(w.name);
        // Region count is the region-form pass's block count; no
        // registered workload needs the splitting pass, so emitted
        // blocks == regions.
        EXPECT_EQ(pass(cs, PassId::RegionForm).tilBlocks, cs.regions);
        EXPECT_EQ(cs.blocks, cs.regions + cs.splitBlocks);
        EXPECT_EQ(cs.splitBlocks, 0u);
        // Fanout only ever adds MOV nodes.
        EXPECT_EQ(pass(cs, PassId::Fanout).addedNodes,
                  pass(cs, PassId::Fanout).movNodes -
                      pass(cs, PassId::Split).movNodes);
        EXPECT_EQ(pass(cs, PassId::Fanout).nullNodes,
                  pass(cs, PassId::Split).nullNodes);
        EXPECT_EQ(pass(cs, PassId::Fanout).testNodes,
                  pass(cs, PassId::Split).testNodes);
        // Regalloc and emission do not reshape the TIL.
        EXPECT_EQ(pass(cs, PassId::RegAlloc).tilNodes,
                  pass(cs, PassId::Fanout).tilNodes);
        EXPECT_EQ(pass(cs, PassId::Emit).tilNodes,
                  pass(cs, PassId::Fanout).tilNodes);
        // The emitted program is exactly the post-fanout TIL.
        EXPECT_EQ(cs.totalInsts, pass(cs, PassId::Emit).tilNodes);
        EXPECT_EQ(cs.movInsts, pass(cs, PassId::Emit).movNodes);
        // The paper's mov-fanout overhead: a substantial but bounded
        // slice of all instructions (Fig. 4/5's move category; the
        // small proxies sit above the paper's ~20% static share
        // because their blocks are short).
        double movFrac = static_cast<double>(cs.movInsts) /
                         static_cast<double>(cs.totalInsts);
        EXPECT_GT(movFrac, 0.05);
        EXPECT_LT(movFrac, 0.80);
    }
}

TEST(PassStats, AllPresetsCompileUnderTilVerification)
{
    // The verifier re-checks every block between every pass; any
    // operand-totality or coverage bug in the backend fatals here.
    for (const auto &w : workloads::all()) {
        compileWorkload(w.name.c_str(), compiler::Options::compiled());
        compileWorkload(w.name.c_str(), compiler::Options::hand());
        compileWorkload(w.name.c_str(), compiler::Options::basicBlock());
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Compile-output golden digest. One FNV-1a digest over everything the
// backend decides — disassembly, each block's ET placement and
// address, and every CompileStats field — for the registry workloads
// and slices of generated programs, including grown shapes (block
// splitting, region re-formation) and pinned-live shapes
// (spill-to-memory).
// A program that fails to compile contributes its error text. Any
// change to compiled code, placement or pass accounting moves it.
// ---------------------------------------------------------------------

namespace {

/** FNV-1a over little-endian fields and raw strings. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ull;

    void
    byte(u8 b)
    {
        h = (h ^ b) * 0x100000001b3ull;
    }

    void
    put(u64 v, int bytes = 8)
    {
        for (int i = 0; i < bytes; ++i)
            byte(static_cast<u8>(v >> (8 * i)));
    }

    void
    str(const std::string &s)
    {
        put(s.size());
        for (char c : s)
            byte(static_cast<u8>(c));
    }
};

void
digestCompile(Digest &d, const wir::Module &mod,
              const compiler::Options &opts)
{
    compiler::CompileStats cs;
    try {
        auto prog = compiler::compileToTrips(mod, opts, &cs);
        d.put(1, 1);
        d.str(isa::disasmProgram(prog));
        d.put(prog.numBlocks(), 4);
        for (u32 b = 0; b < prog.numBlocks(); ++b) {
            d.put(prog.blockAddr(b));
            for (u8 et : prog.block(b).placement)
                d.put(et, 1);
        }
    } catch (const std::exception &e) {
        d.put(0, 1);
        d.str(e.what());
        return;
    }
    for (u64 v : {u64{cs.functions}, u64{cs.regions}, u64{cs.blocks},
                  cs.totalInsts, cs.movInsts, cs.nullInsts, cs.testInsts,
                  u64{cs.splitBlocks}, cs.spillWrites, cs.spillReads,
                  u64{cs.overflowRetries}, u64{cs.spilledValues},
                  u64{cs.spillSlots}, cs.spillLoads, cs.spillStores,
                  u64{cs.spillRounds}})
        d.put(v);
    for (const auto &pc : cs.pass) {
        for (u64 v : {pc.tilBlocks, pc.tilNodes, pc.movNodes, pc.nullNodes,
                      pc.testNodes, pc.addedNodes})
            d.put(v);
    }
}

/** Digest `count` generated programs of one shape under both presets. */
u64
fuzzCompileDigest(u64 base, u64 count, const harness::ShapeConfig &shape)
{
    Digest d;
    for (u64 i = 0; i < count; ++i) {
        wir::Module mod = harness::generate(harness::taskSeed(base, i), shape);
        digestCompile(d, mod, compiler::Options::compiled());
        digestCompile(d, mod, compiler::Options::hand());
    }
    return d.h;
}

constexpr u64 COMPILE_GOLDEN_BASE = 0xc0de;

} // namespace

TEST(CompileGolden, RegistryWorkloads)
{
    Digest d;
    for (const auto &w : workloads::all()) {
        wir::Module mod;
        w.build(mod);
        d.str(w.name);
        digestCompile(d, mod, compiler::Options::compiled());
        digestCompile(d, mod, compiler::Options::hand());
    }
    EXPECT_EQ(d.h, 0xc836cc80f42d2167ull);
}

TEST(CompileGolden, GeneratedPrograms)
{
    EXPECT_EQ(fuzzCompileDigest(COMPILE_GOLDEN_BASE, 512,
                                harness::ShapeConfig{}),
              0xd9760fee53e4f6b5ull);
}

TEST(CompileGolden, GrownProgramsSplitAndRetry)
{
    // --grow 2: graphs past the block limits, so region re-formation
    // and the splitting pass both run.
    EXPECT_EQ(fuzzCompileDigest(COMPILE_GOLDEN_BASE + 1, 32,
                                harness::ShapeConfig{}.grown(2)),
              0x84e958ef58638256ull);
}

TEST(CompileGolden, PinnedLiveProgramsSpill)
{
    // --live 140: more cross-region values than registers, so every
    // program goes through the spill-to-memory fixed point.
    harness::ShapeConfig shape;
    shape.liveValues = 140;
    EXPECT_EQ(fuzzCompileDigest(COMPILE_GOLDEN_BASE + 2, 16, shape),
              0x435ccaabac6faa43ull);
}

namespace {

void
digestTil(Digest &d, const HBlock &hb)
{
    d.str(hb.label);
    d.put(hb.wirMembers.size(), 4);
    for (u32 b : hb.wirMembers)
        d.put(b, 4);
    d.put(hb.nodes.size(), 4);
    for (const TNode &n : hb.nodes) {
        d.put(static_cast<u64>(n.op), 2);
        d.put(static_cast<u64>(n.imm));
        d.put(static_cast<u64>(n.predNode), 4);
        d.put(n.predPol, 1);
        d.put(n.lsid, 2);
        d.str(n.targetLabel);
        d.str(n.returnLabel);
        for (const auto *in : {&n.in0, &n.in1}) {
            d.put(in->size(), 4);
            for (i32 p : *in)
                d.put(static_cast<u64>(p), 4);
        }
    }
    d.put(hb.reads.size(), 4);
    for (const HRead &r : hb.reads) {
        d.put(r.v, 4);
        d.put(static_cast<u64>(r.fixedReg), 4);
    }
    d.put(hb.writes.size(), 4);
    for (const HWrite &w : hb.writes) {
        d.put(w.v, 4);
        d.put(static_cast<u64>(w.fixedReg), 4);
        d.put(w.prods.size(), 4);
        for (i32 p : w.prods)
            d.put(static_cast<u64>(p), 4);
    }
}

/** If-conversion of every function of `count` generated programs under
 *  both presets, with the regions of a first formation (oversized ones
 *  included). */
void
digestIfConvert(Digest &d, u64 base, u64 count,
                const harness::ShapeConfig &shape)
{
    for (u64 i = 0; i < count; ++i) {
        wir::Module mod = harness::generate(harness::taskSeed(base, i), shape);
        for (const auto &opts : {compiler::Options::compiled(),
                                 compiler::Options::hand()}) {
            for (const auto &[fname, fn] : mod.functions) {
                compiler::Frontend fe(mod, fname, opts);
                fe.normalize();
                fe.formRegions();
                try {
                    for (const HBlock &hb : fe.ifConvert())
                        digestTil(d, hb);
                } catch (const std::exception &e) {
                    d.put(0xfe, 1);
                    d.str(e.what());
                }
            }
        }
    }
}

} // namespace

TEST(CompileGolden, IfConvertTil)
{
    // The if-conversion output itself, before splitting and fanout:
    // default shapes, grown shapes (LSID overflows), and many-function
    // shapes whose call continuations write their contexts directly.
    harness::ShapeConfig multi;
    multi.helperFuncs = 3;
    multi.topStmts = 120;
    multi.bodyStmts = 10;
    multi.maxDepth = 2;
    Digest d;
    digestIfConvert(d, COMPILE_GOLDEN_BASE, 128, harness::ShapeConfig{});
    digestIfConvert(d, COMPILE_GOLDEN_BASE + 1, 32,
                    harness::ShapeConfig{}.grown(2));
    digestIfConvert(d, COMPILE_GOLDEN_BASE + 3, 16, multi);
    EXPECT_EQ(d.h, 0xbb3290c77279ba68ull);
}

// ---------------------------------------------------------------------
// If-conversion: join merges
// ---------------------------------------------------------------------

TEST(IfConvert, JoinMovsAscendingVreg)
{
    // A diamond whose arms define three vregs in descending order; the
    // lowest (parameter 0) is defined on the then arm only. The join
    // merges in ascending vreg order, so its MOV pairs come out as
    // p0, mid, hi, and p0's else side reads its incoming register.
    Module mod;
    FunctionBuilder fb(mod, "main", 4);
    const wir::Vreg p0 = fb.param(0), p1 = fb.param(1),
                    p2 = fb.param(2), p3 = fb.param(3);
    const wir::Vreg mid = fb.fresh(), hi = fb.fresh();
    fb.br(fb.cmpLt(p3, fb.iconst(5)), "then", "else");
    fb.label("then");
    fb.assign(hi, p1);
    fb.assign(mid, p2);
    fb.assign(p0, p1);
    fb.jmp("join");
    fb.label("else");
    fb.assign(hi, p2);
    fb.assign(mid, p1);
    fb.jmp("join");
    fb.label("join");
    fb.ret(fb.add(fb.add(hi, mid), p0));
    fb.finish();
    ASSERT_EQ(wir::verifyModule(mod), "");

    compiler::Frontend fe(mod, "main", compiler::Options::compiled());
    fe.normalize();
    fe.formRegions();
    const std::vector<HBlock> hbs = fe.ifConvert();
    ASSERT_EQ(hbs.size(), 1u);
    const HBlock &hb = hbs[0];
    ASSERT_EQ(hb.wirMembers.size(), 4u);

    // (then-side source, else-side source) per join pair, as the
    // vregs of the register reads the MOVs forward.
    // A MOV that forwards anything else fails the test and yields
    // NO_VREG, without indexing past its operand list or the reads.
    auto readOf = [&](const TNode &n) {
        if (n.in0.size() != 1 || n.in0[0] >= 0 ||
            static_cast<size_t>(-1 - n.in0[0]) >= hb.reads.size()) {
            ADD_FAILURE() << "join MOV does not forward one register read";
            return wir::NO_VREG;
        }
        return hb.reads[static_cast<size_t>(-1 - n.in0[0])].v;
    };
    std::vector<std::pair<wir::Vreg, wir::Vreg>> pairs;
    for (size_t i = 0; i < hb.nodes.size(); ++i) {
        const TNode &n = hb.nodes[i];
        if (n.op != Opcode::MOV || n.predNode < 0)
            continue;
        ASSERT_LT(i + 1, hb.nodes.size());
        const TNode &m = hb.nodes[i + 1];
        ASSERT_EQ(m.op, Opcode::MOV);
        ASSERT_EQ(m.predNode, n.predNode);
        ASSERT_NE(m.predPol, n.predPol);
        const TNode &thenMov = n.predPol ? n : m;
        const TNode &elseMov = n.predPol ? m : n;
        pairs.emplace_back(readOf(thenMov), readOf(elseMov));
        ++i;
    }
    const std::vector<std::pair<wir::Vreg, wir::Vreg>> want = {
        {p1, p0},   // p0: then-arm def against its incoming register
        {p2, p1},   // mid
        {p1, p2},   // hi
    };
    EXPECT_EQ(pairs, want);
}

// ---------------------------------------------------------------------
// Region formation: an oversized region re-forms alone
// ---------------------------------------------------------------------

namespace {

/** WIR members (sorted) of each block in the last "TIL after
 *  if-convert" dump of `fname`, keyed by the region's root block. */
std::map<u32, std::vector<u32>>
finalRegions(const std::string &dump, const std::string &fname)
{
    const std::string head = "=== TIL after if-convert (" + fname + ")";
    const size_t at = dump.rfind(head);
    std::map<u32, std::vector<u32>> regions;
    if (at == std::string::npos)
        return regions;
    std::istringstream in(dump.substr(at));
    std::string line;
    std::getline(in, line);  // the header itself
    while (std::getline(in, line) && line.rfind("===", 0) != 0) {
        const size_t wir = line.find("(wir");
        if (line.rfind("til block ", 0) != 0 || wir == std::string::npos)
            continue;
        std::istringstream ms(line.substr(wir + 4));
        std::vector<u32> members;
        for (u32 b; ms >> b;)
            members.push_back(b);
        if (members.empty())
            continue;
        const u32 root = members.front();
        std::sort(members.begin(), members.end());
        regions[root] = members;
    }
    return regions;
}

} // namespace

TEST(RegionFormation, OverflowShrinksOnlyTheOffendingRegion)
{
    // Two diamonds, each a region of four WIR blocks on a first
    // formation. Diamond A holds cheap adds whose constants fold into
    // immediates, so it fits the block. Diamond B's arms chain selects
    // of 64-bit constants, each a GENS/APP chain: the region breaks
    // the 128-instruction limit. Only B may be re-formed smaller; a
    // global budget shrink would also take A apart, since A holds more
    // WIR ops than one shrink step leaves.
    Module mod;
    FunctionBuilder fb(mod, "main", 2);
    const wir::Vreg p0 = fb.param(0), p1 = fb.param(1);
    const wir::Vreg x = fb.fresh(), y = fb.fresh();
    auto addChain = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i)
            fb.assign(x, fb.addi(x, 3 + i));
    };
    fb.assign(x, p0);
    addChain(5);
    fb.br(fb.cmpLt(p1, fb.iconst(5)), "a_then", "a_else");
    fb.label("a_then");
    addChain(5);
    fb.jmp("a_join");
    fb.label("a_else");
    addChain(5);
    fb.jmp("a_join");
    fb.label("a_join");
    addChain(1);
    fb.jmp("b_root");

    fb.label("b_root");
    const wir::Vreg c = fb.cmpLt(p0, fb.iconst(7));
    fb.br(fb.cmpLt(p1, fb.iconst(9)), "b_then", "b_else");
    auto selectChain = [&](wir::Vreg v, i64 salt) {
        for (i64 i = 0; i < 10; ++i)
            v = fb.select(c, v,
                          fb.iconst(0x0123456789abcdefll + salt * 4096 + i));
        fb.assign(y, v);
    };
    fb.label("b_then");
    selectChain(p1, 1);
    fb.jmp("b_join");
    fb.label("b_else");
    selectChain(p0, 2);
    fb.jmp("b_join");
    fb.label("b_join");
    fb.ret(fb.add(x, y));
    const wir::Function &f = fb.finish();
    ASSERT_EQ(wir::verifyModule(mod), "");

    auto blockOf = [&](const char *name) {
        for (u32 b = 0; b < f.blocks.size(); ++b) {
            if (f.blocks[b].name == name)
                return b;
        }
        ADD_FAILURE() << "no block " << name;
        return 0u;
    };
    std::vector<u32> diamondA = {0, blockOf("a_then"), blockOf("a_else"),
                                 blockOf("a_join")};
    std::sort(diamondA.begin(), diamondA.end());
    const std::vector<u32> diamondB = {blockOf("b_root"),
                                       blockOf("b_then"),
                                       blockOf("b_else"),
                                       blockOf("b_join")};
    auto opsOf = [&](const std::vector<u32> &blocks) {
        size_t ops = 0;
        for (u32 b : blocks)
            ops += f.blocks[b].instrs.size();
        return ops;
    };
    const compiler::Options opts = compiler::Options::compiled();
    ASSERT_LE(opsOf(diamondA), opts.regionBudgetOps);
    ASSERT_LE(opsOf(diamondB), opts.regionBudgetOps);
    ASSERT_GT(opsOf(diamondA), opts.regionBudgetOps * 3 / 5);

    std::ostringstream dump;
    compiler::Options dumping = opts;
    dumping.tilDump = &dump;
    compiler::CompileStats cs;
    compiler::compileToTrips(mod, dumping, &cs);
    EXPECT_GE(cs.overflowRetries, 1u);

    const auto regions = finalRegions(dump.str(), "main");
    ASSERT_TRUE(regions.count(0));
    EXPECT_EQ(regions.at(0), diamondA);
    ASSERT_TRUE(regions.count(diamondB[0]));
    const std::vector<u32> &b = regions.at(diamondB[0]);
    EXPECT_GT(b.size(), 1u);
    EXPECT_LT(b.size(), diamondB.size());
}

// ---------------------------------------------------------------------
// Spill pass: no-op transparency, victim selection, forced spilling
// ---------------------------------------------------------------------

TEST(SpillPass, DisasmByteIdenticalWhenSpillingNeverTriggers)
{
    // Every pre-existing (non-BLAS) workload under all three presets:
    // the spill pass must record zero activity, and two independent
    // compiles must produce byte-identical disassembly — the pass is
    // invisible whenever pressure fits the register file.
    auto compileDisasm = [](const workloads::Workload &w,
                            compiler::Options opts,
                            compiler::CompileStats &cs) {
        wir::Module mod;
        w.build(mod);
        auto prog = compiler::compileToTrips(mod, opts, &cs);
        return isa::disasmProgram(prog);
    };
    for (const auto &w : workloads::all()) {
        if (w.suite == "blas")
            continue;  // the ladder's top rung spills by design
        for (auto opts : {compiler::Options::compiled(),
                          compiler::Options::hand(),
                          compiler::Options::basicBlock()}) {
            SCOPED_TRACE(w.name);
            compiler::CompileStats a, b;
            std::string d1 = compileDisasm(w, opts, a);
            std::string d2 = compileDisasm(w, opts, b);
            EXPECT_EQ(a.spilledValues, 0u);
            EXPECT_EQ(a.spillRounds, 0u);
            EXPECT_EQ(d1, d2);
        }
    }
}

TEST(SpillPass, RegisterTileMatmulSpillsAndStaysCorrect)
{
    // The BLAS ladder's 12x12 register-tiled matmul: 144 accumulators
    // live across the k-loop guarantee real spill activity, and the
    // spilled binary must still match the interpreter on both TRIPS
    // models.
    wir::Module mod;
    workloads::find("matmul_tiled_unroll").build(mod);
    i64 golden = core::runGolden(mod).retVal;

    auto opts = compiler::Options::compiled();
    opts.verifyTil = true;
    compiler::CompileStats cs;
    compiler::compileToTrips(mod, opts, &cs);
    EXPECT_GT(cs.spilledValues, 0u);
    EXPECT_GT(cs.spillSlots, 0u);
    EXPECT_GT(cs.spillLoads, 0u);
    EXPECT_GT(cs.spillStores, 0u);
    EXPECT_GE(cs.spillRounds, 1u);
    // Reloads are cached per block: never more loads than uses, and
    // one store per spilled definition site at minimum.
    EXPECT_GE(cs.spillStores, cs.spilledValues);

    auto run = core::runTrips(mod, opts, true);
    EXPECT_EQ(run.retVal, golden);
    EXPECT_EQ(run.uarch.retVal, golden);
}

namespace {

/** Two-block pressure graph: block 0 writes n values, block 1 reads
 *  them all — every value is live across the boundary. */
std::vector<HBlock>
pressureGraph(unsigned n)
{
    HBlock b0, b1;
    b0.label = "p.r0";
    b1.label = "p.r1";
    for (unsigned i = 0; i < n; ++i) {
        HWrite w;
        w.v = 100 + i;
        b0.writes.push_back(w);
        HRead r;
        r.v = 100 + i;
        b1.reads.push_back(r);
    }
    return {b0, b1};
}

} // namespace

TEST(SpillChooser, PicksJustEnoughVictimsToMeetBudget)
{
    auto hbs = pressureGraph(8);
    std::vector<std::vector<wir::Vreg>> live(2);
    std::vector<unsigned> depth(2, 0);
    auto plan = compiler::chooseSpills(
        hbs, live, depth, [](wir::Vreg) { return true; }, 5);
    EXPECT_TRUE(plan.feasible);
    EXPECT_EQ(plan.maxLive, 8u);
    EXPECT_EQ(plan.victims.size(), 3u);
    for (const auto &v : plan.victims) {
        EXPECT_EQ(v.lo, 0u);
        EXPECT_EQ(v.hi, 1u);
    }
}

TEST(SpillChooser, RespectsTheSpillablePredicate)
{
    // Only a subset of the live values may be sent to memory (the
    // pipeline excludes params and backend-invented vregs): victims
    // must come exclusively from the spillable set even when cheaper
    // candidates exist outside it.
    auto hbs = pressureGraph(6);
    std::vector<std::vector<wir::Vreg>> live(2);
    std::vector<unsigned> depth = {0, 0};
    auto plan = compiler::chooseSpills(
        hbs, live, depth,
        [](wir::Vreg v) { return v >= 103; },  // only the top 3 spillable
        4);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.victims.size(), 2u);
    for (const auto &v : plan.victims)
        EXPECT_GE(v.v, 103u);
}

TEST(SpillChooser, ReportsInfeasibleWhenNothingIsSpillable)
{
    // The true hard-cap path that remains after the spill pass: peak
    // pressure with no spillable candidate (e.g. all ABI-fixed or
    // backend-invented values). The plan must come back infeasible
    // with a diagnosable detail string, which the pipeline turns into
    // the structured resource-exhausted CompileError.
    auto hbs = pressureGraph(8);
    std::vector<std::vector<wir::Vreg>> live(2);
    std::vector<unsigned> depth(2, 0);
    auto plan = compiler::chooseSpills(
        hbs, live, depth, [](wir::Vreg) { return false; }, 5);
    EXPECT_FALSE(plan.feasible);
    EXPECT_EQ(plan.maxLive, 8u);
    EXPECT_NE(plan.detail.find("no spillable candidate"),
              std::string::npos)
        << plan.detail;
    EXPECT_NE(plan.detail.find("8 live values"), std::string::npos)
        << plan.detail;
}

// ---------------------------------------------------------------------
// TIL verifier: positive case and hand-broken graphs
// ---------------------------------------------------------------------

TEST(TilVerify, WellFormedDiamondPasses)
{
    HBlock hb = skeleton();
    i32 t = addNode(hb, Opcode::TNEI, {READ0});
    i32 m1 = addNode(hb, Opcode::MOV, {READ0}, {}, t, true);
    i32 m2 = addNode(hb, Opcode::MOV, {READ0}, {}, t, false);
    HWrite w;
    w.v = 101;
    w.prods = {m1, m2};
    hb.writes.push_back(w);
    addExit(hb);
    EXPECT_EQ(compiler::til::verify(hb), "");
}

TEST(TilVerify, MissingOperandProducer)
{
    HBlock hb = skeleton();
    addNode(hb, Opcode::ADD, {READ0}, {});  // operand 1 unfed
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("has no producer"), std::string::npos) << err;
}

TEST(TilVerify, DoubleDeliveryToWrite)
{
    HBlock hb = skeleton();
    i32 m1 = addNode(hb, Opcode::MOV, {READ0});
    i32 m2 = addNode(hb, Opcode::MOV, {READ0});
    HWrite w;
    w.v = 101;
    w.prods = {m1, m2};  // both unpredicated: two tokens on every path
    hb.writes.push_back(w);
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("received two tokens"), std::string::npos) << err;
}

TEST(TilVerify, NullwComplementCoverageHole)
{
    // The write is fed only on the taken polarity; the complement path
    // starves it — exactly the class of bug the differential fuzzer
    // caught as blocks hanging at commit.
    HBlock hb = skeleton();
    i32 t = addNode(hb, Opcode::TNEI, {READ0});
    i32 m1 = addNode(hb, Opcode::MOV, {READ0}, {}, t, true);
    HWrite w;
    w.v = 101;
    w.prods = {m1};
    hb.writes.push_back(w);
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("coverage hole"), std::string::npos) << err;
}

TEST(TilVerify, PredicateRootedAtNonTest)
{
    HBlock hb = skeleton();
    i32 a = addNode(hb, Opcode::ADDI, {READ0});
    addNode(hb, Opcode::MOV, {READ0}, {}, a, true);
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("non-test"), std::string::npos) << err;
}

TEST(TilVerify, PredicatedStoreRejected)
{
    // Stores must settle on every path (store mask); gating belongs on
    // the operands via the NULLW idiom, never on the store itself.
    HBlock hb = skeleton();
    i32 t = addNode(hb, Opcode::TNEI, {READ0});
    addNode(hb, Opcode::SD, {READ0}, {READ0}, t, true);
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("predicated"), std::string::npos) << err;
}

TEST(TilVerify, DataflowCycle)
{
    HBlock hb = skeleton();
    i32 m1 = addNode(hb, Opcode::MOV, {READ0});
    i32 m2 = addNode(hb, Opcode::MOV, {m1});
    hb.nodes[m1].in0 = {m2};  // m1 <-> m2
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST(TilVerify, DuplicateLsid)
{
    HBlock hb = skeleton();
    i32 s1 = addNode(hb, Opcode::SD, {READ0}, {READ0});
    i32 s2 = addNode(hb, Opcode::SD, {READ0}, {READ0});
    hb.nodes[s1].lsid = 0;
    hb.nodes[s2].lsid = 0;
    addExit(hb);
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("duplicate LSID"), std::string::npos) << err;
}

TEST(TilVerify, TwoExitsFireOnOnePath)
{
    HBlock hb = skeleton();
    addExit(hb);
    addExit(hb);  // two unpredicated exits: both fire on every path
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("exits fired"), std::string::npos) << err;
}

TEST(TilVerify, NoExitRejected)
{
    HBlock hb = skeleton();
    addNode(hb, Opcode::MOV, {READ0});
    auto err = compiler::til::verify(hb);
    EXPECT_NE(err.find("no block exit"), std::string::npos) << err;
}

TEST(TilVerify, SizeLimitsEnforcedWhenRequested)
{
    HBlock hb = skeleton();
    i32 prev = READ0;
    for (int i = 0; i < 200; ++i)
        prev = addNode(hb, Opcode::ADDI, {prev});
    addExit(hb);
    EXPECT_EQ(compiler::til::verify(hb), "");  // no limits pre-split
    compiler::til::VerifyOptions vo;
    vo.sizeLimits = true;
    auto err = compiler::til::verify(hb, vo);
    EXPECT_NE(err.find("exceed"), std::string::npos) << err;
}

TEST(TilDump, NamesNodesReadsWritesAndTargets)
{
    HBlock hb = skeleton();
    i32 t = addNode(hb, Opcode::TNEI, {READ0});
    i32 m1 = addNode(hb, Opcode::MOV, {READ0}, {}, t, true);
    HWrite w;
    w.v = 101;
    w.prods = {m1};
    hb.writes.push_back(w);
    addExit(hb);
    std::string d = compiler::til::dump(hb);
    EXPECT_NE(d.find("til block t.r0"), std::string::npos);
    EXPECT_NE(d.find("tnei"), std::string::npos);
    EXPECT_NE(d.find("p=+n0"), std::string::npos);
    EXPECT_NE(d.find("-> t.r1"), std::string::npos);
    EXPECT_NE(d.find("write w0: v101"), std::string::npos);
}

// ---------------------------------------------------------------------
// Block-limit check: the analytic post-fanout instruction count must
// agree with actually running fanout on a copy of the block.
// ---------------------------------------------------------------------

namespace {

/** Post-fanout node count, by running the fanout pass on a copy. */
size_t
trialFanoutNodes(const HBlock &hb)
{
    HBlock trial = hb;
    compiler::fanoutPass(trial);
    return trial.nodes.size();
}

/** checkBlockLimits reports "instructions: N" exactly when fanout
 *  yields N > MAX_INSTS nodes. Returns whether the block overflowed. */
bool
expectInstructionCountAgrees(const HBlock &hb)
{
    const size_t nodes = trialFanoutNodes(hb);
    const std::string got = compiler::checkBlockLimits(hb);
    if (nodes > isa::MAX_INSTS) {
        EXPECT_EQ(got, "instructions: " + std::to_string(nodes));
        return true;
    }
    EXPECT_EQ(got.rfind("instructions", 0), std::string::npos) << got;
    return false;
}

} // namespace

TEST(BlockLimits, AnalyticCountMatchesTrialFanoutOnGeneratedTil)
{
    // Every pre-fanout TIL block if-conversion produces, oversized
    // regions included, over default and grown generated programs.
    unsigned blocks = 0, overflows = 0;
    auto check = [&](u64 base, unsigned count,
                     const harness::ShapeConfig &shape) {
        for (unsigned i = 0; i < count; ++i) {
            wir::Module mod =
                harness::generate(harness::taskSeed(base, i), shape);
            for (const auto &opts : {compiler::Options::compiled(),
                                     compiler::Options::hand()}) {
                for (const auto &[fname, fn] : mod.functions) {
                    compiler::Frontend fe(mod, fname, opts);
                    fe.normalize();
                    fe.formRegions();
                    for (const HBlock &hb : fe.ifConvert()) {
                        SCOPED_TRACE(hb.label);
                        ++blocks;
                        overflows += expectInstructionCountAgrees(hb);
                    }
                }
            }
        }
    };
    check(0xfa0, 200, harness::ShapeConfig{});
    check(0xfa1, 40, harness::ShapeConfig{}.grown(2));
    EXPECT_GT(blocks, 10000u);
    EXPECT_GT(overflows, 200u);
}

TEST(BlockLimits, AnalyticCountMatchesTrialFanoutAtTheLimit)
{
    // One producer of capacity 1 (ADDI) or 2 (NOT) feeding k consumers,
    // padded with unconsumed GENS nodes so the post-fanout block lands
    // on MAX_INSTS - 1, MAX_INSTS and MAX_INSTS + 1.
    for (Opcode prodOp : {Opcode::ADDI, Opcode::NOT}) {
        for (unsigned k = 1; k <= 40; ++k) {
            auto build = [&](size_t pad) {
                HBlock hb = skeleton();
                i32 p = addNode(hb, prodOp, {READ0});
                for (unsigned c = 0; c < k; ++c)
                    addNode(hb, Opcode::ADDI, {p});
                for (size_t f = 0; f < pad; ++f)
                    addNode(hb, Opcode::GENS);
                addExit(hb);
                return hb;
            };
            const size_t base = trialFanoutNodes(build(0));
            for (size_t want :
                 {isa::MAX_INSTS - 1, isa::MAX_INSTS, isa::MAX_INSTS + 1}) {
                SCOPED_TRACE(std::string(isa::opName(prodOp)) + " k=" +
                             std::to_string(k) + " size " +
                             std::to_string(want));
                HBlock hb = build(want - base);
                ASSERT_EQ(trialFanoutNodes(hb), want);
                EXPECT_EQ(expectInstructionCountAgrees(hb),
                          want > isa::MAX_INSTS);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Block splitting
// ---------------------------------------------------------------------

TEST(BlockSplitting, LongChainSplitsIntoVerifiedChunks)
{
    HBlock hb = skeleton();
    i32 prev = READ0;
    for (int i = 0; i < 300; ++i)
        prev = addNode(hb, Opcode::ADDI, {prev});
    HWrite w;
    w.v = 101;
    w.prods = {prev};
    hb.writes.push_back(w);
    addExit(hb);
    hb.wirMembers = {0};

    wir::Vreg next = 200;
    compiler::CompileStats cs;
    auto chunks = compiler::splitPass(std::move(hb), "t",
                                      [&] { return next++; }, &cs);
    ASSERT_GT(chunks.size(), 2u);
    EXPECT_EQ(cs.splitBlocks, static_cast<unsigned>(chunks.size() - 1));
    EXPECT_GT(cs.spillWrites, 0u);

    compiler::til::VerifyOptions vo;
    vo.sizeLimits = true;
    for (size_t i = 0; i < chunks.size(); ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        EXPECT_EQ(compiler::til::verify(chunks[i], vo), "");
        EXPECT_EQ(compiler::checkBlockLimits(chunks[i]), "");
        // Chain labels and BRO links.
        std::string want = i == 0 ? "t.r0"
                                  : "t.r0.s" + std::to_string(i);
        EXPECT_EQ(chunks[i].label, want);
        if (i + 1 < chunks.size()) {
            const TNode &br = chunks[i].nodes.back();
            EXPECT_EQ(br.op, Opcode::BRO);
            EXPECT_EQ(br.targetLabel, chunks[i + 1].label);
        }
    }
    // The original exit survives in the final chunk.
    EXPECT_EQ(chunks.back().nodes.back().targetLabel, "t.r1");
}

TEST(BlockSplitting, FittingBlockReturnedUnchanged)
{
    HBlock hb = skeleton();
    i32 a = addNode(hb, Opcode::ADDI, {READ0});
    HWrite w;
    w.v = 101;
    w.prods = {a};
    hb.writes.push_back(w);
    addExit(hb);
    wir::Vreg next = 200;
    compiler::CompileStats cs;
    auto chunks = compiler::splitPass(std::move(hb), "t",
                                      [&] { return next++; }, &cs);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(cs.splitBlocks, 0u);
    EXPECT_EQ(chunks[0].nodes.size(), 2u);
}

TEST(BlockSplitting, ManyValuesLiveAcrossCallPreviouslyFatal)
{
    // Forty values live across a call: the caller-save spill region
    // needs 40 stores and the continuation reload region 40 loads plus
    // 40 reads — far past the 32-LSID / 32-read block limits the seed
    // backend fataled on ("single WIR block overflows a TRIPS block").
    // The frame is also wider than the 9-bit load/store displacement.
    Module mod;
    {
        FunctionBuilder fb(mod, "inc", 1);
        fb.ret(fb.addi(fb.param(0), 1));
        fb.finish();
    }
    {
        FunctionBuilder fb(mod, "main", 0);
        std::vector<wir::Vreg> vals;
        auto x = fb.iconst(3);
        for (int i = 0; i < 40; ++i) {
            x = fb.add(x, fb.muli(x, i % 7 + 1));
            vals.push_back(x);
        }
        auto acc = fb.call("inc", {vals[0]});
        for (auto v : vals)
            acc = fb.bxor(fb.add(acc, v), fb.shli(acc, 1));
        fb.ret(acc);
        fb.finish();
    }
    ASSERT_EQ(wir::verifyModule(mod), "");

    i64 golden = core::runGolden(mod).retVal;
    auto opts = compiler::Options::compiled();
    opts.verifyTil = true;
    compiler::CompileStats cs;
    compiler::compileToTrips(mod, opts, &cs);
    EXPECT_GT(cs.splitBlocks, 0u);
    EXPECT_GT(cs.spillWrites, 0u);

    auto run = core::runTrips(mod, opts, true);
    EXPECT_EQ(run.retVal, golden);
    EXPECT_EQ(run.uarch.retVal, golden);
    auto hand = core::runTrips(mod, compiler::Options::hand(), false);
    EXPECT_EQ(hand.retVal, golden);
}

TEST(BlockSplitting, DumpAndStatsDebugModesRun)
{
    // The --dump-til / verify-between-passes debug modes on a split
    // compile: the dump must name every pass and the split chunks.
    Module mod;
    FunctionBuilder fb(mod, "main", 0);
    auto x = fb.iconst(1);
    for (int i = 0; i < 120; ++i)
        x = fb.add(x, fb.select(fb.cmpLt(x, fb.iconst(i)), x,
                                fb.iconst(i)));
    fb.ret(x);
    fb.finish();

    std::ostringstream dump;
    auto opts = compiler::Options::compiled();
    opts.verifyTil = true;
    opts.tilDump = &dump;
    compiler::CompileStats cs;
    compiler::compileToTrips(mod, opts, &cs);
    EXPECT_NE(dump.str().find("=== TIL after if-convert"),
              std::string::npos);
    EXPECT_NE(dump.str().find("=== TIL after split"), std::string::npos);
    EXPECT_NE(dump.str().find("=== TIL after fanout"), std::string::npos);
}
