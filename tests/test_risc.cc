/**
 * @file
 * RISC backend tests: compiled RISC code must reproduce the WIR
 * interpreter's results, including under register pressure (spills),
 * calls, and unrolling; counters must be self-consistent. Golden
 * digests pin the generated code byte for byte.
 */

#include <gtest/gtest.h>

#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "risc/core.hh"
#include "risc/wirtorisc.hh"
#include "support/rng.hh"
#include "wir/builder.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;
using wir::FunctionBuilder;
using wir::Module;

namespace {

void
checkRisc(Module &mod, const std::vector<std::string> &outs,
          const risc::RiscOptions &opts)
{
    MemImage ref_mem;
    wir::Interp::loadGlobals(mod, ref_mem);
    auto ref = wir::Interp{}.run(mod, ref_mem);
    ASSERT_FALSE(ref.fuelExhausted);

    auto prog = risc::compileToRisc(mod, opts);
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    risc::Core core(prog, mem);
    i64 rv = core.run();
    ASSERT_FALSE(core.fuelExhausted());

    EXPECT_EQ(rv, ref.retVal);
    for (const auto &g : outs) {
        const auto &gv = mod.global(g);
        for (u64 i = 0; i < gv.size; ++i) {
            ASSERT_EQ(mem.read8(gv.addr + i), ref_mem.read8(gv.addr + i))
                << "global " << g << " byte " << i;
        }
    }
}

void
checkBoth(Module &mod, const std::vector<std::string> &outs)
{
    {
        SCOPED_TRACE("gcc");
        checkRisc(mod, outs, risc::RiscOptions::gcc());
    }
    {
        SCOPED_TRACE("icc");
        checkRisc(mod, outs, risc::RiscOptions::icc());
    }
}

} // namespace

TEST(Risc, LoopWithMemory)
{
    Module mod;
    Addr arr = mod.addGlobal("arr", 128 * 8);
    FunctionBuilder fb(mod, "main", 0);
    auto base = fb.iconst(static_cast<i64>(arr));
    auto i = fb.iconst(0);
    fb.label("loop");
    fb.store(fb.add(base, fb.shli(i, 3)), fb.mul(i, i), 0);
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(128)), "loop", "done");
    fb.label("done");
    fb.ret(fb.load(base, 127 * 8));
    fb.finish();
    checkBoth(mod, {"arr"});
}

TEST(Risc, RegisterPressureSpills)
{
    // 30 simultaneously-live values exceed the 16 allocatable
    // registers and force spill code.
    Module mod;
    FunctionBuilder fb(mod, "main", 0);
    std::vector<wir::Vreg> vals;
    for (int k = 0; k < 30; ++k)
        vals.push_back(fb.muli(fb.iconst(k + 1), k + 3));
    auto acc = fb.iconst(0);
    for (int k = 0; k < 30; ++k)
        fb.assign(acc, fb.add(acc, fb.bxor(vals[k], vals[(k + 7) % 30])));
    fb.ret(acc);
    fb.finish();

    auto prog = risc::compileToRisc(mod, risc::RiscOptions::gcc());
    MemImage mem;
    risc::Core core(prog, mem);
    i64 rv = core.run();

    MemImage ref_mem;
    auto ref = wir::Interp{}.run(mod, ref_mem);
    EXPECT_EQ(rv, ref.retVal);
    // Spill traffic must show up as memory accesses.
    EXPECT_GT(core.counters().stores, 0u);
}

TEST(Risc, CallsAndRecursion)
{
    Module mod;
    {
        FunctionBuilder fb(mod, "fib", 1);
        auto n = fb.param(0);
        fb.br(fb.cmpLe(n, fb.iconst(1)), "base", "rec");
        fb.label("base");
        fb.ret(n);
        fb.label("rec");
        auto f1 = fb.call("fib", {fb.addi(n, -1)});
        auto f2 = fb.call("fib", {fb.addi(n, -2)});
        fb.ret(fb.add(f1, f2));
        fb.finish();
    }
    {
        FunctionBuilder fb(mod, "main", 0);
        fb.ret(fb.call("fib", {fb.iconst(15)}));
        fb.finish();
    }
    checkBoth(mod, {});
}

TEST(Risc, SelectDiamondFloat)
{
    Module mod;
    Addr out = mod.addGlobal("o", 8);
    FunctionBuilder fb(mod, "main", 0);
    auto x = fb.fconst(2.5);
    auto y = fb.fconst(7.25);
    auto m = fb.select(fb.fcmpLt(x, y), y, x);
    fb.store(fb.iconst(static_cast<i64>(out)), m, 0);
    fb.ret(fb.ftoi(fb.fmul(m, fb.fconst(4.0))));
    fb.finish();
    checkBoth(mod, {"o"});
}

TEST(Risc, CountersConsistent)
{
    Module mod;
    Addr arr = mod.addGlobal("a", 64 * 8);
    FunctionBuilder fb(mod, "main", 0);
    auto base = fb.iconst(static_cast<i64>(arr));
    auto i = fb.iconst(0);
    fb.label("loop");
    auto v = fb.load(fb.add(base, fb.shli(i, 3)), 0);
    fb.store(fb.add(base, fb.shli(i, 3)), fb.addi(v, 5), 0);
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(64)), "loop", "done");
    fb.label("done");
    fb.ret(i);
    fb.finish();

    auto prog = risc::compileToRisc(mod);
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    risc::Core core(prog, mem);
    core.run();
    const auto &c = core.counters();
    EXPECT_GE(c.loads, 64u);
    EXPECT_GE(c.stores, 64u);
    EXPECT_EQ(c.condBranches, 64u);
    EXPECT_EQ(c.takenCondBranches, 63u);
    EXPECT_GT(c.regReads, c.insts / 2);
    EXPECT_GT(c.regWrites, 0u);
}

TEST(Risc, UnrollingReducesBranches)
{
    auto build = [](Module &mod) {
        FunctionBuilder fb(mod, "main", 0);
        auto i = fb.iconst(0);
        auto acc = fb.iconst(0);
        fb.label("loop");
        fb.assign(acc, fb.add(acc, i));
        fb.assign(i, fb.addi(i, 1));
        fb.br(fb.cmpLt(i, fb.iconst(240)), "loop", "done");
        fb.label("done");
        fb.ret(acc);
        fb.finish();
    };
    Module m1, m2;
    build(m1);
    build(m2);
    auto pg = risc::compileToRisc(m1, risc::RiscOptions::gcc());
    auto pi = risc::compileToRisc(m2, risc::RiscOptions::icc());
    MemImage mem1, mem2;
    risc::Core c1(pg, mem1), c2(pi, mem2);
    i64 r1 = c1.run(), r2 = c2.run();
    EXPECT_EQ(r1, r2);
    // Generic unrolling clones the body (static growth) while
    // preserving per-iteration exit tests (no IV elimination).
    EXPECT_GT(pi.code.size(), pg.code.size());
    EXPECT_EQ(c1.counters().condBranches, c2.counters().condBranches);
}

// ---------------------------------------------------------------------
// Codegen golden digest. One FNV-1a digest over every field of every
// generated RInstr, the function entry table, the program entry and the
// Core's counters after a run, under both presets, for the registry
// workloads and a slice of generated programs. Any change to
// instruction selection, register allocation, spill code or layout
// moves it.
// ---------------------------------------------------------------------

namespace {

/** FNV-1a over little-endian fields and raw strings. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ull;

    void
    put(u64 v, int bytes = 8)
    {
        for (int i = 0; i < bytes; ++i)
            h = (h ^ static_cast<u8>(v >> (8 * i))) * 0x100000001b3ull;
    }

    void
    str(const std::string &s)
    {
        put(s.size());
        for (char c : s)
            put(static_cast<u8>(c), 1);
    }
};

void
digestRisc(Digest &d, const Module &mod, const risc::RiscOptions &opts)
{
    const risc::RProgram prog = risc::compileToRisc(mod, opts);
    d.put(prog.code.size());
    for (const risc::RInstr &in : prog.code) {
        d.put(static_cast<u8>(in.op), 1);
        d.put(in.rd, 1);
        d.put(in.ra, 1);
        d.put(in.rb, 1);
        d.put(in.rc, 1);
        d.put(static_cast<u32>(in.imm), 4);
        d.put(in.target, 4);
        d.put(in.width, 1);
        d.put(in.loadSigned, 1);
    }
    d.put(prog.entry, 4);
    for (const auto &[name, pc] : prog.functionEntry) {
        d.str(name);
        d.put(pc, 4);
    }

    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    risc::Core core(prog, mem);
    d.put(static_cast<u64>(core.run()));
    d.put(core.fuelExhausted(), 1);
    const risc::RiscCounters &c = core.counters();
    for (u64 v : {c.insts, c.loads, c.stores, c.regReads, c.regWrites,
                  c.condBranches, c.takenCondBranches, c.calls, c.returns,
                  c.intOps, c.fpOps, c.moves})
        d.put(v);
}

} // namespace

TEST(RiscGolden, RegistryWorkloads)
{
    Digest d;
    for (const auto &w : workloads::all()) {
        Module mod;
        w.build(mod);
        d.str(w.name);
        digestRisc(d, mod, risc::RiscOptions::gcc());
        digestRisc(d, mod, risc::RiscOptions::icc());
    }
    EXPECT_EQ(d.h, 0x43465abb05ecb19full);
}

TEST(RiscGolden, GeneratedPrograms)
{
    Digest d;
    for (u64 i = 0; i < 256; ++i) {
        Module mod = harness::generate(harness::taskSeed(0xc0de, i));
        digestRisc(d, mod, risc::RiscOptions::gcc());
        digestRisc(d, mod, risc::RiscOptions::icc());
    }
    EXPECT_EQ(d.h, 0xd27d641d701bfaf1ull);
}
