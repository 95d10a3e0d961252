/**
 * @file
 * Streaming BLAS kernel ladder: AXPY, DOT, GEMV and MATMUL in naive /
 * tiled / unrolled variants. The ladder exists to exercise the
 * register-pressure spectrum end to end:
 *
 *  - the naive variants are classic streaming loops (few live values,
 *    no spilling, memory-bandwidth shaped);
 *  - the unrolled/tiled variants hold small accumulator sets in
 *    registers (more ILP per block, still under the 116 allocatable
 *    registers);
 *  - matmul_tiled_unroll holds a full 12x12 accumulator tile — 144
 *    values live across the k-loop, far past the register file — and
 *    only compiles because the backend's spill-to-memory pass routes
 *    the overflow through stack frame slots. It was a guaranteed
 *    resource-exhausted CompileError before that pass existed.
 *
 * Like every Table 2 workload, each variant is a WIR builder consumed
 * identically by all execution models, and final memory images are
 * byte-compared against the interpreter by tests/test_workloads.cc.
 */

#include "wir/builder.hh"
#include "workloads/util.hh"
#include "workloads/workload.hh"

namespace trips::workloads {

using wir::FunctionBuilder;
using wir::Module;
using wir::Vreg;

namespace {

constexpr size_t AXPY_N = 4096;
constexpr size_t DOT_N = 4096;
constexpr size_t GEMV_N = 48;  ///< A is GEMV_N x GEMV_N
constexpr size_t MM_N = 24;    ///< matmul ladder dimension
constexpr size_t MM_T = 4;     ///< register tile edge, matmul_tiled
constexpr size_t MM_RT = 12;   ///< register tile edge, matmul_tiled_unroll

/**
 * Force a WIR block boundary (jmp to an immediately following fresh
 * label). The block splitter carves oversized regions at WIR block
 * granularity, so long unrolled runs are emitted in bounded chunks —
 * one giant straight-line block could exceed the 128-instruction
 * hyperblock format in a way no pass can repair.
 */
void
cut(FunctionBuilder &fb, const std::string &l)
{
    fb.jmp(l);
    fb.label(l);
}

// ---- AXPY: y[i] = a*x[i] + y[i] -------------------------------------

void
buildAxpy(Module &m)
{
    Rng rng(55);
    Addr x = globalF64(m, "x", AXPY_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalF64(m, "y", AXPY_N,
                       [&](size_t) { return rng.uniform() - 0.5; });

    FunctionBuilder fb(m, "main", 0);
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    auto a = fb.fconst(1.25);
    auto i = fb.iconst(0);
    fb.label("loop");
    auto off = fb.shli(i, 3);
    fb.store(fb.add(py, off),
             fb.fadd(fb.fmul(a, fb.load(fb.add(px, off), 0)),
                     fb.load(fb.add(py, off), 0)),
             0);
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(AXPY_N)), "loop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(py, (AXPY_N - 1) * 8),
                           fb.fconst(1000.0))));
    fb.finish();
}

void
buildAxpyUnroll(Module &m)
{
    // Same computation, unrolled 4x with displacement addressing: one
    // address computation feeds four load/store pairs per iteration.
    Rng rng(55);
    Addr x = globalF64(m, "x", AXPY_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalF64(m, "y", AXPY_N,
                       [&](size_t) { return rng.uniform() - 0.5; });

    FunctionBuilder fb(m, "main", 0);
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    auto a = fb.fconst(1.25);
    auto i = fb.iconst(0);
    fb.label("loop");
    auto off = fb.shli(i, 3);
    auto bx = fb.add(px, off);
    auto by = fb.add(py, off);
    for (unsigned u = 0; u < 4; ++u) {
        fb.store(by,
                 fb.fadd(fb.fmul(a, fb.load(bx, u * 8)),
                         fb.load(by, u * 8)),
                 u * 8);
    }
    fb.assign(i, fb.addi(i, 4));
    fb.br(fb.cmpLt(i, fb.iconst(AXPY_N)), "loop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(py, (AXPY_N - 1) * 8),
                           fb.fconst(1000.0))));
    fb.finish();
}

// ---- DOT: acc = sum x[i]*y[i] ---------------------------------------

void
buildDot(Module &m)
{
    Rng rng(56);
    Addr x = globalF64(m, "x", DOT_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalF64(m, "y", DOT_N,
                       [&](size_t) { return rng.uniform() - 0.5; });

    FunctionBuilder fb(m, "main", 0);
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    auto acc = fb.fconst(0.0);
    auto i = fb.iconst(0);
    fb.label("loop");
    auto off = fb.shli(i, 3);
    fb.assign(acc, fb.fadd(acc, fb.fmul(fb.load(fb.add(px, off), 0),
                                        fb.load(fb.add(py, off), 0))));
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, fb.iconst(DOT_N)), "loop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(acc, fb.fconst(100.0))));
    fb.finish();
}

void
buildDotUnroll(Module &m)
{
    // Four independent accumulators break the loop-carried FADD chain;
    // the combine order (a0+a1)+(a2+a3) is part of the program, so
    // every model reproduces the same rounding.
    Rng rng(56);
    Addr x = globalF64(m, "x", DOT_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalF64(m, "y", DOT_N,
                       [&](size_t) { return rng.uniform() - 0.5; });

    FunctionBuilder fb(m, "main", 0);
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    std::vector<Vreg> acc;
    for (unsigned u = 0; u < 4; ++u)
        acc.push_back(fb.fconst(0.0));
    auto i = fb.iconst(0);
    fb.label("loop");
    auto off = fb.shli(i, 3);
    auto bx = fb.add(px, off);
    auto by = fb.add(py, off);
    for (unsigned u = 0; u < 4; ++u) {
        fb.assign(acc[u], fb.fadd(acc[u], fb.fmul(fb.load(bx, u * 8),
                                                  fb.load(by, u * 8))));
    }
    fb.assign(i, fb.addi(i, 4));
    fb.br(fb.cmpLt(i, fb.iconst(DOT_N)), "loop", "done");
    fb.label("done");
    auto sum = fb.fadd(fb.fadd(acc[0], acc[1]), fb.fadd(acc[2], acc[3]));
    fb.ret(fb.ftoi(fb.fmul(sum, fb.fconst(100.0))));
    fb.finish();
}

// ---- GEMV: y = A x --------------------------------------------------

void
buildGemv(Module &m)
{
    Rng rng(57);
    Addr a = globalF64(m, "a", GEMV_N * GEMV_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr x = globalF64(m, "x", GEMV_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalZero(m, "y", GEMV_N * 8);

    FunctionBuilder fb(m, "main", 0);
    auto pa = fb.iconst(static_cast<i64>(a));
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    auto n = fb.iconst(GEMV_N);
    auto i = fb.iconst(0);
    fb.label("iloop");
    auto acc = fb.fconst(0.0);
    auto j = fb.iconst(0);
    fb.label("jloop");
    auto av = fb.load(fb.add(pa, fb.shli(fb.add(fb.mul(i, n), j), 3)), 0);
    auto xv = fb.load(fb.add(px, fb.shli(j, 3)), 0);
    fb.assign(acc, fb.fadd(acc, fb.fmul(av, xv)));
    fb.assign(j, fb.addi(j, 1));
    fb.br(fb.cmpLt(j, n), "jloop", "jdone");
    fb.label("jdone");
    fb.store(fb.add(py, fb.shli(i, 3)), acc, 0);
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, n), "iloop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(py, 8 * 17), fb.fconst(1000.0))));
    fb.finish();
}

void
buildGemvTiled(Module &m)
{
    // Four rows per sweep of x: each x[j] load is amortized over four
    // multiply-accumulates, with hoisted row base addresses.
    Rng rng(57);
    Addr a = globalF64(m, "a", GEMV_N * GEMV_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr x = globalF64(m, "x", GEMV_N,
                       [&](size_t) { return rng.uniform() - 0.5; });
    Addr y = globalZero(m, "y", GEMV_N * 8);

    FunctionBuilder fb(m, "main", 0);
    auto pa = fb.iconst(static_cast<i64>(a));
    auto px = fb.iconst(static_cast<i64>(x));
    auto py = fb.iconst(static_cast<i64>(y));
    auto n = fb.iconst(GEMV_N);
    auto i = fb.iconst(0);
    fb.label("iloop");
    std::vector<Vreg> row, acc;
    for (unsigned u = 0; u < 4; ++u) {
        row.push_back(fb.add(
            pa, fb.shli(fb.mul(fb.add(i, fb.iconst(u)), n), 3)));
        acc.push_back(fb.fconst(0.0));
    }
    auto j = fb.iconst(0);
    fb.label("jloop");
    auto off = fb.shli(j, 3);
    auto xv = fb.load(fb.add(px, off), 0);
    for (unsigned u = 0; u < 4; ++u) {
        fb.assign(acc[u],
                  fb.fadd(acc[u],
                          fb.fmul(fb.load(fb.add(row[u], off), 0), xv)));
    }
    fb.assign(j, fb.addi(j, 1));
    fb.br(fb.cmpLt(j, n), "jloop", "jdone");
    fb.label("jdone");
    auto oy = fb.add(py, fb.shli(i, 3));
    for (unsigned u = 0; u < 4; ++u)
        fb.store(oy, acc[u], u * 8);
    fb.assign(i, fb.addi(i, 4));
    fb.br(fb.cmpLt(i, n), "iloop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(py, 8 * 17), fb.fconst(1000.0))));
    fb.finish();
}

// ---- MATMUL: C = A B ------------------------------------------------

/** Shared input setup so every matmul variant computes the same C. */
void
matmulData(Module &m, Addr &a, Addr &b, Addr &c)
{
    Rng rng(58);
    a = globalF64(m, "a", MM_N * MM_N,
                  [&](size_t) { return rng.uniform() - 0.5; });
    b = globalF64(m, "b", MM_N * MM_N,
                  [&](size_t) { return rng.uniform() - 0.5; });
    c = globalZero(m, "c", MM_N * MM_N * 8);
}

void
buildMatmul(Module &m)
{
    Addr a, b, c;
    matmulData(m, a, b, c);

    FunctionBuilder fb(m, "main", 0);
    auto pa = fb.iconst(static_cast<i64>(a));
    auto pb = fb.iconst(static_cast<i64>(b));
    auto pc = fb.iconst(static_cast<i64>(c));
    auto n = fb.iconst(MM_N);
    auto i = fb.iconst(0);
    fb.label("iloop");
    auto j = fb.iconst(0);
    fb.label("jloop");
    auto acc = fb.fconst(0.0);
    auto k = fb.iconst(0);
    fb.label("kloop");
    auto av = fb.load(fb.add(pa, fb.shli(fb.add(fb.mul(i, n), k), 3)), 0);
    auto bv = fb.load(fb.add(pb, fb.shli(fb.add(fb.mul(k, n), j), 3)), 0);
    fb.assign(acc, fb.fadd(acc, fb.fmul(av, bv)));
    fb.assign(k, fb.addi(k, 1));
    fb.br(fb.cmpLt(k, n), "kloop", "kdone");
    fb.label("kdone");
    fb.store(fb.add(pc, fb.shli(fb.add(fb.mul(i, n), j), 3)), acc, 0);
    fb.assign(j, fb.addi(j, 1));
    fb.br(fb.cmpLt(j, n), "jloop", "jdone");
    fb.label("jdone");
    fb.assign(i, fb.addi(i, 1));
    fb.br(fb.cmpLt(i, n), "iloop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(pc, 8 * (13 * MM_N + 17)),
                           fb.fconst(1000.0))));
    fb.finish();
}

void
buildMatmulTiled(Module &m)
{
    // 4x4 register accumulator tile: 8 loads feed 16 multiply-adds per
    // k step (vs 2 loads per multiply-add in the naive variant). The
    // ~25 live values fit the register file, so this variant never
    // spills — the cycle win over `matmul` is pure operand reuse, and
    // CI asserts it.
    Addr a, b, c;
    matmulData(m, a, b, c);

    FunctionBuilder fb(m, "main", 0);
    auto pa = fb.iconst(static_cast<i64>(a));
    auto pb = fb.iconst(static_cast<i64>(b));
    auto pc = fb.iconst(static_cast<i64>(c));
    auto n = fb.iconst(MM_N);
    auto i0 = fb.iconst(0);
    fb.label("iloop");
    auto j0 = fb.iconst(0);
    fb.label("jloop");
    std::vector<Vreg> acc;
    for (unsigned t = 0; t < MM_T * MM_T; ++t)
        acc.push_back(fb.fconst(0.0));
    auto k = fb.iconst(0);
    fb.label("kloop");
    auto bb = fb.add(pb, fb.shli(fb.add(fb.mul(k, n), j0), 3));
    std::vector<Vreg> bv;
    for (unsigned u = 0; u < MM_T; ++u)
        bv.push_back(fb.load(bb, u * 8));
    for (unsigned t = 0; t < MM_T; ++t) {
        auto av = fb.load(
            fb.add(pa,
                   fb.shli(fb.add(fb.mul(fb.add(i0, fb.iconst(t)), n), k),
                           3)),
            0);
        for (unsigned u = 0; u < MM_T; ++u) {
            fb.assign(acc[t * MM_T + u],
                      fb.fadd(acc[t * MM_T + u], fb.fmul(av, bv[u])));
        }
    }
    fb.assign(k, fb.addi(k, 1));
    fb.br(fb.cmpLt(k, n), "kloop", "kdone");
    fb.label("kdone");
    for (unsigned t = 0; t < MM_T; ++t) {
        auto oc = fb.add(
            pc,
            fb.shli(fb.add(fb.mul(fb.add(i0, fb.iconst(t)), n), j0), 3));
        for (unsigned u = 0; u < MM_T; ++u)
            fb.store(oc, acc[t * MM_T + u], u * 8);
    }
    fb.assign(j0, fb.addi(j0, MM_T));
    fb.br(fb.cmpLt(j0, n), "jloop", "jdone");
    fb.label("jdone");
    fb.assign(i0, fb.addi(i0, MM_T));
    fb.br(fb.cmpLt(i0, n), "iloop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(pc, 8 * (13 * MM_N + 17)),
                           fb.fconst(1000.0))));
    fb.finish();
}

void
buildMatmulTiledUnroll(Module &m)
{
    // 12x12 register accumulator tile: 144 values live across the
    // whole k-loop, plus pointers and induction variables — far past
    // the 116 allocatable registers. This is the ladder's spill-pass
    // showcase: it cannot compile without spill-to-memory, and
    // tests/test_compiler_pipeline.cc pins that its CompileStats show
    // real spill activity.
    Addr a, b, c;
    matmulData(m, a, b, c);

    FunctionBuilder fb(m, "main", 0);
    auto pa = fb.iconst(static_cast<i64>(a));
    auto pb = fb.iconst(static_cast<i64>(b));
    auto pc = fb.iconst(static_cast<i64>(c));
    auto n = fb.iconst(MM_N);
    auto i0 = fb.iconst(0);
    fb.label("iloop");
    auto j0 = fb.iconst(0);
    fb.label("jloop");
    std::vector<Vreg> acc;
    for (unsigned t = 0; t < MM_RT * MM_RT; ++t) {
        if (t && t % 24 == 0) {
            // Appended rather than `"z" + to_string(...)`: GCC 12 at -O3
            // reports a false -Wrestrict on that form (GCC PR105329).
            std::string label = "z";
            label += std::to_string(t / 24);
            cut(fb, label);
        }
        acc.push_back(fb.fconst(0.0));
    }
    auto k = fb.iconst(0);
    fb.label("kloop");
    auto bb = fb.add(pb, fb.shli(fb.add(fb.mul(k, n), j0), 3));
    std::vector<Vreg> bv;
    for (unsigned u = 0; u < MM_RT; ++u)
        bv.push_back(fb.load(bb, u * 8));
    for (unsigned t = 0; t < MM_RT; ++t) {
        cut(fb, "row" + std::to_string(t));
        auto av = fb.load(
            fb.add(pa,
                   fb.shli(fb.add(fb.mul(fb.add(i0, fb.iconst(t)), n), k),
                           3)),
            0);
        for (unsigned u = 0; u < MM_RT; ++u) {
            fb.assign(acc[t * MM_RT + u],
                      fb.fadd(acc[t * MM_RT + u], fb.fmul(av, bv[u])));
        }
    }
    fb.assign(k, fb.addi(k, 1));
    fb.br(fb.cmpLt(k, n), "kloop", "kdone");
    fb.label("kdone");
    for (unsigned t = 0; t < MM_RT; ++t) {
        cut(fb, "out" + std::to_string(t));
        auto oc = fb.add(
            pc,
            fb.shli(fb.add(fb.mul(fb.add(i0, fb.iconst(t)), n), j0), 3));
        for (unsigned u = 0; u < MM_RT; ++u)
            fb.store(oc, acc[t * MM_RT + u], u * 8);
    }
    fb.assign(j0, fb.addi(j0, MM_RT));
    fb.br(fb.cmpLt(j0, n), "jloop", "jdone");
    fb.label("jdone");
    fb.assign(i0, fb.addi(i0, MM_RT));
    fb.br(fb.cmpLt(i0, n), "iloop", "done");
    fb.label("done");
    fb.ret(fb.ftoi(fb.fmul(fb.load(pc, 8 * (13 * MM_N + 17)),
                           fb.fconst(1000.0))));
    fb.finish();
}

} // namespace

std::vector<Workload>
blasWorkloads()
{
    return {
        {"axpy", "blas", false, buildAxpy},
        {"axpy_unroll", "blas", false, buildAxpyUnroll},
        {"dot", "blas", false, buildDot},
        {"dot_unroll", "blas", false, buildDotUnroll},
        {"gemv", "blas", false, buildGemv},
        {"gemv_tiled", "blas", false, buildGemvTiled},
        {"matmul", "blas", false, buildMatmul},
        {"matmul_tiled", "blas", false, buildMatmulTiled},
        {"matmul_tiled_unroll", "blas", false, buildMatmulTiledUnroll},
    };
}

} // namespace trips::workloads
