#include "risc/wirtorisc.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "compiler/analysis.hh"
#include "compiler/options.hh"
#include "compiler/transform.hh"

namespace trips::risc {

using wir::Function;
using wir::Instr;
using wir::TermKind;
using wir::Vreg;
using wir::WOp;

namespace {

constexpr u32 NO_LABEL = 0xffffffff;

/** Virtual-register instruction before allocation. */
struct VInstr
{
    ROp op = ROp::ADD;
    u32 vd = wir::NO_VREG, va = wir::NO_VREG, vb = wir::NO_VREG,
        vc = wir::NO_VREG;
    /** Pre-colored physical registers override virtual operands. */
    int pd = -1, pa = -1, pb = -1;
    i32 imm = 0;
    u32 labelBlock = NO_LABEL;   ///< WIR block id for branches
    std::string callee;
    u8 width = 8;
    bool loadSigned = true;
};

/** A private unrolled copy of `fn`, or nothing when the preset does
 *  not unroll (the function is then compiled in place). */
std::optional<Function>
unrolledCopy(const Function &fn, const RiscOptions &opts)
{
    if (opts.maxUnroll <= 1)
        return std::nullopt;
    std::optional<Function> copy(fn);
    compiler::Options shim;
    shim.maxUnroll = opts.maxUnroll;
    shim.unrollBudgetOps = opts.unrollBudgetOps;
    compiler::unrollLoops(*copy, shim);
    return copy;
}

/** RISC opcode of each two- and one-operand WIR op, by WOp value;
 *  ROp::NUM_OPS for the ops FuncGen::lower handles itself. */
const std::array<ROp, 256> &
simpleOps()
{
    static const std::array<ROp, 256> table = [] {
        static const std::pair<WOp, ROp> simple[] = {
            {WOp::Add, ROp::ADD}, {WOp::Sub, ROp::SUB},
            {WOp::Mul, ROp::MUL}, {WOp::Div, ROp::DIV},
            {WOp::DivU, ROp::DIVU}, {WOp::Mod, ROp::MOD},
            {WOp::ModU, ROp::MODU}, {WOp::And, ROp::AND},
            {WOp::Or, ROp::OR}, {WOp::Xor, ROp::XOR},
            {WOp::Shl, ROp::SLL}, {WOp::Shr, ROp::SRL},
            {WOp::Sar, ROp::SRA}, {WOp::Not, ROp::NOT},
            {WOp::SextB, ROp::EXTSB}, {WOp::SextH, ROp::EXTSH},
            {WOp::SextW, ROp::EXTSW}, {WOp::ZextB, ROp::EXTUB},
            {WOp::ZextH, ROp::EXTUH}, {WOp::ZextW, ROp::EXTUW},
            {WOp::FAdd, ROp::FADD}, {WOp::FSub, ROp::FSUB},
            {WOp::FMul, ROp::FMUL}, {WOp::FDiv, ROp::FDIV},
            {WOp::FNeg, ROp::FNEG}, {WOp::IToF, ROp::ITOF},
            {WOp::FToI, ROp::FTOI}, {WOp::CmpEq, ROp::CMPEQ},
            {WOp::CmpNe, ROp::CMPNE}, {WOp::CmpLt, ROp::CMPLT},
            {WOp::CmpLe, ROp::CMPLE}, {WOp::CmpGt, ROp::CMPGT},
            {WOp::CmpGe, ROp::CMPGE}, {WOp::CmpLtU, ROp::CMPLTU},
            {WOp::CmpGeU, ROp::CMPGEU}, {WOp::FCmpEq, ROp::FCMPEQ},
            {WOp::FCmpNe, ROp::FCMPNE}, {WOp::FCmpLt, ROp::FCMPLT},
            {WOp::FCmpLe, ROp::FCMPLE},
        };
        std::array<ROp, 256> t;
        t.fill(ROp::NUM_OPS);
        for (const auto &[w, r] : simple)
            t[static_cast<u8>(w)] = r;
        return t;
    }();
    return table;
}

struct FuncGen
{
    std::optional<Function> unrolled;
    const Function &f;   ///< `unrolled`, or the module's own function
    std::vector<VInstr> code;
    std::vector<u32> blockStart;   ///< WIR block -> vcode position
    Vreg nextTemp;
    bool isLeaf = true;

    FuncGen(const wir::Module &m, const std::string &name,
            const RiscOptions &o)
        : unrolled(unrolledCopy(m.function(name), o)),
          f(unrolled ? *unrolled : m.function(name)), nextTemp(f.nextVreg)
    {}

    Vreg temp() { return nextTemp++; }

    VInstr &
    emit(ROp op)
    {
        code.push_back(VInstr{});
        code.back().op = op;
        return code.back();
    }

    void
    emitConst(Vreg vd, i64 value)
    {
        int chunks = 1;
        while (chunks < 4) {
            i64 reduced =
                (value << (64 - 16 * chunks)) >> (64 - 16 * chunks);
            if (reduced == value)
                break;
            ++chunks;
        }
        for (int c = chunks - 1; c >= 0; --c) {
            i64 piece = (value >> (16 * c)) & 0xffff;
            if (c == chunks - 1) {
                auto &li = emit(ROp::LI);
                li.vd = vd;
                li.imm = static_cast<i32>((piece ^ 0x8000) - 0x8000);
            } else {
                auto &ap = emit(ROp::APPI);
                ap.vd = vd;
                ap.va = vd;
                ap.imm = static_cast<i32>(piece & 0xffff);
            }
        }
    }

    void
    lower(const Instr &in)
    {
        switch (in.op) {
          case WOp::Const: {
            i64 v;
            if (in.isFloat)
                std::memcpy(&v, &in.fimm, 8);
            else
                v = in.imm;
            emitConst(in.dst, v);
            return;
          }
          case WOp::Copy: {
            auto &mr = emit(ROp::MR);
            mr.vd = in.dst;
            mr.va = in.srcs[0];
            return;
          }
          case WOp::Load: {
            auto &ld = emit(ROp::LOAD);
            ld.vd = in.dst;
            ld.va = in.srcs[0];
            ld.imm = static_cast<i32>(in.imm);
            ld.width = static_cast<u8>(in.width);
            ld.loadSigned = in.loadSigned;
            return;
          }
          case WOp::Store: {
            auto &st = emit(ROp::STORE);
            st.va = in.srcs[0];
            st.vb = in.srcs[1];
            st.imm = static_cast<i32>(in.imm);
            st.width = static_cast<u8>(in.width);
            return;
          }
          case WOp::Select: {
            auto &s = emit(ROp::SELECT);
            s.vd = in.dst;
            s.va = in.srcs[0];
            s.vb = in.srcs[1];
            s.vc = in.srcs[2];
            return;
          }
          case WOp::Call: {
            isLeaf = false;
            for (size_t i = 0; i < in.srcs.size(); ++i) {
                auto &mr = emit(ROp::MR);
                mr.pd = static_cast<int>(REG_ARG0 + i);
                mr.va = in.srcs[i];
            }
            auto &c = emit(ROp::CALL);
            c.callee = in.callee;
            if (in.dst != wir::NO_VREG) {
                auto &mr = emit(ROp::MR);
                mr.vd = in.dst;
                mr.pa = REG_RET;
            }
            return;
          }
          default:
            break;
        }
        const ROp r = simpleOps()[static_cast<u8>(in.op)];
        if (r == ROp::NUM_OPS)
            TRIPS_PANIC("unhandled WIR op in RISC codegen");
        auto &e = emit(r);
        e.vd = in.dst;
        e.va = in.srcs[0];
        if (in.srcs.size() > 1)
            e.vb = in.srcs[1];
    }

    /** Generate virtual code with block layout and branch fixups. */
    void
    genBody()
    {
        // Parameter moves from the argument registers.
        for (Vreg p = 0; p < f.numParams; ++p) {
            auto &mr = emit(ROp::MR);
            mr.vd = p;
            mr.pa = static_cast<int>(REG_ARG0 + p);
        }
        auto rpo = compiler::reversePostOrder(f);
        blockStart.assign(f.blocks.size(), NO_LABEL);
        // Room for one instruction per WIR instruction plus a branch
        // pair per block; only wide constants and calls grow past it.
        size_t expect = code.size();
        for (const auto &blk : f.blocks)
            expect += blk.instrs.size() + 2;
        code.reserve(expect);

        for (u32 oi = 0; oi < rpo.size(); ++oi) {
            u32 b = rpo[oi];
            blockStart[b] = static_cast<u32>(code.size());
            for (const Instr &in : f.blocks[b].instrs)
                lower(in);
            const auto &t = f.blocks[b].term;
            u32 next = oi + 1 < rpo.size() ? rpo[oi + 1] : 0xffffffff;
            switch (t.kind) {
              case TermKind::Jmp:
                if (t.thenBlock != next) {
                    auto &j = emit(ROp::J);
                    j.labelBlock = t.thenBlock;
                }
                break;
              case TermKind::Br: {
                auto &bn = emit(ROp::BNEZ);
                bn.va = t.cond;
                bn.labelBlock = t.thenBlock;
                if (t.elseBlock != next) {
                    auto &j = emit(ROp::J);
                    j.labelBlock = t.elseBlock;
                }
                break;
              }
              case TermKind::Ret:
                if (t.retVal != wir::NO_VREG) {
                    auto &mr = emit(ROp::MR);
                    mr.pd = REG_RET;
                    mr.va = t.retVal;
                }
                emit(ROp::RET);
                break;
            }
        }
    }
};

/** Live interval per virtual register (positions in vcode). */
struct Interval
{
    u32 lo = 0xffffffff, hi = 0;

    bool touched() const { return lo != 0xffffffff; }
};

/** Intervals indexed by vreg (`nvregs` of them; untouched vregs keep
 *  the empty default). */
std::vector<Interval>
computeIntervals(const std::vector<VInstr> &code,
                 const std::vector<u32> &block_start, Vreg nvregs)
{
    std::vector<Interval> iv(nvregs);
    auto touch = [&](u32 v, u32 pos) {
        if (v == wir::NO_VREG)
            return;
        auto &i = iv[v];
        i.lo = std::min(i.lo, pos);
        i.hi = std::max(i.hi, pos);
    };
    for (u32 p = 0; p < code.size(); ++p) {
        const auto &in = code[p];
        touch(in.va, p);
        touch(in.vb, p);
        touch(in.vc, p);
        touch(in.vd, p);
    }
    // Loop extension: any interval overlapping a backward branch span
    // [target, branch] must cover the whole span. Each step reads and
    // writes one interval only, so the fixed point does not depend on
    // the order the intervals are visited in; an untouched interval
    // (lo past every position) never overlaps a span.
    bool changed = true;
    while (changed) {
        changed = false;
        for (u32 p = 0; p < code.size(); ++p) {
            const auto &in = code[p];
            if (in.labelBlock == NO_LABEL)
                continue;
            u32 t = block_start[in.labelBlock];
            if (t == NO_LABEL || t >= p)
                continue;
            for (Interval &i : iv) {
                if (i.lo <= p && i.hi >= t && i.hi < p) {
                    i.hi = p;
                    changed = true;
                }
            }
        }
    }
    return iv;
}

} // namespace

RProgram
compileToRisc(const wir::Module &mod, const RiscOptions &opts)
{
    auto err = wir::verifyModule(mod);
    if (!err.empty())
        TRIPS_FATAL("WIR verification failed: ", err);

    RProgram prog;
    std::vector<std::pair<u32, std::string>> call_fixups;

    std::vector<const std::string *> order{&mod.mainFunction};
    for (const auto &[name, fn] : mod.functions) {
        if (name != mod.mainFunction)
            order.push_back(&name);
    }

    for (const std::string *fname : order) {
        FuncGen gen(mod, *fname, opts);
        gen.genBody();

        // ---- register allocation (linear scan) ----
        // Vregs are dense below nextTemp, so every per-vreg table is a
        // vector indexed by vreg.
        const Vreg nvregs = gen.nextTemp;
        const std::vector<Interval> intervals =
            computeIntervals(gen.code, gen.blockStart, nvregs);
        std::vector<std::pair<Vreg, Interval>> by_start;
        by_start.reserve(nvregs);
        for (Vreg v = 0; v < nvregs; ++v) {
            if (intervals[v].touched())
                by_start.emplace_back(v, intervals[v]);
        }
        std::sort(by_start.begin(), by_start.end(),
                  [](const auto &a, const auto &b) {
                      return a.second.lo < b.second.lo;
                  });
        std::vector<int> reg_of(nvregs, -1);          ///< -1: spilled
        std::vector<unsigned> spill_slot(nvregs, 0);
        constexpr unsigned NUM_SAVED = LAST_SAVED - FIRST_SAVED + 1;
        std::vector<std::pair<u32, int>> active;
        active.reserve(NUM_SAVED);
        std::vector<int> pool;
        pool.reserve(NUM_SAVED);
        for (int r = LAST_SAVED; r >= static_cast<int>(FIRST_SAVED); --r)
            pool.push_back(r);
        unsigned n_spills = 0;
        u32 used_saved = 0;   ///< bit r: callee-saved register r used
        for (auto &[v, iv] : by_start) {
            for (size_t i = 0; i < active.size();) {
                if (active[i].first < iv.lo) {
                    pool.push_back(active[i].second);
                    active.erase(active.begin() + i);
                } else {
                    ++i;
                }
            }
            if (pool.empty()) {
                spill_slot[v] = n_spills++;
            } else {
                int r = pool.back();
                pool.pop_back();
                reg_of[v] = r;
                used_saved |= 1u << r;
                active.emplace_back(iv.hi, r);
            }
        }

        // ---- frame layout ----
        const unsigned n_saved =
            static_cast<unsigned>(__builtin_popcount(used_saved));
        // Call f(r) for each used callee-saved register, ascending.
        auto forEachSaved = [&](auto &&f) {
            for (u32 m = used_saved; m; m &= m - 1)
                f(__builtin_ctz(m));
        };
        unsigned frame = n_spills * 8 + n_saved * 8 + (gen.isLeaf ? 0 : 8);
        frame = (frame + 15) & ~15u;
        unsigned saved_base = n_spills * 8;
        unsigned lr_slot = saved_base + n_saved * 8;

        // ---- rewrite to physical code with spill loads/stores ----
        std::vector<RInstr> body;
        body.reserve(gen.code.size() + 16);
        std::vector<u32> vpos_to_ppos(gen.code.size() + 1, 0);
        auto emit_p = [&](RInstr in) { body.push_back(in); };

        // Prologue.
        if (frame > 0) {
            RInstr adj;
            adj.op = ROp::ADDI;
            adj.rd = REG_SP;
            adj.ra = REG_SP;
            adj.imm = -static_cast<i32>(frame);
            emit_p(adj);
        }
        if (!gen.isLeaf) {
            RInstr st;
            st.op = ROp::STORE;
            st.ra = REG_SP;
            st.rb = REG_LR;
            st.imm = static_cast<i32>(lr_slot);
            emit_p(st);
        }
        {
            unsigned k = 0;
            forEachSaved([&](int r) {
                RInstr st;
                st.op = ROp::STORE;
                st.ra = REG_SP;
                st.rb = static_cast<u8>(r);
                st.imm = static_cast<i32>(saved_base + 8 * k++);
                emit_p(st);
            });
        }

        auto emit_epilogue = [&]() {
            unsigned k = 0;
            forEachSaved([&](int r) {
                RInstr ld;
                ld.op = ROp::LOAD;
                ld.rd = static_cast<u8>(r);
                ld.ra = REG_SP;
                ld.imm = static_cast<i32>(saved_base + 8 * k++);
                emit_p(ld);
            });
            if (!gen.isLeaf) {
                RInstr ld;
                ld.op = ROp::LOAD;
                ld.rd = REG_LR;
                ld.ra = REG_SP;
                ld.imm = static_cast<i32>(lr_slot);
                emit_p(ld);
            }
            if (frame > 0) {
                RInstr adj;
                adj.op = ROp::ADDI;
                adj.rd = REG_SP;
                adj.ra = REG_SP;
                adj.imm = static_cast<i32>(frame);
                emit_p(adj);
            }
        };

        std::vector<std::pair<u32, u32>> branch_fixups;  // (ppos, vtarget)
        branch_fixups.reserve(static_cast<size_t>(
            std::count_if(gen.code.begin(), gen.code.end(),
                          [](const VInstr &vi) {
                              return vi.labelBlock != NO_LABEL;
                          })));

        for (u32 vp = 0; vp < gen.code.size(); ++vp) {
            vpos_to_ppos[vp] = static_cast<u32>(body.size());
            const VInstr &vi = gen.code[vp];

            unsigned scratch_next = SCRATCH0;
            auto src_reg = [&](u32 v, int pre) -> u8 {
                if (pre >= 0)
                    return static_cast<u8>(pre);
                if (v == wir::NO_VREG)
                    return 0;
                if (reg_of[v] >= 0)
                    return static_cast<u8>(reg_of[v]);
                // Spilled: reload into a scratch register.
                unsigned s = scratch_next++;
                TRIPS_ASSERT(s <= SCRATCH2, "scratch overflow");
                RInstr ld;
                ld.op = ROp::LOAD;
                ld.rd = static_cast<u8>(s);
                ld.ra = REG_SP;
                ld.imm = static_cast<i32>(spill_slot[v] * 8);
                emit_p(ld);
                return static_cast<u8>(s);
            };

            RInstr out;
            out.op = vi.op;
            out.imm = vi.imm;
            out.width = vi.width;
            out.loadSigned = vi.loadSigned;
            out.ra = src_reg(vi.va, vi.pa);
            out.rb = src_reg(vi.vb, vi.pb);
            out.rc = src_reg(vi.vc, -1);

            bool spill_dst = false;
            unsigned dst_slot = 0;
            if (vi.pd >= 0) {
                out.rd = static_cast<u8>(vi.pd);
            } else if (vi.vd != wir::NO_VREG) {
                if (reg_of[vi.vd] >= 0) {
                    out.rd = static_cast<u8>(reg_of[vi.vd]);
                } else {
                    out.rd = SCRATCH0;
                    spill_dst = true;
                    dst_slot = spill_slot[vi.vd];
                }
            }

            if (vi.op == ROp::RET)
                emit_epilogue();
            if (vi.op == ROp::CALL) {
                call_fixups.emplace_back(
                    static_cast<u32>(prog.code.size() + body.size()),
                    vi.callee);
            }
            if (vi.labelBlock != NO_LABEL) {
                branch_fixups.emplace_back(
                    static_cast<u32>(body.size()), vi.labelBlock);
            }
            emit_p(out);

            if (spill_dst) {
                RInstr st;
                st.op = ROp::STORE;
                st.ra = REG_SP;
                st.rb = SCRATCH0;
                st.imm = static_cast<i32>(dst_slot * 8);
                emit_p(st);
            }
        }
        vpos_to_ppos[gen.code.size()] = static_cast<u32>(body.size());

        // Resolve intra-function branches.
        u32 base = static_cast<u32>(prog.code.size());
        for (auto &[ppos, vblock] : branch_fixups) {
            u32 vtarget = gen.blockStart[vblock];
            body[ppos].target = base + vpos_to_ppos[vtarget];
        }
        prog.functionEntry[*fname] = base;
        prog.code.insert(prog.code.end(), body.begin(), body.end());
    }

    for (auto &[pos, callee] : call_fixups)
        prog.code[pos].target = prog.functionEntry.at(callee);
    prog.entry = prog.functionEntry.at(mod.mainFunction);
    return prog;
}

} // namespace trips::risc
