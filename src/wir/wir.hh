/**
 * @file
 * WIR — the workload intermediate representation.
 *
 * A small, non-SSA three-address CFG IR over 64-bit integer and
 * floating-point virtual registers with sized memory operations. Every
 * benchmark in this repository is written once in WIR and compiled by
 * both the TRIPS backend (src/compiler) and the RISC backend (src/risc),
 * mirroring the paper's same-source cross-ISA methodology. A reference
 * interpreter (interp.hh) provides golden outputs.
 */

#ifndef TRIPSIM_WIR_WIR_HH
#define TRIPSIM_WIR_WIR_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/common.hh"
#include "support/pool.hh"

namespace trips::wir {

/** Virtual register id. */
using Vreg = u32;
constexpr Vreg NO_VREG = 0xffffffff;

enum class WOp : u8 {
    Const,      ///< dst = imm (integer) or fimm (double, isFloat)
    Copy,       ///< dst = src0 (used for loop-carried reassignment)
    // Integer.
    Add, Sub, Mul, Div, DivU, Mod, ModU,
    And, Or, Xor, Not, Shl, Shr, Sar,
    SextB, SextH, SextW, ZextB, ZextH, ZextW,
    // Floating point (f64 in the low 64 bits of the vreg).
    FAdd, FSub, FMul, FDiv, FNeg, IToF, FToI,
    // Comparisons produce 0/1.
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe, CmpLtU, CmpGeU,
    FCmpEq, FCmpNe, FCmpLt, FCmpLe,
    // Memory: Load dst = M[src0 + imm]; Store M[src0 + imm] = src1.
    Load, Store,
    // dst = src0 ? src1 : src2.
    Select,
    // dst = call callee(srcs...).
    Call,
};

/** Access width for Load/Store. */
enum class MemWidth : u8 { B1 = 1, B2 = 2, B4 = 4, B8 = 8 };

struct Instr
{
    WOp op;
    Vreg dst = NO_VREG;
    /** Operands; every op but a call with four or more arguments keeps
     *  them inline, so copying a function allocates per block, not per
     *  instruction. */
    SmallVec<Vreg, 3> srcs;
    i64 imm = 0;            ///< Const value or Load/Store displacement
    double fimm = 0.0;      ///< Const double value
    bool isFloat = false;   ///< Const: float constant; Load: reserved
    MemWidth width = MemWidth::B8;
    bool loadSigned = true; ///< sign-extend sub-word loads
    std::string callee;     ///< Call target function name
};

enum class TermKind : u8 { Br, Jmp, Ret };

struct Terminator
{
    TermKind kind = TermKind::Ret;
    Vreg cond = NO_VREG;        ///< Br condition
    u32 thenBlock = 0;          ///< Br taken / Jmp target
    u32 elseBlock = 0;          ///< Br fallthrough
    Vreg retVal = NO_VREG;      ///< Ret value (optional)
};

struct BasicBlock
{
    std::string name;
    std::vector<Instr> instrs;
    Terminator term;
};

struct Function
{
    std::string name;
    unsigned numParams = 0;     ///< params are vregs 0..numParams-1
    Vreg nextVreg = 0;          ///< first unallocated vreg id
    std::vector<BasicBlock> blocks;  ///< entry is blocks[0]

    /** Successor block ids of a block, in a fixed range that
     *  allocates nothing: Br yields then, else; Jmp its target. */
    struct Successors
    {
        u32 ids[2] = {0, 0};
        u32 count = 0;

        const u32 *begin() const { return ids; }
        const u32 *end() const { return ids + count; }
    };
    Successors successors(u32 bb) const;
};

/** A named byte region in the data segment. */
struct GlobalVar
{
    std::string name;
    Addr addr = 0;
    u64 size = 0;
    std::vector<u8> init;   ///< may be shorter than size (rest zero)
};

struct Module
{
    std::map<std::string, Function> functions;
    std::vector<GlobalVar> globals;
    std::string mainFunction = "main";

    static constexpr Addr DATA_BASE = 0x100000;
    static constexpr Addr STACK_BASE = trips::STACK_BASE;

    /** Allocate a global buffer; returns its base address. */
    Addr addGlobal(const std::string &name, u64 size);

    /** Find a global by name; fatal if missing. */
    const GlobalVar &global(const std::string &name) const;

    const Function &function(const std::string &name) const;

  private:
    Addr next_data = DATA_BASE;
};

/**
 * Structural verification: terminator targets in range, vreg ids below
 * the function's nextVreg, call targets exist with matching arity,
 * entry exists. Returns "" or the first error.
 */
std::string verifyModule(const Module &m);

/** Number of WIR instructions in a function (static). */
u64 staticOpCount(const Function &f);

} // namespace trips::wir

#endif // TRIPSIM_WIR_WIR_HH
