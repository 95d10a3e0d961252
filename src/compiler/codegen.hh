/**
 * @file
 * TRIPS backend entry point and compilation statistics.
 *
 * The backend is organized as a pass pipeline over TIL, the predicated
 * dataflow intermediate language (compiler/til.hh):
 *
 *   region formation -> if-conversion/predication (with speculation)
 *   -> block splitting -> mov fanout -> spill-to-memory
 *   -> register allocation -> emission -> placement
 *
 * The pass manager lives in compiler/pipeline.hh; this header carries
 * the public facade (`compileToTrips`) plus the per-pass statistics it
 * reports. The predication scheme follows the paper's model:
 *  - each region is a single-entry DAG of WIR blocks whose internal
 *    join points are proper diamond joins, so every block's predicate
 *    is a chain [(test1,pol1),...,(testk,polk)] of chained tests;
 *  - conditional-arm arithmetic is speculated (left unpredicated),
 *    which produces the paper's Executed-Not-Used instructions;
 *  - stores and register writes are merged through predicated movs with
 *    NULLW tokens covering the complement paths (the paper's null/st
 *    idiom), so all block outputs complete on every path;
 *  - values consumed by more than a producer's target capacity get
 *    trees of MOV instructions (the paper's ~20% move overhead);
 *  - regions whose dataflow graph exceeds a prototype block limit are
 *    split by spilling cut-crossing values through register
 *    write/read pairs (compiler/pipeline.hh), so no size limit is
 *    fatal.
 */

#ifndef TRIPSIM_COMPILER_CODEGEN_HH
#define TRIPSIM_COMPILER_CODEGEN_HH

#include <string>
#include <vector>

#include "compiler/options.hh"
#include "isa/program.hh"
#include "support/fields.hh"
#include "wir/wir.hh"

namespace trips::compiler {

/** ABI register conventions shared by the backend passes. */
namespace abi {
constexpr int REG_SP = 1;        ///< stack pointer (live across calls)
constexpr int REG_RETVAL = 3;    ///< return value
constexpr int REG_ARG0 = 4;      ///< first argument register
constexpr unsigned MAX_ARGS = 8;
constexpr int FIRST_ALLOC_REG = 12;  ///< first allocatable register
} // namespace abi

/** The backend passes, in pipeline order. */
enum class PassId : u8 {
    RegionForm,   ///< hyperblock region formation over the WIR CFG
    IfConvert,    ///< region -> predicated TIL dataflow (w/ speculation)
    Split,        ///< spill oversized TIL blocks through registers
    Fanout,       ///< MOV trees for over-capacity producers
    Spill,        ///< spill-to-memory when regalloc pressure overflows
    RegAlloc,     ///< linear-scan over region-crossing values
    Emit,         ///< TIL -> isa::Block encoding
};
constexpr unsigned NUM_PASSES = 7;

/** Human-readable pass name. */
const char *passName(PassId id);

/** TIL shape snapshot taken after one pass (summed over functions). */
struct PassCounters
{
    u64 tilBlocks = 0;   ///< TIL blocks after the pass
    u64 tilNodes = 0;    ///< TIL nodes after the pass
    u64 movNodes = 0;    ///< MOV nodes after the pass
    u64 nullNodes = 0;   ///< NULLW nodes after the pass
    u64 testNodes = 0;   ///< test nodes after the pass
    u64 addedNodes = 0;  ///< nodes this pass added

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("tilBlocks", s.tilBlocks);
        f("tilNodes", s.tilNodes);
        f("movNodes", s.movNodes);
        f("nullNodes", s.nullNodes);
        f("testNodes", s.testNodes);
        f("addedNodes", s.addedNodes);
    }
};
static_assert(sizeof(PassCounters) == fieldListSize<PassCounters>(),
              "PassCounters: forEachField must list every field");

/** Aggregate per-compilation statistics (reported by benches/tests). */
struct CompileStats
{
    unsigned functions = 0;
    unsigned regions = 0;        ///< hyperblock regions formed
    unsigned blocks = 0;         ///< emitted blocks (regions + splits)
    u64 totalInsts = 0;
    u64 movInsts = 0;
    u64 nullInsts = 0;
    u64 testInsts = 0;

    // Block-splitting pass activity.
    unsigned splitBlocks = 0;    ///< extra blocks created by splitting
    u64 spillWrites = 0;         ///< cut-crossing register writes
    u64 spillReads = 0;          ///< cut-crossing register reads
    unsigned overflowRetries = 0;  ///< region re-formation rounds

    // Spill-to-memory pass activity (zero when pressure fits).
    unsigned spilledValues = 0;  ///< cross-region values sent to memory
    unsigned spillSlots = 0;     ///< dedicated stack frame slots used
    u64 spillLoads = 0;          ///< reload instructions inserted
    u64 spillStores = 0;         ///< spill store instructions inserted
    unsigned spillRounds = 0;    ///< fixed-point iterations that spilled

    /** Per-pass snapshots from each function's final round,
     *  indexed by PassId and summed across functions. */
    PassCounters pass[NUM_PASSES];

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("functions", s.functions);
        f("regions", s.regions);
        f("blocks", s.blocks);
        f("totalInsts", s.totalInsts);
        f("movInsts", s.movInsts);
        f("nullInsts", s.nullInsts);
        f("testInsts", s.testInsts);
        f("splitBlocks", s.splitBlocks);
        f("spillWrites", s.spillWrites);
        f("spillReads", s.spillReads);
        f("overflowRetries", s.overflowRetries);
        f("spilledValues", s.spilledValues);
        f("spillSlots", s.spillSlots);
        f("spillLoads", s.spillLoads);
        f("spillStores", s.spillStores);
        f("spillRounds", s.spillRounds);
        f("pass", s.pass);
    }
};
static_assert(sizeof(CompileStats) == fieldListSize<CompileStats>(),
              "CompileStats: forEachField must list every field");

/**
 * Compile a WIR module to a TRIPS program. Programs that exceed
 * prototype block limits are compiled via the block-splitting pass,
 * and programs whose simultaneously live region-crossing values exceed
 * the 116 allocatable registers are compiled via the spill-to-memory
 * pass (victims chosen by a range/use/loop-depth cost model and routed
 * through dedicated stack frame slots).
 */
isa::Program compileToTrips(const wir::Module &mod, const Options &opts,
                            CompileStats *stats = nullptr);

} // namespace trips::compiler

#endif // TRIPSIM_COMPILER_CODEGEN_HH
