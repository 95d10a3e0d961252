/**
 * @file
 * The TRIPS backend pass pipeline.
 *
 * `compileToTrips` (codegen.hh) is implemented here as a pass manager
 * running discrete, individually testable passes per function:
 *
 *   1. RegionForm — WIR normalization (unrolling, block-size caps,
 *      call isolation, caller-save spill planning) and hyperblock
 *      region formation (codegen.cc, via `Frontend`);
 *   2. IfConvert  — regions to predicated TIL dataflow, with
 *      speculation of conditional-arm arithmetic (codegen.cc);
 *   3. Split      — spill oversized TIL graphs through register
 *      write/read pairs until every block fits the prototype format
 *      (this file);
 *   4. Fanout     — MOV trees for producers whose consumer count
 *      exceeds their target capacity;
 *   5. Spill      — when more region-crossing values are live than
 *      the 116 allocatable registers, choose victims by cost model
 *      (spill.hh) and rewrite them through stack frame slots
 *      (codegen.cc, `Frontend::spillToFrame`), then re-run the front
 *      end; iterates to a fixed point and is a no-op when pressure
 *      fits;
 *   6. RegAlloc   — linear scan over region-crossing values;
 *   7. Emit       — TIL to isa::Block encoding.
 *
 * Overflow policy: a region whose TIL graph exceeds a block limit
 * first triggers re-formation with smaller budgets, then singleton
 * regions (the historical retry ladder, kept bit-identical for every
 * program the ladder already handled); only graphs the ladder cannot
 * shrink — single WIR blocks, call spill/reload regions — reach the
 * splitting pass. Programs that compiled before the splitting pass
 * existed therefore compile to identical bits.
 *
 * Debug modes (compiler/options.hh): `verifyTil` re-verifies every
 * TIL block between passes (til::verify) and fatals on the first
 * violation; `tilDump` streams a textual dump of the TIL after each
 * TIL-shaping pass.
 */

#ifndef TRIPSIM_COMPILER_PIPELINE_HH
#define TRIPSIM_COMPILER_PIPELINE_HH

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compiler/codegen.hh"
#include "compiler/til.hh"

namespace trips::compiler {

/**
 * Thrown when a region's TIL graph exceeds a prototype block limit;
 * the pipeline driver retries with smaller region budgets, then with
 * the offending WIR blocks as singleton regions, then splits.
 */
struct BlockOverflow
{
    std::vector<u32> wirBlocks;  ///< members of the offending region
    std::string reason;
};

/**
 * WIR-to-TIL front end: normalization, region formation and
 * if-conversion for one function. Implemented in codegen.cc; driven
 * by the pipeline so each stage is observable and the overflow retry
 * ladder can re-run region formation with shrunk budgets.
 */
class Frontend
{
  public:
    Frontend(const wir::Module &mod, const std::string &fname,
             const Options &opts);
    ~Frontend();

    /** Pass 1a: loop unrolling, WIR block-size normalization, call
     *  isolation, liveness, caller-save spill planning. Run once. */
    void normalize();

    /** Pass 1b: hyperblock region formation. Re-runnable; budgets may
     *  have been shrunk by the retry ladder. Returns region count. */
    unsigned formRegions(const std::set<u32> &forceSingleton);

    /** Pass 2: lower every region to TIL. Throws BlockOverflow when a
     *  multi-block region exceeds the LSID budget (single-block
     *  regions are left for the splitting pass). */
    std::vector<til::HBlock> ifConvert();

    /** WIR liveness projected onto regions (register allocation input). */
    std::vector<std::vector<wir::Vreg>> regionLiveSets() const;

    /** Budgets are shrunk in place by the pipeline's overflow retries. */
    Options &options();

    /** Fresh vreg id (split-pass spill values). */
    wir::Vreg freshVreg();

    /** Final-attempt mode: lower oversized regions instead of throwing
     *  BlockOverflow; everything lands in the splitting pass. */
    void allowOversized(bool yes);

    /** Natural-loop depth per region (parallel to formRegions output;
     *  a region's depth is the max over its member WIR blocks). */
    std::vector<unsigned> regionLoopDepths() const;

    /** May the spill pass send this value to a frame slot? False for
     *  parameters, the SP/RETVAL shadow vregs, and TIL-only vregs the
     *  splitting pass invents (they do not exist in the WIR). */
    bool spillableVreg(wir::Vreg v) const;

    /** Instruction counts from one spill-to-memory rewrite. */
    struct SpillRewrite
    {
        unsigned loads = 0, stores = 0, slots = 0;
    };

    /** Spill pass rewrite: route each victim through a dedicated stack
     *  frame slot (store after every def, block-local reload before
     *  every use), recompute liveness and caller-save plans, and leave
     *  the front end ready for a fresh formRegions/ifConvert round.
     *  Victims become block-local, so their register ranges vanish. */
    SpillRewrite spillToFrame(const std::vector<wir::Vreg> &victims);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

// ---------------------------------------------------------------------
// Individually testable passes over TIL.
// ---------------------------------------------------------------------

/**
 * Would this TIL block fit the prototype block format once fanout has
 * run? Returns "" or the first limit it breaches ("instructions: N"
 * with the exact post-fanout count, then reads, writes, LSIDs, exits).
 * The post-fanout size is computed, not trial-run: the MOVs fanout
 * adds for a producer depend only on its consumer count and target
 * capacity, so the check counts consumers per producer and sums the
 * tree sizes without copying the block.
 */
std::string checkBlockLimits(const til::HBlock &hb);

/**
 * Pass 3 — block splitting. Cut an oversized TIL block into a chain
 * of blocks that each fit the prototype format, spilling every
 * cut-crossing value through a register write in the earlier block
 * and a read in the later one, and re-deriving cut-crossing
 * predicates from the spilled test values. Cuts are only taken where
 * every crossing producer set is total (delivers exactly one VALUE
 * token on every path), so the spill writes always complete; throws
 * BlockOverflow when no such cut exists (the driver then retries
 * with singleton regions, which are total by construction).
 *
 * Returns the chunks in execution order; the first keeps `hb.label`,
 * later ones get `.s1`, `.s2`, ... suffixes and are chained by
 * unpredicated BRO exits. A block that already fits is returned
 * unchanged.
 */
std::vector<til::HBlock> splitPass(til::HBlock hb,
                                   const std::string &fname,
                                   const std::function<wir::Vreg()> &freshVreg,
                                   CompileStats *stats = nullptr);

/**
 * Pass 4 — fanout: ensure no producer exceeds its target capacity by
 * inserting MOV trees. Rewrites all operand lists of the block.
 *
 * A producer with k consumers and capacity cap (register reads: 2)
 * keeps them if k <= cap; otherwise they are dealt round-robin into
 * cap groups, a singleton group attaches directly, and each larger
 * group hangs off a fresh MOV (capacity 2) that recurses. Producers
 * are visited reads first in descending index, then nodes ascending,
 * and MOVs are numbered depth first, so MOV ids are a pure function
 * of the block.
 */
void fanoutPass(til::HBlock &hb);

/**
 * Pass 5 — linear-scan register allocation over a function's TIL
 * blocks. `liveSets` is parallel to `hbs` (sub-blocks of a split
 * region share the region's live set); ranges come from liveness, not
 * just read/write touch points: a value carried around a loop is live
 * in every region of the loop even where untouched.
 */
void allocateRegisters(std::vector<til::HBlock> &hbs,
                       const std::string &fname,
                       const std::vector<std::vector<wir::Vreg>> &liveSets);

/**
 * Pass 6 — emit one TIL block as an isa::Block. The block must be
 * within all format limits (guaranteed by the splitting pass; fatal
 * with function context otherwise). Label fixups for BRO targets and
 * CALLO continuations are appended to `fixups` / `ret_fixups`.
 */
isa::Block emitBlock(const til::HBlock &hb, const std::string &fname,
                     std::vector<std::pair<u32, std::string>> &fixups,
                     std::vector<std::pair<u32, std::string>> &ret_fixups);

} // namespace trips::compiler

#endif // TRIPSIM_COMPILER_PIPELINE_HH
