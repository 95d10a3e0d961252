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
 * Overflow policy: passes 1 and 2 run to a fixed point. Every region
 * is if-converted, oversized ones included, and each multi-block
 * region whose graph breaks a block limit shrinks its root's budget
 * (`Frontend::shrinkRegion`) before regions are formed again. Each
 * shrink takes that root's own budget one step down; past the last
 * step the root becomes a singleton. Other regions keep their
 * budgets. Only single-block regions reach the splitting pass
 * oversized.
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
#include <string>
#include <vector>

#include "compiler/codegen.hh"
#include "compiler/til.hh"

namespace trips::compiler {

/**
 * WIR-to-TIL front end: normalization, region formation and
 * if-conversion for one function. Implemented in codegen.cc; driven
 * by the pipeline so each stage is observable and an oversized region
 * can be formed again with a smaller budget.
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

    /** Pass 1b: hyperblock region formation. Re-runnable: each root
     *  gets its own budget (see shrinkRegion). Returns region count. */
    unsigned formRegions();

    /** Shrink the budget of the non-singleton region rooted at WIR
     *  block `root` one step (WIR ops x3/5, floor 18; memory ops x3/4,
     *  floor 8), or make the root a singleton once its ops budget is 20
     *  or less. Budgets persist across spill rounds. */
    void shrinkRegion(u32 root);

    /** Pass 2: lower every region to TIL. Regions past the block
     *  limits are lowered too; checkBlockLimits tells them apart. */
    std::vector<til::HBlock> ifConvert();

    /** WIR liveness projected onto regions (register allocation input). */
    std::vector<std::vector<wir::Vreg>> regionLiveSets() const;

    /** Fresh vreg id (split-pass spill values). */
    wir::Vreg freshVreg();

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
 * a resource-exhausted CompileError when no such cut exists.
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
