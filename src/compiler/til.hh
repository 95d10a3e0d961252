/**
 * @file
 * TIL — the TRIPS intermediate language.
 *
 * A TIL block (`HBlock`) is the predicated-dataflow form of one
 * hyperblock region between if-conversion and emission: a DAG of
 * `TNode` compute operations fed by register-read slots and draining
 * into register-write slots, exactly mirroring the target block format
 * (reads / 128 dataflow instructions / writes) but without the
 * prototype's size limits, target-capacity caps, or encoding.
 * The backend pipeline (compiler/pipeline.hh) lowers WIR regions to
 * TIL, then runs block splitting, mov fanout, register allocation and
 * emission over it.
 *
 * The module also provides a textual dump (`dump`) and a structural
 * verifier (`verify`) for the invariants every well-formed TIL block
 * must satisfy — the same invariants whose violations the differential
 * fuzzer caught as hangs and corrupted registers in PR 2:
 *
 *  - operand totality: every required operand of every node and every
 *    register write has at least one producer, and on every execution
 *    path receives exactly one token (a VALUE, or a NULL delivered by
 *    the NULLW complement idiom);
 *  - NULLW complement coverage: predicated producer sets are covered
 *    on their complement paths so block outputs always complete;
 *  - predicate-chain well-formedness: every predicate operand is
 *    rooted at a test instruction (possibly forwarded through
 *    unpredicated fanout movs), and stores are never predicated (the
 *    store mask requires them to settle on every path);
 *  - single delivery: no operand or write slot can receive two tokens
 *    on any path; exactly one block exit fires on every path.
 */

#ifndef TRIPSIM_COMPILER_TIL_HH
#define TRIPSIM_COMPILER_TIL_HH

#include <string>
#include <vector>

#include "isa/block.hh"
#include "isa/opcode.hh"
#include "support/pool.hh"
#include "wir/wir.hh"

namespace trips::compiler::til {

/** A producer set: every producer that may deliver one operand's or
 *  register write's single token. Almost every set holds one producer
 *  or a merge's two, so both fit inline and the TIL allocates nothing
 *  per operand. */
using ProdSet = SmallVec<i32, 2>;

/**
 * One TIL dataflow operation. Producers are referenced by id:
 * id >= 0 is a node index, id < 0 is read slot -1-id. Operand lists
 * (`in0`/`in1`) hold *every* producer that may deliver the operand's
 * single token — a merged value has one predicated producer per path.
 */
struct TNode
{
    isa::Opcode op = isa::Opcode::MOV;
    i64 imm = 0;
    i32 predNode = -1;        ///< producer of the predicate operand
    bool predPol = true;      ///< fire on true (else on false)
    u16 lsid = 0;             ///< memory sequence id (pre-split: may
                              ///< exceed the ISA's 32-LSID limit)
    std::string targetLabel;  ///< BRO/CALLO destination
    std::string returnLabel;  ///< CALLO continuation
    ProdSet in0, in1;
};

/** Register read slot: injects a register value into the dataflow. */
struct HRead
{
    wir::Vreg v = wir::NO_VREG;
    int fixedReg = -1;        ///< ABI-fixed architectural register
    int assignedReg = -1;     ///< filled in by register allocation
};

/** Register write slot: receives one block output token. */
struct HWrite
{
    wir::Vreg v = wir::NO_VREG;
    int fixedReg = -1;
    int assignedReg = -1;
    ProdSet prods;   ///< producer set (one token per path)
};

/** One TIL block (a hyperblock region in dataflow form). */
struct HBlock
{
    std::string label;
    std::vector<TNode> nodes;
    std::vector<HRead> reads;
    std::vector<HWrite> writes;
    std::vector<u32> wirMembers;  ///< WIR blocks this region covers
};

/** Human-readable dump of one TIL block. */
std::string dump(const HBlock &hb);

struct VerifyOptions
{
    /** Also enforce the prototype block-format limits (instruction,
     *  read, write, LSID and exit counts). Off for pre-split blocks,
     *  on after the splitting pass. */
    bool sizeLimits = false;

    /** Path-coverage budget: blocks with at most this many distinct
     *  test outcomes are verified exhaustively; larger blocks fall
     *  back to a fixed set of deterministic pseudo-random outcome
     *  assignments of the same size. */
    unsigned maxTrials = 64;
};

/**
 * Verify the TIL invariants listed in the file header. Returns "" when
 * the block is well-formed, else a description of the first violation.
 *
 * Dynamic invariants (exactly-one delivery, complement coverage, one
 * exit per path) are checked by abstract token simulation: every test
 * node is assigned an outcome per trial and tokens are propagated with
 * the functional simulator's firing rules (predicate mismatch kills a
 * node; NULL tokens flow through consumers; stores annul on NULL).
 * Test outcomes are assigned independently — a superset of the real
 * paths — which is sound for TIL produced by this backend because
 * merges always gate both polarities of one test node.
 */
std::string verify(const HBlock &hb, const VerifyOptions &opts = {});

/**
 * Per-node delivery analysis: result[i] is true iff node i fires and
 * delivers a VALUE token on every execution of the block (it is
 * unpredicated and every operand is a total set). Used by the block
 * splitting pass to decide which values may cross a cut through a
 * register write/read pair.
 */
std::vector<bool> alwaysDelivers(const HBlock &hb);

/**
 * True iff the producer set delivers exactly one VALUE token on every
 * path: a single always-delivering producer (or register read), or a
 * complementary pair of movs predicated on both polarities of one
 * always-delivering test.
 */
bool totalSet(const HBlock &hb, const std::vector<bool> &always,
              const ProdSet &prods);

} // namespace trips::compiler::til

#endif // TRIPSIM_COMPILER_TIL_HH
