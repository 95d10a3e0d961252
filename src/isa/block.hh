/**
 * @file
 * The TRIPS block format: up to 128 dataflow instructions plus a header
 * holding up to 32 register read and 32 register write instructions and
 * the store mask. Blocks are the unit of fetch, execution and commit
 * (block-atomic execution model).
 */

#ifndef TRIPSIM_ISA_BLOCK_HH
#define TRIPSIM_ISA_BLOCK_HH

#include <string>
#include <vector>

#include "isa/opcode.hh"
#include "support/common.hh"

namespace trips::isa {

/** Architectural limits of the prototype block format. */
constexpr unsigned MAX_INSTS = 128;
constexpr unsigned MAX_READS = 32;
constexpr unsigned MAX_WRITES = 32;
constexpr unsigned MAX_LSIDS = 32;
constexpr unsigned MAX_EXITS = 8;
constexpr unsigned NUM_REGS = 128;
constexpr unsigned NUM_REG_BANKS = 4;
constexpr unsigned REGS_PER_BANK = NUM_REGS / NUM_REG_BANKS;
constexpr unsigned NUM_ETS = 16;
constexpr unsigned SLOTS_PER_ET = MAX_INSTS / NUM_ETS;

/** Where a produced operand is delivered. */
struct Target
{
    enum class Kind : u8 {
        None,   ///< unused target field
        Op0,    ///< left value operand of an instruction slot
        Op1,    ///< right value operand of an instruction slot
        Pred,   ///< predicate operand of an instruction slot
        Write,  ///< a register write slot in the block header
    };

    Kind kind = Kind::None;
    u8 index = 0;   ///< instruction slot (0..127) or write slot (0..31)

    bool valid() const { return kind != Kind::None; }
    bool operator==(const Target &o) const = default;
};

/** One 32-bit TRIPS compute instruction. */
struct Instruction
{
    Opcode op = Opcode::MOV;
    PredMode pr = PredMode::None;
    i32 imm = 0;        ///< 9-bit (ALU/mem) or 16-bit (GENS/APP) immediate
    u8 lsid = 0;        ///< load/store sequence id (memory ops only)
    u8 exit = 0;        ///< exit number (branch ops only, 0..7)
    i32 targetBlock = -1;   ///< branch destination block index (BRO/CALLO)
    i32 returnBlock = -1;   ///< continuation block for CALLO
    Target targets[2];

    unsigned numInputs() const { return opInfo(op).numInputs; }
    unsigned numTargets() const { return opInfo(op).numTargets; }
    bool predicated() const { return pr != PredMode::None; }
};

/** Register read instruction (block header): injects a register value. */
struct ReadInst
{
    u8 reg = 0;
    Target targets[2];
};

/** Register write instruction (block header): receives one block output. */
struct WriteInst
{
    u8 reg = 0;
};

/**
 * A TRIPS block. The placement vector assigns each compute instruction
 * to an execution tile (0..15); slot order within a tile follows
 * instruction order (up to 8 instructions per ET per block).
 */
struct Block
{
    std::string label;
    std::vector<ReadInst> reads;
    std::vector<WriteInst> writes;
    std::vector<Instruction> insts;
    std::vector<u8> placement;  ///< parallel to insts; ET id per inst
    u32 storeMask = 0;          ///< bit set per LSID that must complete

    /** Number of exits (distinct branch instructions). */
    unsigned numExits() const;

    /**
     * Compressed size class: smallest of 32/64/96/128 that holds the
     * compute instructions (paper §4.4: blocks are compressed in memory
     * and the L2 to chunks of 32).
     */
    unsigned sizeClass() const;

    /** Bytes this block occupies in memory: 128-byte header + insts. */
    unsigned codeBytes() const { return 128 + 4 * sizeClass(); }

    /** Register bank holding a given architectural register. */
    static unsigned regBank(unsigned reg) { return reg / REGS_PER_BANK; }
};

/**
 * Structural validation of a block against the ISA contract. Returns an
 * empty string when valid, else a description of the first violation.
 *
 * Checks: size limits; target fields reference existing slots; every
 * value/predicate operand of every instruction has at least one
 * producer; store mask consistency with store LSIDs; at least one exit;
 * exit numbering dense; placement (if present) respects per-ET capacity;
 * the block has a static fire schedule (see fireSchedule()) and no slot
 * receives two header-read deliveries.
 */
std::string validateBlock(const Block &block, i32 num_program_blocks = -1);

/**
 * Static fire schedule: a topological order of the block's compute
 * instructions over its dataflow arcs (producer before every operand or
 * predicate consumer) plus the LSID chain (memory operations serialize
 * in (LSID, slot) order). Returns fewer than insts.size() entries when
 * no such order exists: a dataflow cycle, a later-LSID memory op
 * feeding an earlier one, or a target naming a missing slot.
 */
std::vector<u16> fireSchedule(const Block &block);

} // namespace trips::isa

#endif // TRIPSIM_ISA_BLOCK_HH
