#include "isa/block.hh"

#include <algorithm>
#include <array>

namespace trips::isa {

unsigned
Block::numExits() const
{
    unsigned n = 0;
    for (const auto &in : insts) {
        if (isBranch(in.op))
            ++n;
    }
    return n;
}

unsigned
Block::sizeClass() const
{
    size_t n = insts.size();
    if (n <= 32)
        return 32;
    if (n <= 64)
        return 64;
    if (n <= 96)
        return 96;
    return 128;
}

namespace {

/** Tracks which operand slots of which instructions have producers.
 *  Sized to the architectural limits, which validateBlock checks
 *  first, so tracking allocates nothing. */
struct OperandCoverage
{
    // [inst][0]=op0, [1]=op1, [2]=pred
    std::array<std::array<bool, 3>, MAX_INSTS> covered{};
    std::array<bool, MAX_WRITES> write_covered{};
    // Header-read deliveries per slot, same layout.
    std::array<std::array<u8, 3>, MAX_INSTS> read_hits{};
    std::array<u8, MAX_WRITES> write_read_hits{};
    size_t num_writes;
    std::string read_twice;  ///< first slot fed by two reads, if any

    explicit OperandCoverage(size_t writes) : num_writes(writes) {}

    std::string
    mark(const Target &t, size_t num_insts, bool from_read = false)
    {
        switch (t.kind) {
          case Target::Kind::None:
            return "";
          case Target::Kind::Op0:
          case Target::Kind::Op1:
          case Target::Kind::Pred: {
            if (t.index >= num_insts)
                return ::trips::detail::formatMsg(
                    "target references instruction slot ",
                    unsigned(t.index), " beyond block size ", num_insts);
            unsigned operand = t.kind == Target::Kind::Op0 ? 0
                             : t.kind == Target::Kind::Op1 ? 1 : 2;
            covered[t.index][operand] = true;
            if (from_read && ++read_hits[t.index][operand] == 2 &&
                read_twice.empty())
                read_twice = "instruction " + std::to_string(t.index) +
                             " operand " + std::to_string(operand);
            return "";
          }
          case Target::Kind::Write:
            if (t.index >= num_writes)
                return ::trips::detail::formatMsg("target references write slot ",
                                         unsigned(t.index),
                                         " beyond write count ",
                                         num_writes);
            write_covered[t.index] = true;
            if (from_read && ++write_read_hits[t.index] == 2 &&
                read_twice.empty())
                read_twice = "write slot " + std::to_string(t.index);
            return "";
        }
        return "bad target kind";
    }
};

} // namespace

std::string
validateBlock(const Block &block, i32 num_program_blocks)
{
    // Messages are formatted only on failure: a valid block allocates
    // nothing here but its fire schedule.
    using ::trips::detail::formatMsg;
    if (block.insts.empty())
        return "block has no instructions";
    if (block.insts.size() > MAX_INSTS)
        return formatMsg("block has ", block.insts.size(),
                         " instructions (max ", MAX_INSTS, ")");
    if (block.reads.size() > MAX_READS)
        return "too many read instructions";
    if (block.writes.size() > MAX_WRITES)
        return "too many write instructions";

    OperandCoverage cov(block.writes.size());

    for (const auto &r : block.reads) {
        if (r.reg >= NUM_REGS)
            return "read of out-of-range register";
        for (const auto &t : r.targets) {
            auto err = cov.mark(t, block.insts.size(), /*from_read=*/true);
            if (!err.empty())
                return "read: " + err;
        }
    }
    for (const auto &w : block.writes) {
        if (w.reg >= NUM_REGS)
            return "write of out-of-range register";
    }

    u32 store_lsids = 0;
    u32 exits = 0;  ///< bit e: some branch takes exit e
    unsigned num_branches = 0;
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const auto &in = block.insts[i];
        const auto &info = opInfo(in.op);
        for (unsigned t = 0; t < 2; ++t) {
            if (t >= info.numTargets && in.targets[t].valid())
                return "instruction uses more targets than its format has";
            auto err = cov.mark(in.targets[t], block.insts.size());
            if (!err.empty())
                return err;
        }
        if (info.hasImm && !isMemory(in.op) &&
            in.op != Opcode::GENS && in.op != Opcode::APP) {
            if (in.imm < IMM9_MIN || in.imm > IMM9_MAX)
                return "ALU immediate out of 9-bit range";
        }
        if (isMemory(in.op)) {
            if (in.imm < IMM9_MIN || in.imm > IMM9_MAX)
                return "memory offset out of 9-bit range";
            if (in.lsid >= MAX_LSIDS)
                return "LSID out of range";
            if (isStore(in.op))
                store_lsids |= 1u << in.lsid;
        }
        if (in.op == Opcode::GENS || in.op == Opcode::APP) {
            if (in.imm < IMM16_MIN || in.imm > IMM16_MAX)
                return "constant immediate out of 16-bit range";
        }
        if (isBranch(in.op)) {
            ++num_branches;
            if (in.exit >= MAX_EXITS)
                return "exit number out of range";
            exits |= 1u << in.exit;
            if (in.op != Opcode::RET) {
                if (in.targetBlock < 0)
                    return "branch without resolved target block";
                if (num_program_blocks >= 0 &&
                    in.targetBlock >= num_program_blocks)
                    return "branch target out of program range";
            }
            if (in.op == Opcode::CALLO && in.returnBlock < 0)
                return "call without return continuation";
        }
    }

    if (num_branches == 0)
        return "block has no exit branch";
    if (static_cast<unsigned>(__builtin_popcount(exits)) != num_branches) {
        // Multiple branches may share an exit only if they are
        // predicate-complementary; the prototype required distinct exit
        // numbers, which the compiler guarantees.
        return "duplicate exit numbers";
    }
    if (store_lsids != block.storeMask)
        return "store mask does not match store LSIDs";

    // Every declared operand of every instruction needs >= 1 producer.
    for (size_t i = 0; i < block.insts.size(); ++i) {
        const auto &in = block.insts[i];
        const auto &info = opInfo(in.op);
        if (info.numInputs >= 1 && !cov.covered[i][0])
            return formatMsg("instruction ", i, " (", info.name,
                             ") operand 0 has no producer");
        if (info.numInputs >= 2 && !cov.covered[i][1])
            return formatMsg("instruction ", i, " (", info.name,
                             ") operand 1 has no producer");
        if (in.predicated() && !cov.covered[i][2])
            return formatMsg("instruction ", i, " (", info.name,
                             ") predicate has no producer");
    }
    for (size_t w = 0; w < block.writes.size(); ++w) {
        if (!cov.write_covered[w])
            return formatMsg("write slot ", w, " (reg ",
                             unsigned(block.writes[w].reg),
                             ") has no producer");
    }

    // Header reads deliver on every instance, so two of them into one
    // slot is a double delivery no predicate can avoid.
    if (!cov.read_twice.empty())
        return cov.read_twice + " receives two header-read deliveries";
    if (fireSchedule(block).size() != block.insts.size())
        return "no static fire schedule (dataflow cycle or a later-LSID "
               "memory op feeding an earlier one)";

    if (!block.placement.empty()) {
        if (block.placement.size() != block.insts.size())
            return "placement size mismatch";
        std::array<unsigned, NUM_ETS> per_et{};
        for (u8 et : block.placement) {
            if (et >= NUM_ETS)
                return "placement to invalid ET";
            if (++per_et[et] > SLOTS_PER_ET)
                return "ET reservation-station overflow";
        }
    }
    return "";
}

std::vector<u16>
fireSchedule(const Block &block)
{
    const size_t n = block.insts.size();
    // One scratch buffer holds every working array, so a call makes
    // two allocations (it and the schedule) whatever the block's size.
    std::vector<u16> scratch(7 * n, 0);
    u16 *const memOrder = scratch.data();
    u16 *const succ = memOrder + n;   ///< fixed runs of three per inst
    u16 *const nsucc = succ + 3 * n;
    u16 *const indeg = nsucc + n;
    u16 *const stack = indeg + n;

    size_t nmem = 0;
    for (size_t i = 0; i < n; ++i) {
        if (isMemory(block.insts[i].op))
            memOrder[nmem++] = static_cast<u16>(i);
    }
    std::sort(memOrder, memOrder + nmem, [&](u16 a, u16 c) {
        if (block.insts[a].lsid != block.insts[c].lsid)
            return block.insts[a].lsid < block.insts[c].lsid;
        return a < c;
    });

    // Every instruction has at most two targets plus one LSID-chain
    // successor, so the successor lists pack into fixed runs of three.
    for (size_t i = 0; i < n; ++i) {
        for (const auto &t : block.insts[i].targets) {
            if (t.kind != Target::Kind::Op0 && t.kind != Target::Kind::Op1 &&
                t.kind != Target::Kind::Pred)
                continue;
            if (t.index >= n)
                return {};
            succ[3 * i + nsucc[i]++] = t.index;
            ++indeg[t.index];
        }
    }
    for (size_t j = 1; j < nmem; ++j) {
        const u16 p = memOrder[j - 1];
        succ[3 * p + nsucc[p]++] = memOrder[j];
        ++indeg[memOrder[j]];
    }

    // Kahn's algorithm; a cycle leaves the order short.
    std::vector<u16> sched;
    sched.reserve(n);
    size_t top = 0;
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            stack[top++] = static_cast<u16>(i);
    }
    while (top > 0) {
        const u16 i = stack[--top];
        sched.push_back(i);
        for (unsigned k = 0; k < nsucc[i]; ++k) {
            const u16 s = succ[3 * i + k];
            if (--indeg[s] == 0)
                stack[top++] = s;
        }
    }
    return sched;
}

} // namespace trips::isa
