#include "isa/block.hh"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>

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

/** Tracks which operand slots of which instructions have producers. */
struct OperandCoverage
{
    // [inst][0]=op0, [1]=op1, [2]=pred
    std::vector<std::array<bool, 3>> covered;
    std::vector<bool> write_covered;
    // Header-read deliveries per slot, same layout.
    std::vector<std::array<u8, 3>> read_hits;
    std::vector<u8> write_read_hits;
    std::string read_twice;  ///< first slot fed by two reads, if any

    OperandCoverage(size_t insts, size_t writes)
        : covered(insts, {false, false, false}),
          write_covered(writes, false), read_hits(insts, {0, 0, 0}),
          write_read_hits(writes, 0)
    {}

    std::string
    mark(const Target &t, size_t num_insts, bool from_read = false)
    {
        switch (t.kind) {
          case Target::Kind::None:
            return "";
          case Target::Kind::Op0:
          case Target::Kind::Op1:
          case Target::Kind::Pred: {
            if (t.index >= num_insts) {
                std::ostringstream os;
                os << "target references instruction slot "
                   << unsigned(t.index) << " beyond block size "
                   << num_insts;
                return os.str();
            }
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
            if (t.index >= write_covered.size()) {
                std::ostringstream os;
                os << "target references write slot " << unsigned(t.index)
                   << " beyond write count " << write_covered.size();
                return os.str();
            }
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
    std::ostringstream os;
    if (block.insts.empty())
        return "block has no instructions";
    if (block.insts.size() > MAX_INSTS) {
        os << "block has " << block.insts.size() << " instructions (max "
           << MAX_INSTS << ")";
        return os.str();
    }
    if (block.reads.size() > MAX_READS)
        return "too many read instructions";
    if (block.writes.size() > MAX_WRITES)
        return "too many write instructions";

    OperandCoverage cov(block.insts.size(), block.writes.size());

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
    std::set<unsigned> exits;
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
            exits.insert(in.exit);
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
    if (exits.size() != num_branches) {
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
        if (info.numInputs >= 1 && !cov.covered[i][0]) {
            os << "instruction " << i << " (" << info.name
               << ") operand 0 has no producer";
            return os.str();
        }
        if (info.numInputs >= 2 && !cov.covered[i][1]) {
            os << "instruction " << i << " (" << info.name
               << ") operand 1 has no producer";
            return os.str();
        }
        if (in.predicated() && !cov.covered[i][2]) {
            os << "instruction " << i << " (" << info.name
               << ") predicate has no producer";
            return os.str();
        }
    }
    for (size_t w = 0; w < block.writes.size(); ++w) {
        if (!cov.write_covered[w]) {
            os << "write slot " << w << " (reg "
               << unsigned(block.writes[w].reg) << ") has no producer";
            return os.str();
        }
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
    std::vector<u16> memOrder;
    for (size_t i = 0; i < n; ++i) {
        if (isMemory(block.insts[i].op))
            memOrder.push_back(static_cast<u16>(i));
    }
    std::sort(memOrder.begin(), memOrder.end(), [&](u16 a, u16 c) {
        if (block.insts[a].lsid != block.insts[c].lsid)
            return block.insts[a].lsid < block.insts[c].lsid;
        return a < c;
    });

    // Every instruction has at most two targets plus one LSID-chain
    // successor, so the successor lists pack into fixed runs of three.
    std::vector<u16> succ(3 * n);
    std::vector<u8> nsucc(n, 0);
    std::vector<u16> indeg(n, 0);
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
    for (size_t j = 1; j < memOrder.size(); ++j) {
        const u16 p = memOrder[j - 1];
        succ[3 * p + nsucc[p]++] = memOrder[j];
        ++indeg[memOrder[j]];
    }

    // Kahn's algorithm; a cycle leaves the order short.
    std::vector<u16> sched;
    sched.reserve(n);
    std::vector<u16> stack;
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            stack.push_back(static_cast<u16>(i));
    }
    while (!stack.empty()) {
        const u16 i = stack.back();
        stack.pop_back();
        sched.push_back(i);
        for (unsigned k = 0; k < nsucc[i]; ++k) {
            const u16 s = succ[3 * i + k];
            if (--indeg[s] == 0)
                stack.push_back(s);
        }
    }
    return sched;
}

} // namespace trips::isa
