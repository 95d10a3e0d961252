#include "compiler/placement.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "isa/topology.hh"

namespace trips::compiler {

using isa::Block;
using isa::Target;

namespace {

// Cost weights in units of 1/20 (see placement.hh).
constexpr unsigned LOAD_COST = 7;       ///< 0.35 per inst already on the ET
constexpr unsigned HOP_COST = 20;       ///< 1.0 per hop from a producer ET
constexpr unsigned UNPLACED_COST = 20;  ///< 1.0 per unplaced producer
constexpr unsigned READ_COST = 10;      ///< 0.5 per hop from the RT bank
constexpr unsigned MEM_COST = 15;       ///< 0.75 per column from the DTs
constexpr unsigned BRANCH_COST = 5;     ///< 0.25 per hop from the GT

using CostRow = std::array<unsigned, isa::NUM_ETS>;

/** Weighted cost rows over the 16 ETs, one per kind of term. */
struct CostTables
{
    std::array<CostRow, isa::NUM_ETS> fromEt{};  ///< producer on ET p
    std::array<CostRow, isa::NUM_REG_BANKS> fromRt{};  ///< read, bank r
    CostRow unplaced{};
    CostRow memory{};
    CostRow branch{};

    CostTables()
    {
        for (unsigned e = 0; e < isa::NUM_ETS; ++e) {
            const isa::Coord c = isa::etCoord(e);
            for (unsigned p = 0; p < isa::NUM_ETS; ++p)
                fromEt[p][e] = HOP_COST * isa::hopDist(isa::etCoord(p), c);
            for (unsigned r = 0; r < isa::NUM_REG_BANKS; ++r)
                fromRt[r][e] = READ_COST * isa::hopDist(isa::rtCoord(r), c);
            unplaced[e] = UNPLACED_COST;
            memory[e] = MEM_COST * static_cast<unsigned>(c.col);
            branch[e] = BRANCH_COST * isa::hopDist(isa::gtCoord(), c);
        }
    }
};

const CostTables &
costTables()
{
    static const CostTables tables;
    return tables;
}

void
addRow(CostRow &cost, const CostRow &row)
{
    for (unsigned et = 0; et < isa::NUM_ETS; ++et)
        cost[et] += row[et];
}

/** Operand sources per instruction in CSR form: an entry >= 0 is a
 *  producing instruction, -1-bank a register read from that RT bank. */
struct Sources
{
    std::vector<u16> start;
    std::vector<i16> src;

    explicit Sources(const Block &b)
        : start(b.insts.size() + 1, 0)
    {
        auto feeds = [](const Target &t) {
            return t.kind != Target::Kind::None &&
                   t.kind != Target::Kind::Write;
        };
        auto each = [&](auto &&f) {
            for (const auto &r : b.reads) {
                for (const auto &t : r.targets) {
                    if (feeds(t))
                        f(t.index, static_cast<i16>(
                                       -1 - static_cast<int>(
                                                Block::regBank(r.reg))));
                }
            }
            for (size_t i = 0; i < b.insts.size(); ++i) {
                for (const auto &t : b.insts[i].targets) {
                    if (feeds(t))
                        f(t.index, static_cast<i16>(i));
                }
            }
        };
        each([&](unsigned c, i16) { ++start[c + 1]; });
        for (size_t i = 0; i < b.insts.size(); ++i)
            start[i + 1] = static_cast<u16>(start[i + 1] + start[i]);
        src.resize(start.back());
        std::vector<u16> cursor(start.begin(), start.end() - 1);
        each([&](unsigned c, i16 s) { src[cursor[c]++] = s; });
    }
};

/** Topological order over intra-block dependences (Kahn), lowest
 *  ready index first. */
std::vector<u16>
topoOrder(const Block &b, const Sources &srcs)
{
    const size_t n = b.insts.size();
    std::vector<u16> indeg(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (u16 k = srcs.start[i]; k < srcs.start[i + 1]; ++k)
            indeg[i] += srcs.src[k] >= 0;
    }
    std::vector<u16> order;
    order.reserve(n);
    std::vector<u16> ready;
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            ready.push_back(static_cast<u16>(i));
    }
    // A min-heap: lowest index first keeps program order among peers.
    while (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), std::greater<>());
        const u16 i = ready.back();
        ready.pop_back();
        order.push_back(i);
        for (const Target &t : b.insts[i].targets) {
            if (t.kind == Target::Kind::None ||
                t.kind == Target::Kind::Write)
                continue;
            if (--indeg[t.index] == 0) {
                ready.push_back(t.index);
                std::push_heap(ready.begin(), ready.end(), std::greater<>());
            }
        }
    }
    // Defensive: cycles (malformed) fall back to index order.
    if (order.size() != n) {
        order.clear();
        for (size_t i = 0; i < n; ++i)
            order.push_back(static_cast<u16>(i));
    }
    return order;
}

} // namespace

void
placeBlock(Block &b)
{
    const size_t n = b.insts.size();
    b.placement.assign(n, 0);
    const Sources srcs(b);
    const CostTables &t = costTables();

    std::array<unsigned, isa::NUM_ETS> used{};
    std::vector<i16> pos(n, -1);  // assigned ET per inst

    for (u16 i : topoOrder(b, srcs)) {
        CostRow cost;
        for (unsigned et = 0; et < isa::NUM_ETS; ++et)
            cost[et] = LOAD_COST * used[et];
        for (u16 k = srcs.start[i]; k < srcs.start[i + 1]; ++k) {
            const i16 s = srcs.src[k];
            addRow(cost, s < 0         ? t.fromRt[-1 - s]
                         : pos[s] >= 0 ? t.fromEt[pos[s]]
                                       : t.unplaced);
        }
        if (isMemory(b.insts[i].op))
            addRow(cost, t.memory);
        if (isBranch(b.insts[i].op))
            addRow(cost, t.branch);
        // First ET with the least cost among those with a free slot.
        unsigned best = ~0u;
        unsigned best_et = 0;
        for (unsigned et = 0; et < isa::NUM_ETS; ++et) {
            if (used[et] < isa::SLOTS_PER_ET && cost[et] < best) {
                best = cost[et];
                best_et = et;
            }
        }
        pos[i] = static_cast<i16>(best_et);
        ++used[best_et];
        b.placement[i] = static_cast<u8>(best_et);
    }
}

void
placeProgram(isa::Program &prog)
{
    for (u32 i = 0; i < prog.numBlocks(); ++i)
        placeBlock(prog.mutableBlock(i));
}

} // namespace trips::compiler
