#include "compiler/placement.hh"

#include <algorithm>
#include <array>
#include <functional>

#include "isa/topology.hh"
#include "support/error.hh"

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

/** Operand deliveries a block can hold: two targets per read and per
 *  instruction. */
constexpr size_t MAX_SOURCES = 2 * (isa::MAX_INSTS + isa::MAX_READS);

/** Operand sources per instruction in CSR form: an entry >= 0 is a
 *  producing instruction, -1-bank a register read from that RT bank.
 *  Sized to the block limits, so building it allocates nothing. */
struct Sources
{
    std::array<u16, isa::MAX_INSTS + 1> start{};
    std::array<i16, MAX_SOURCES> src;

    explicit Sources(const Block &b)
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
        std::array<u16, isa::MAX_INSTS> cursor;
        std::copy(start.begin(), start.begin() + b.insts.size(),
                  cursor.begin());
        each([&](unsigned c, i16 s) { src[cursor[c]++] = s; });
    }
};

using InstOrder = std::array<u16, isa::MAX_INSTS>;

/** Topological order over intra-block dependences (Kahn), lowest
 *  ready index first, into `order[0, n)`. */
void
topoOrder(const Block &b, const Sources &srcs, InstOrder &order)
{
    const size_t n = b.insts.size();
    std::array<u16, isa::MAX_INSTS> indeg{};
    for (size_t i = 0; i < n; ++i) {
        for (u16 k = srcs.start[i]; k < srcs.start[i + 1]; ++k)
            indeg[i] += srcs.src[k] >= 0;
    }
    size_t done = 0;
    // A min-heap in ready[0, nready): lowest index first keeps program
    // order among peers.
    std::array<u16, isa::MAX_INSTS> ready;
    size_t nready = 0;
    for (size_t i = 0; i < n; ++i) {
        if (indeg[i] == 0)
            ready[nready++] = static_cast<u16>(i);
    }
    while (nready > 0) {
        std::pop_heap(ready.begin(), ready.begin() + nready,
                      std::greater<>());
        const u16 i = ready[--nready];
        order[done++] = i;
        for (const Target &t : b.insts[i].targets) {
            if (t.kind == Target::Kind::None ||
                t.kind == Target::Kind::Write)
                continue;
            if (--indeg[t.index] == 0) {
                ready[nready++] = t.index;
                std::push_heap(ready.begin(), ready.begin() + nready,
                               std::greater<>());
            }
        }
    }
    // Defensive: cycles (malformed) fall back to index order.
    if (done != n) {
        for (size_t i = 0; i < n; ++i)
            order[i] = static_cast<u16>(i);
    }
}

} // namespace

void
placeBlock(Block &b)
{
    const size_t n = b.insts.size();
    TRIPS_ASSERT(n <= isa::MAX_INSTS && b.reads.size() <= isa::MAX_READS,
                 "placing block ", b.label, " beyond the block limits");
    b.placement.assign(n, 0);
    const Sources srcs(b);
    const CostTables &t = costTables();

    // base[et]: ET et's load term, plus FULL once all its slots are
    // taken. Blocks fit the array, so some ET is always free and a full
    // one never wins; the first least-cost ET is the placement.
    constexpr unsigned FULL = 1u << 28;
    CostRow base{};
    std::array<unsigned, isa::NUM_ETS> used{};
    std::array<i16, isa::MAX_INSTS> pos;  // assigned ET per inst
    std::fill(pos.begin(), pos.begin() + n, -1);
    InstOrder order;
    topoOrder(b, srcs, order);

    for (size_t oi = 0; oi < n; ++oi) {
        const u16 i = order[oi];
        CostRow cost = base;
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
        unsigned best = cost[0];
        for (unsigned et = 1; et < isa::NUM_ETS; ++et)
            best = std::min(best, cost[et]);
        unsigned best_et = 0;
        while (cost[best_et] != best)
            ++best_et;
        pos[i] = static_cast<i16>(best_et);
        base[best_et] += LOAD_COST;
        if (++used[best_et] == isa::SLOTS_PER_ET)
            base[best_et] += FULL;
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
