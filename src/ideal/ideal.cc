#include "ideal/ideal.hh"

#include <algorithm>

namespace trips::ideal {

using isa::Block;
using sim::BlockRecord;
using sim::FiredOp;

size_t
IdealSim::ChunkTable::home(Addr chunk) const
{
    return static_cast<size_t>((chunk * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots.size() - 1);
}

const Cycle *
IdealSim::ChunkTable::find(Addr chunk) const
{
    const size_t mask = slots.size() - 1;
    for (size_t i = home(chunk);; i = (i + 1) & mask) {
        if (slots[i].chunk == chunk)
            return &slots[i].t;
        if (slots[i].chunk == EMPTY)
            return nullptr;
    }
}

void
IdealSim::ChunkTable::set(Addr chunk, Cycle t)
{
    const size_t mask = slots.size() - 1;
    size_t i = home(chunk);
    while (slots[i].chunk != chunk && slots[i].chunk != EMPTY)
        i = (i + 1) & mask;
    slots[i].t = t;
    if (slots[i].chunk == EMPTY) {
        slots[i].chunk = chunk;
        if (2 * ++used > slots.size())
            grow();
    }
}

void
IdealSim::ChunkTable::grow()
{
    std::vector<Slot> old(2 * slots.size());
    old.swap(slots);
    const size_t mask = slots.size() - 1;
    for (const Slot &s : old) {
        if (s.chunk == EMPTY)
            continue;
        size_t i = home(s.chunk);
        while (slots[i].chunk != EMPTY)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

IdealSim::IdealSim(const IdealConfig &cfg)
    : cfg(cfg),
      // Window constraint at block granularity.
      window(std::max<u64>(1, cfg.windowInsts / isa::MAX_INSTS))
{}

void
IdealSim::onBlockCommit(const Block &block, const BlockRecord &rec)
{
    Cycle dispatch = first ? 0 : lastDispatch + cfg.dispatchCost;
    first = false;
    // The oldest block in the window must have completed (entries not
    // yet written read 0 and constrain nothing).
    dispatch = std::max(dispatch, window[windowPos]);
    lastDispatch = dispatch;

    // Producers resolve with one indexed load each: header reads are
    // ready at dispatch or when their register was last written,
    // PROD_NONE at dispatch, instructions at their finish time, which
    // fire order (a topological order) has written earlier in this
    // block.
    Cycle *const t = ready.data() + TIME_BASE;
    t[sim::PROD_NONE] = dispatch;
    for (size_t r = 0; r < block.reads.size(); ++r)
        t[sim::PROD_READ0 - static_cast<int>(r)] =
            std::max(dispatch, regReady[block.reads[r].reg]);

    Cycle block_done = dispatch;
    for (const FiredOp &f : rec.fired) {
        Cycle start = std::max({t[f.prodOp0], t[f.prodOp1],
                                t[f.prodPred]});
        unsigned lat = f.latency;
        if (f.cls == isa::OpClass::Load && !f.nullToken) {
            lat = cfg.loadLatency;
            // Perfect dependence prediction: wait only for true
            // conflicts (8-byte chunk granularity).
            for (Addr a = f.addr >> 3;
                 a <= (f.addr + f.width - 1) >> 3; ++a) {
                if (const Cycle *st = storeReady.find(a))
                    start = std::max(start, *st);
            }
        }
        const Cycle done = start + lat;
        t[f.inst] = done;
        if (f.cls == isa::OpClass::Store && !f.nullToken) {
            for (Addr a = f.addr >> 3;
                 a <= (f.addr + f.width - 1) >> 3; ++a)
                storeReady.set(a, done);
        }
        block_done = std::max(block_done, done);
    }
    executed += rec.fired.size();

    // Register outputs forward at producer completion (ideal).
    for (size_t w = 0; w < block.writes.size(); ++w) {
        i16 p = rec.writeProducer[w];
        if (p >= 0 && !rec.writeIsNull[w])
            regReady[block.writes[w].reg] = t[p];
    }

    window[windowPos] = block_done;
    windowPos = windowPos + 1 == window.size() ? 0 : windowPos + 1;
    makespan = std::max(makespan, block_done);
}

IdealResult
IdealSim::result() const
{
    IdealResult r;
    r.executed = executed;
    r.makespan = makespan;
    return r;
}

} // namespace trips::ideal
