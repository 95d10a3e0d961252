/**
 * @file
 * Idealized EDGE machine for the paper's ILP limit study (Fig. 10):
 * perfect next-block prediction, perfect caches, infinite execution
 * resources, zero inter-tile routing delay, and perfect memory
 * dependence prediction. Constrained only by true dataflow
 * dependences, a configurable instruction window, and a per-block
 * dispatch cost (8 cycles in the paper's base ideal machine, 0 in the
 * zero-dispatch variant).
 *
 * Implemented as an observer of the functional simulator's committed
 * block stream: each fired instruction is timestamped at the max of
 * its producers' completion times. A block costs no allocation in
 * steady state: the ready times of its header reads and instructions
 * live in one fixed array indexed by the record's producer encoding,
 * so an operand costs one load; the window is a ring of the last
 * window-blocks completion times, sized once at construction (8 bytes
 * per block of window); and the last store to each 8-byte chunk sits
 * in a flat open-addressed table that grows only with the store
 * footprint.
 */

#ifndef TRIPSIM_IDEAL_IDEAL_HH
#define TRIPSIM_IDEAL_IDEAL_HH

#include <vector>

#include "trips/func_sim.hh"

namespace trips::ideal {

struct IdealConfig
{
    u64 windowInsts = 1024;
    unsigned dispatchCost = 8;   ///< cycles between block starts
    unsigned loadLatency = 2;    ///< perfect L1 hit
};

struct IdealResult
{
    u64 executed = 0;
    Cycle makespan = 0;

    double ipc() const
    {
        return makespan
            ? static_cast<double>(executed) / makespan : 0;
    }
};

class IdealSim : public sim::BlockObserver
{
  public:
    explicit IdealSim(const IdealConfig &cfg);

    void onBlockCommit(const isa::Block &block,
                       const sim::BlockRecord &rec) override;

    IdealResult result() const;

  private:
    /** Completion time of the last store to each 8-byte chunk, open
     *  addressing with linear probing, at most half full. */
    class ChunkTable
    {
      public:
        ChunkTable() : slots(1024) {}

        /** The chunk's entry, or nullptr if no store wrote it. */
        const Cycle *find(Addr chunk) const;
        void set(Addr chunk, Cycle t);

      private:
        static constexpr Addr EMPTY = ~Addr{0};  ///< not a chunk index
        struct Slot
        {
            Addr chunk = EMPTY;
            Cycle t = 0;
        };

        size_t home(Addr chunk) const;
        void grow();

        std::vector<Slot> slots;  ///< power-of-two size
        size_t used = 0;
    };

    IdealConfig cfg;
    std::array<Cycle, isa::NUM_REGS> regReady{};
    /** Ready time of every producer encoding, indexed by producer +
     *  TIME_BASE: instruction slots at and above it, PROD_NONE just
     *  below, then the header reads downwards (PROD_READ0 - r). */
    static constexpr int TIME_BASE = 1 + isa::MAX_READS;
    std::array<Cycle, TIME_BASE + isa::MAX_INSTS> ready{};
    ChunkTable storeReady;
    /** Completion times of the last window-blocks blocks, oldest at
     *  windowPos. */
    std::vector<Cycle> window;
    size_t windowPos = 0;
    Cycle lastDispatch = 0;
    bool first = true;
    u64 executed = 0;
    Cycle makespan = 0;
};

} // namespace trips::ideal

#endif // TRIPSIM_IDEAL_IDEAL_HH
