/**
 * @file
 * Chip-level simulator: N cycle-level TRIPS cores (the prototype chip
 * has two) sharing one uncore (NUCA L2 + OCN + DRAM; see
 * mem/memsys.hh), running a multi-programmed workload mix.
 *
 * Clocking and determinism: under the serial engine (the reference
 * mode) all cores advance in lockstep on a shared cycle clock. Each
 * chip cycle steps the still-running cores in core-id order, so
 * same-cycle uncore contention resolves with fixed priority (core 0
 * first) and a given mix always produces the same per-core results
 * and chip-level statistics. A core that halts (or exhausts its cycle
 * budget) simply stops being stepped; the chip runs until every core
 * is done. Under ChipEngine::Parallel the cores advance on worker
 * threads in relaxed Q-cycle quanta with uncore traffic replayed in
 * pinned order at barrier syncs (uarch/chip_parallel.hh): still fully
 * deterministic for a fixed (mix, config, quantum) and independent of
 * thread count, but contention *timing* is quantum-relaxed, so cycle
 * counts differ from serial. Architectural state is fully private per
 * core (register file, memory image): the shared L2 carries timing
 * interference only, so each core's architectural results must equal
 * its solo run under either engine -- the chip-mode differential
 * oracle asserts exactly that.
 */

#ifndef TRIPSIM_UARCH_CHIP_SIM_HH
#define TRIPSIM_UARCH_CHIP_SIM_HH

#include <memory>
#include <vector>

#include "mem/memsys.hh"
#include "support/fields.hh"
#include "uarch/cycle_sim.hh"

namespace trips::obs {
class ChipObs;
}

namespace trips::uarch {

/** One core's program assignment in a multi-programmed mix. */
struct ChipJob
{
    const isa::Program *prog = nullptr;
    MemImage *mem = nullptr;
    /** Optional warm start: begin this core mid-program from an
     *  architectural checkpoint (not owned; *mem must already hold
     *  the checkpoint's memory image). See CycleSim::warmStart. */
    const sim::Checkpoint *warmStart = nullptr;
};

/** Results of a chip run: per-core UarchResults plus the shared
 *  uncore's contention statistics. */
struct ChipResult
{
    std::vector<UarchResult> cores;
    u64 cycles = 0;             ///< chip cycles until the last core halted
    bool anyFuelExhausted = false;

    mem::UncoreStats uncore;    ///< bank conflicts, shared-L2 traffic
    net::OcnStats ocn;          ///< per-class packets/bytes/hops
    double ocnOccupancy = 0;    ///< mean flit-hops per link-cycle
    u64 l2DirtyDrained = 0;     ///< dirty L2 lines swept at end of run

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("cores", s.cores);
        f("cycles", s.cycles);
        f("anyFuelExhausted", s.anyFuelExhausted);
        f("uncore", s.uncore);
        f("ocn", s.ocn);
        f("ocnOccupancy", s.ocnOccupancy);
        f("l2DirtyDrained", s.l2DirtyDrained);
    }
};
static_assert(sizeof(ChipResult) == fieldListSize<ChipResult>(),
              "ChipResult: forEachField must list every field");

class QuantumEngine;

class ChipSim
{
  public:
    /** @p jobs assigns one program+memory per core (1..numCores). */
    ChipSim(const std::vector<ChipJob> &jobs,
            const ChipConfig &cfg = ChipConfig::prototype());
    ~ChipSim();

    ChipResult run();

    /**
     * Attach observability (obs/obs.hh) to every core — and, under
     * the parallel engine, the quantum-barrier trace — before run().
     * @p obs must be sized for at least this chip's core count and
     * outlive the run. Attaching never changes simulation results.
     */
    void attachObs(obs::ChipObs &obs);

    const mem::MemorySystem &uncore() const { return msys; }

  private:
    ChipConfig cfg;
    mem::MemorySystem msys;
    /** Present iff cfg.engine == ChipEngine::Parallel; built before
     *  the cores so they can bind its per-core ports. */
    std::unique_ptr<QuantumEngine> par;
    std::vector<std::unique_ptr<CycleSim>> cores;
};

} // namespace trips::uarch

#endif // TRIPSIM_UARCH_CHIP_SIM_HH
