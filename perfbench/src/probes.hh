/**
 * @file
 * Outside-in probes for layers with no separable public call:
 *
 *  - mem: RecordingPort is an UncorePort proxy bound through
 *    CycleSim's chip-core constructor. It forwards to a real
 *    MemorySystem and logs every operation; replayLog() feeds the log
 *    into a fresh MemorySystem to time MemorySystem::access alone and
 *    to check that it reproduces every recorded completion cycle.
 *  - net: driveOpn() injects packets into a bare OpnNetwork at a
 *    measured packets/cycle rate and per-class hop mix and times
 *    inject + tick.
 *  - host: a spin test of 1 vs nproc threads, CPU time, peak RSS, and
 *    a fixed reference loop that tracks the host's drifting speed.
 *
 * The Fig. 7 next-block-predictor observer and a no-op observer (for
 * observer self time by subtraction) live here too.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "bench.hh"
#include "mem/memsys.hh"
#include "net/opn.hh"
#include "pred/predictors.hh"
#include "trips/func_sim.hh"

namespace perfbench {

using trips::Addr;
using trips::Cycle;

/** One logged uncore-port operation, in call order. */
struct PortOp
{
    trips::mem::MemRequest req;
    Cycle now = 0;
    Cycle done = 0;           ///< recorded completion (accesses)
    u32 bytes = 0;            ///< writeback payload (notes)
    bool isNote = false;
};

/** Forwarding, logging UncorePort. Several ports may share one log
 *  (a lockstep chip), which keeps the global call order. */
class RecordingPort final : public trips::mem::UncorePort
{
  public:
    RecordingPort(trips::mem::MemorySystem &real, std::vector<PortOp> &log)
        : real(real), log(log)
    {}

    trips::mem::MemResponse access(const trips::mem::MemRequest &req,
                                   Cycle now) override;
    void noteL1Writeback(unsigned core, Addr victim_line,
                         unsigned bytes) override;
    const trips::mem::MemorySystemConfig &config() const override
    {
        return real.config();
    }

  private:
    trips::mem::MemorySystem &real;
    std::vector<PortOp> &log;
};

struct ReplayResult
{
    u64 accesses = 0;
    u64 mismatches = 0;       ///< completion cycles that differ
    double accessNs = 0;      ///< replay wall time / accesses
};

/** Replay a log into a fresh MemorySystem built from @p cfg. */
ReplayResult replayLog(const std::vector<PortOp> &log,
                       const trips::mem::MemorySystemConfig &cfg);

/** Traffic shape for driveOpn(): network packets per cycle, and the
 *  per-class hop-count distributions (bucket 0 = local bypass). */
struct OpnMix
{
    double packetsPerCycle = 0;
    std::array<trips::Distribution,
               static_cast<size_t>(trips::net::OpnClass::NUM_CLASSES)> hops;
};

struct OpnDriveResult
{
    u64 delivered = 0;
    double tickNs = 0;        ///< ns per simulated cycle (inject + tick)
    double nsPerPacket = 0;
};

/** Replay a synthetic stream with @p mix's rate and hop mix through a
 *  bare OpnNetwork for @p cycles cycles. Deterministic in @p seed. */
OpnDriveResult driveOpn(const OpnMix &mix, u64 cycles, u64 seed);

/** Spin test: nproc x (1-thread time) / (nproc-thread time). */
double effectiveParallelism();

/** Wall time (ns) of one sample of a fixed reference loop that
 *  shares no code with the simulator: a 50 K-step dependent walk over
 *  a warm 1 MiB table. */
double referenceNs();

/**
 * Scales host times to a nominal host speed. This host's speed drifts
 * by 20-30% over seconds to minutes (other tenants contend for its
 * caches), and the reference loop, timed right before each op, slows
 * with it while no change to the simulator can move it.
 */
class HostRef
{
  public:
    /** Reference time that scales by 1.0: the loop's median on an
     *  unloaded Xeon 2.1 GHz 4-vCPU host. */
    static constexpr double NOMINAL_NS = 200'000;
    /** Samples in the running median. */
    static constexpr size_t WINDOW = 5;

    /** Take one reference sample; return NOMINAL_NS over the median
     *  of the last WINDOW samples (multiply a host time by it). */
    double sample();

  private:
    std::deque<double> recent;
};

/** Process CPU time (user + system, all threads), ns. */
double cpuNs();
/** Peak resident set size, MB. */
double peakRssMb();

/** Fig. 7: replays committed blocks into a next-block predictor. */
class NbpObserver final : public trips::sim::BlockObserver
{
  public:
    explicit NbpObserver(const trips::pred::NextBlockConfig &cfg) : nbp(cfg)
    {}
    void onBlockCommit(const trips::isa::Block &b,
                       const trips::sim::BlockRecord &rec) override;

    trips::pred::NextBlockPredictor nbp;
};

/** Attaching it forces the observer path and does nothing else. */
class NoopObserver final : public trips::sim::BlockObserver
{
  public:
    void onBlockCommit(const trips::isa::Block &,
                       const trips::sim::BlockRecord &) override
    {}
};

/** Parallel-engine counts parsed from a written engine trace. */
struct EngineCounts
{
    u64 quanta = 0;           ///< barrier completions
    u64 replayed = 0;         ///< uncore ops replayed at barriers
    u64 reclones = 0;         ///< shadow re-clones
};

/** Read a TraceSink file written with the engine trace attached;
 *  false if the file cannot be read. */
bool parseEngineTrace(const std::string &path, EngineCounts &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
