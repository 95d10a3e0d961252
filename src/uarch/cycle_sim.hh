/**
 * @file
 * Cycle-level simulator of the tiled TRIPS microarchitecture.
 *
 * Models the distributed protocols of the prototype: block fetch
 * through the I-cache banks, row-rate dispatch into the execution
 * tiles' reservation stations, dataflow issue (one instruction per ET
 * per cycle), operand routing over the 5x5 wormhole OPN with local
 * bypass, banked register tiles with inter-block forwarding, data
 * tiles with LSQs, a store-load dependence predictor and violation
 * flushes, next-block prediction with speculative block chaining
 * (up to 8 blocks in flight), and the block completion/commit
 * protocol. Architectural state (register file + memory image) is
 * updated only at commit, so the model commits exactly the same block
 * stream as the functional simulator (asserted by tests).
 *
 * The secondary memory system (NUCA L2 + OCN + DRAM) is *not* part of
 * this class: L1 misses, I-fetch misses, and writeback traffic go
 * through an explicit request/response port to a mem::MemorySystem.
 * A solo core owns a private single-core instance (bit-identical to
 * the historical private hierarchy); under ChipSim, N cores attach to
 * one shared instance and contend for its banks and OCN links.
 *
 * The per-cycle machinery is allocation-free in steady state: packet
 * payloads live in a table indexed by the router's flit slot, a packet
 * enters the router when it is queued (unless older packets still wait
 * in the outbox), and the router hands each arrival straight to the
 * packet handler. Timed events sit in a bucketed timing wheel (bounded
 * latencies) with a small overflow heap (rare long-latency DRAM
 * replies), and every per-tile queue is a reuse-friendly
 * SmallVec/RingQueue. Event order is fully deterministic: same-cycle
 * events fire in push order. Wheel buckets are FIFO; the overflow heap
 * orders by (when, push sequence); and an overflow event due at cycle
 * W was pushed at least a wheel span before any wheel event for W, so
 * draining due overflow events before the bucket is push order
 * (DESIGN.md §13).
 */

#ifndef TRIPSIM_UARCH_CYCLE_SIM_HH
#define TRIPSIM_UARCH_CYCLE_SIM_HH

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "isa/program.hh"
#include "isa/topology.hh"
#include "mem/cache.hh"
#include "mem/memsys.hh"
#include "net/opn.hh"
#include "pred/predictors.hh"
#include "support/fields.hh"
#include "support/memimage.hh"
#include "support/pool.hh"
#include "uarch/config.hh"

namespace trips::sim {
struct Checkpoint;
}

namespace trips::obs {
struct CoreObs;
}

namespace trips::uarch {

/** Aggregate results of a cycle-level run. */
struct UarchResult
{
    i64 retVal = 0;
    bool fuelExhausted = false;

    u64 cycles = 0;
    u64 blocksCommitted = 0;
    u64 blocksFlushed = 0;
    u64 instsFetched = 0;       ///< in committed blocks
    u64 instsFired = 0;         ///< executed in committed blocks

    // Speculation events.
    u64 branchMispredicts = 0;  ///< next-block mispredictions (commits)
    u64 callRetMispredicts = 0;
    u64 loadViolationFlushes = 0;
    u64 icacheMissStalls = 0;   ///< block fetches that missed L1I

    // Memory system.
    u64 l1dHits = 0, l1dMisses = 0;
    u64 l1iHits = 0, l1iMisses = 0;     ///< per I-cache line access
    u64 l2Hits = 0, l2Misses = 0;
    u64 l1dWritebacks = 0;      ///< dirty L1D victims drained (stats-only)
    u64 l2Writebacks = 0;       ///< dirty L2 victims this core's refills evicted
    u64 loadsExecuted = 0, storesCommitted = 0;
    u64 bytesL1 = 0;            ///< bytes moved L1D<->core
    u64 bytesL2 = 0;            ///< bytes moved L2->L1 (refills)
    u64 bytesMem = 0;           ///< bytes moved DRAM->L2

    // Window occupancy (per-cycle samples).
    double avgBlocksInFlight = 0;
    double avgInstsInFlight = 0;    ///< dispatched insts in valid frames
    u64 peakInstsInFlight = 0;

    // Predictor detail.
    pred::NextBlockStats predictor;

    // OPN traffic profile (per class; bucket = hop count).
    std::array<Distribution,
               static_cast<size_t>(net::OpnClass::NUM_CLASSES)> opnHops;
    u64 opnPackets = 0;
    u64 localBypasses = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(instsFired) / cycles : 0;
    }

    /** Every field in declaration order (support/fields.hh). */
    template <class Self, class F>
    static constexpr void
    forEachField(Self &s, F &&f)
    {
        f("retVal", s.retVal);
        f("fuelExhausted", s.fuelExhausted);
        f("cycles", s.cycles);
        f("blocksCommitted", s.blocksCommitted);
        f("blocksFlushed", s.blocksFlushed);
        f("instsFetched", s.instsFetched);
        f("instsFired", s.instsFired);
        f("branchMispredicts", s.branchMispredicts);
        f("callRetMispredicts", s.callRetMispredicts);
        f("loadViolationFlushes", s.loadViolationFlushes);
        f("icacheMissStalls", s.icacheMissStalls);
        f("l1dHits", s.l1dHits);
        f("l1dMisses", s.l1dMisses);
        f("l1iHits", s.l1iHits);
        f("l1iMisses", s.l1iMisses);
        f("l2Hits", s.l2Hits);
        f("l2Misses", s.l2Misses);
        f("l1dWritebacks", s.l1dWritebacks);
        f("l2Writebacks", s.l2Writebacks);
        f("loadsExecuted", s.loadsExecuted);
        f("storesCommitted", s.storesCommitted);
        f("bytesL1", s.bytesL1);
        f("bytesL2", s.bytesL2);
        f("bytesMem", s.bytesMem);
        f("avgBlocksInFlight", s.avgBlocksInFlight);
        f("avgInstsInFlight", s.avgInstsInFlight);
        f("peakInstsInFlight", s.peakInstsInFlight);
        f("predictor", s.predictor);
        f("opnHops", s.opnHops);
        f("opnPackets", s.opnPackets);
        f("localBypasses", s.localBypasses);
    }
};
static_assert(sizeof(UarchResult) == fieldListSize<UarchResult>(),
              "UarchResult: forEachField must list every field");

class CycleSim
{
  public:
    /** Solo core: owns a private single-core uncore derived from the
     *  config (bit-identical to the historical private hierarchy). */
    CycleSim(const isa::Program &prog, MemImage &mem,
             const UarchConfig &cfg = UarchConfig{});

    /** Chip core: attaches to a shared uncore port as @p core_id (the
     *  MemorySystem itself under the serial lockstep engine, or a
     *  per-core buffering proxy under the parallel engine). The port
     *  must outlive the core; ChipSim drives these via
     *  stepCycle()/done()/finish(). */
    CycleSim(const isa::Program &prog, MemImage &mem,
             const UarchConfig &cfg, mem::UncorePort &uncore_,
             unsigned core_id);

    ~CycleSim();

    /** Run to halt (RET from the outermost frame). */
    UarchResult run();

    /**
     * Warm-start: begin detailed simulation from an architectural
     * checkpoint instead of block 0. Must be called before the first
     * cycle, and the bound MemImage must already hold the
     * checkpoint's memory image (FuncSim::restore or a plain copy of
     * Checkpoint::mem). Registers, call stack, and the first fetch
     * block come from the checkpoint; caches and predictors start
     * cold (the sampling layer re-warms them with discarded detailed
     * blocks — see DESIGN.md §7). blocksCommitted counts only blocks
     * committed after the restore point.
     */
    void warmStart(const sim::Checkpoint &ck);

    /**
     * Make done() fire once @p n blocks have committed (0 = off,
     * the default). A run stopped at the block bound does not report
     * fuelExhausted; used for bounded detailed sampling intervals.
     */
    void stopAfterBlocks(u64 n) { stopAtBlocks = n; }

    /**
     * Attach observability (obs/obs.hh: event tracing, sampled
     * metrics, stall attribution); call before the first cycle, or
     * with nullptr to detach. The hooks only read simulator state:
     * results are bit-identical attached vs not (the null-sink fast
     * path is one predicated pointer test per instrumented site).
     */
    void attachObs(const obs::CoreObs *o);

    // Lockstep driving (ChipSim): one cycle at a time.
    void stepCycle();
    bool
    done() const
    {
        return halted || now >= cfg.maxCycles ||
               (stopAtBlocks && res.blocksCommitted >= stopAtBlocks);
    }
    bool isHalted() const { return halted; }
    Cycle currentCycle() const { return now; }
    /** Live progress counters (for block-bounded sampling loops). */
    u64 committedSoFar() const { return res.blocksCommitted; }
    u64 firedSoFar() const { return res.instsFired; }
    /** Finalize the result after done(); call once. */
    UarchResult finish();

  private:
    struct Frame;
    struct DtState;

    /** Payload of an OPN packet: kept in `payload` at the packet's
     *  flit slot while it is in the router, by value in the outbox and
     *  in a data tile's queue. Frame slots (< 8) and instruction slots
     *  (< 128) fit a byte each. */
    struct PacketData
    {
        enum class Kind : u8 { Operand, WriteArrive, MemRequest, Branch };
        u64 value = 0;
        Addr addr = 0;      ///< MemRequest only
        u32 epoch = 0;
        u8 fidx = 0;
        /** Consumer slot / write slot / memory inst / branch inst. */
        u8 inst = 0;
        Kind kind = Kind::Operand;
        u8 arg = 0;         ///< TokenArg (Operand, WriteArrive)
    };
    static_assert(sizeof(PacketData) == 24);
    static_assert(isa::MAX_INSTS <= 256, "instruction slots fit a u8");

    /** A packet the router refused (its local input FIFO was full),
     *  retried every cycle in queue order. */
    struct Outgoing
    {
        net::OpnPacket pkt;
        PacketData pd;
    };

    struct ReadyEntry
    {
        u32 epoch;
        u8 fidx;
        u8 inst;
    };

    /** A queued header read. A read that had to wait keeps the older
     *  frame and empty write slot it waited on, and skips the
     *  frame-queue walk while that slot stays empty. */
    struct RtRead
    {
        static constexpr u8 WAIT_NONE = 0xff;
        unsigned fidx;
        u32 epoch;
        u16 readIdx;
        u8 waitSlot = WAIT_NONE;    ///< WAIT_NONE or the blocking write slot
        u8 waitFidx = 0;
        u32 waitEpoch = 0;
    };

    /** A token's operand slot and nullness packed in one byte, so an
     *  Event fits 16 bytes and a PacketData 24. */
    struct TokenArg
    {
        static constexpr u8 NULL_BIT = 0x80;

        static u8
        make(unsigned operand, bool is_null)
        {
            return static_cast<u8>(operand | (is_null ? NULL_BIT : 0));
        }
        static unsigned operand(u8 a) { return a & 3; }
        static bool isNull(u8 a) { return a & NULL_BIT; }
    };

    /** A timed event, packed to 16 bytes: wheel buckets copy these by
     *  value, and the bucket an event sits in is its due cycle. */
    struct Event
    {
        enum Kind : u8 { ExecDone, TokenDeliver, GtWriteNote, GtStoreNote,
                         LoadReply };
        u64 value = 0;
        u32 epoch = 0;
        u8 fidx = 0;
        u8 inst = 0;        ///< instruction slot, or a store note's LSID
        Kind kind = ExecDone;
        u8 arg = 0;         ///< TokenArg (ExecDone, TokenDeliver)
    };
    static_assert(sizeof(Event) == 16);

    /** Overflow-heap entry: same-cycle entries fire in push order. */
    struct FarEvent
    {
        Cycle when = 0;
        u64 seq = 0;
        Event ev;

        bool operator<(const FarEvent &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** Timing-wheel span: covers every bounded latency in the model
     *  (ALU <= 24, status/token/cache-hit <= ~40 with NUCA steps);
     *  longer waits (DRAM replies) take the overflow heap. */
    static constexpr unsigned WHEEL_BITS = 6;
    static constexpr unsigned WHEEL_SIZE = 1u << WHEEL_BITS;
    static constexpr unsigned WHEEL_MASK = WHEEL_SIZE - 1;

    // Pipeline stages per cycle.
    void tickFetch();
    void tickDispatch();
    void tickRts();
    void tickEts();
    void tickDts();
    void tickCommit();
    void pumpOutbox();
    void drainEvents();
    bool rtStillWaiting(const RtRead &rr) const;

    // Helpers.
    void initCommon();
    void startFetch(u32 block_idx);
    void issueInst(unsigned fidx, unsigned inst, unsigned et);
    bool olderStoresDone(unsigned fidx, u16 inst) const;
    void sendMemRequest(unsigned fidx, unsigned inst, Addr ea, u64 value);
    void resolveBranch(unsigned fidx, u16 inst, u8 exit);
    void tryResolveRets();
    void onNextKnown(unsigned fidx);
    void flushYoungerThan(unsigned fidx);
    void flushFrameAndYounger(unsigned fidx, u32 restart_block);
    void squashFrame(unsigned idx);
    bool frameOlder(unsigned a, unsigned b) const;
    void deliverToken(Frame &f, unsigned fidx, unsigned inst,
                      unsigned operand, u64 value, bool is_null);
    void maybeWake(Frame &f, unsigned fidx, unsigned inst);
    void finishExecute(Frame &f, unsigned fidx, unsigned inst, u64 value,
                       bool is_null, bool is_load_reply);
    u64 loadValue(unsigned fidx, u8 lsid, Addr addr, u8 width);
    void checkViolations(unsigned fidx, u16 inst, Addr addr, u8 width,
                         u8 lsid);
    Cycle portAccess(Addr addr, bool is_write, unsigned requester_bank,
                     net::OcnClass cls);
    void queuePacket(net::OpnPacket pkt, const PacketData &pd);
    void deliverPacket(unsigned slot);
    void pushEvent(Cycle when, const Event &ev);
    void processEvent(const Event &ev);

    /**
     * One decoded operand target: where a produced value goes. Slots
     * 0..2 are an instruction's operands (dst = that instruction's ET
     * node, index = its slot); WRITE_SLOT is a header write (dst = the
     * register tile of the write's bank, index = the write slot).
     */
    struct RouteTarget
    {
        static constexpr u8 WRITE_SLOT = 3;
        u8 slot = 0;
        u8 dst = 0;
        u8 index = 0;
        bool bypass = false;    ///< same ET as the producer: no network
    };

    /** Traffic classes a producer's operand and write packets are
     *  accounted under (Fig. 8). */
    struct SrcClasses
    {
        net::OpnClass operand, write;
    };

    void routeOperand(unsigned fidx, u32 epoch, unsigned src_node,
                      const RouteTarget &t, SrcClasses cls, u64 value,
                      bool is_null);

    /**
     * Per-instruction static facts, decoded once per block and kept
     * hot: the wake/issue/route paths run every cycle and would
     * otherwise re-read the wide Instruction record, the opcode table,
     * the placement vector and the consumers' placement each time.
     * Issue and the data tiles read nothing else.
     */
    struct InstMeta
    {
        u8 et = 0;          ///< execution tile index (0..15)
        u8 etNode = 0;      ///< OPN node id of that ET
        u8 numInputs = 0;
        u8 latency = 0;
        u8 flags = 0;       ///< see FL_* below
        u8 lsid = 0;
        u8 numTargets = 0;  ///< valid entries of tgt, in field order
        isa::Opcode op = isa::Opcode::MOV;
        i32 imm = 0;
        RouteTarget tgt[2];
    };
    enum : u8 {
        FL_PREDICATED = 1 << 0,
        FL_PRED_ON_TRUE = 1 << 1,
        FL_BRANCH = 1 << 2,
        FL_MEMORY = 1 << 3,
        FL_LOAD = 1 << 4,
    };

    /** A block's decoded static facts (built lazily, on first fetch). */
    struct BlockMeta
    {
        std::vector<InstMeta> insts;
        /** Per header read: its register and decoded targets. */
        struct Read
        {
            u8 reg = 0;
            u8 numTargets = 0;
            RouteTarget tgt[2];
        };
        std::vector<Read> reads;
        /** Bit per architectural register the block writes. */
        std::array<u64, 2> writeMask{};
    };
    static_assert(isa::NUM_REGS <= 128, "write mask is two u64 words");

    const BlockMeta &metaFor(u32 block_idx);

    const isa::Program &prog;
    MemImage &mem;
    UarchConfig cfg;

    std::vector<BlockMeta> blockMeta;  ///< per block, lazy

    std::array<u64, isa::NUM_REGS> regfile{};
    std::vector<u32> archStack;

    std::vector<Frame> frames;           ///< cfg.numFrames slots
    RingQueue<unsigned, 8> frameQueue;   ///< oldest..youngest (positions)
    u64 nextSeq = 1;

    net::OpnNetwork opn;
    /** Payload of the packet in each router flit slot. */
    std::array<PacketData, net::OpnNetwork::SLOTS> payload{};
    /** Refused packets, oldest first; while it holds any, new packets
     *  queue behind them (DESIGN.md §13). */
    SmallVec<Outgoing, 16> outbox;

    // Event machinery: wheel buckets hold same-cycle events in push
    // order; the overflow heap is ordered by (when, push sequence).
    // A bucket is a fixed array of BUCKET_SLOTS events and a count; the
    // events past BUCKET_SLOTS (rare) follow in that bucket's spill
    // vector, which keeps its buffer once grown.
    static constexpr unsigned BUCKET_SLOTS = 8;
    std::array<std::array<Event, BUCKET_SLOTS>, WHEEL_SIZE> wheel{};
    std::array<u32, WHEEL_SIZE> wheelCount{};
    std::array<std::vector<Event>, WHEEL_SIZE> wheelSpill;
    std::priority_queue<FarEvent> overflow;
    u64 overflowSeq = 0;

    mem::Cache l1i;
    std::vector<mem::Cache> l1d;      ///< 4 banks (private)
    /** Port to the uncore (shared NUCA L2 + OCN + DRAM). Solo cores
     *  own a private single-core instance; chip cores attach to the
     *  ChipSim's shared one (directly, or through the parallel
     *  engine's per-core proxy). */
    std::unique_ptr<mem::MemorySystem> ownedUncore;
    mem::UncorePort *uncore;
    unsigned coreId = 0;
    pred::NextBlockPredictor predictor;
    pred::DependencePredictor depPred;

    std::vector<DtState> dts;
    u8 dtBusy = 0;         ///< bit per DT bank with queued requests
    std::array<SmallVec<ReadyEntry, 32>, isa::NUM_ETS> etReady;
    u32 etReadyMask = 0;   ///< bit per ET with a non-empty ready queue
    std::array<RingQueue<RtRead, 16>, isa::NUM_REG_BANKS> rtQueues;
    u8 rtBusy = 0;         ///< bit per register bank with queued reads

    std::vector<u32> retStack;        ///< tryResolveRets scratch (reused)
    unsigned retsPending = 0;         ///< frames with an unresolved RET

    // Fetch/dispatch engine.
    i32 fetchingFrame = -1;           ///< frame being fetched/dispatched
    Cycle fetchReadyAt = 0;
    unsigned dispatchCursor = 0;
    u32 nextFetchBlock = 0;
    bool fetchStalled = false;        ///< halted: no more fetch

    Cycle now = 0;
    UarchResult res;
    bool halted = false;
    u64 stopAtBlocks = 0;      ///< done() once this many blocks commit

    // Commit engine.
    Cycle commitDoneAt = 0;
    bool committing = false;

    // Observability (null = disabled: the fast path). The obs*
    // members are written only while attached and are never read by
    // the simulation proper.
    void obsCycleTick();
    void obsBlockCommit(const Frame &f);
    void obsNoteMem(const mem::MemResponse &resp, net::OcnClass cls);
    void obsSample();
    const obs::CoreObs *obs_ = nullptr;
    u64 obsLastCommitted = 0;     ///< commit-cycle edge detector
    u32 obsLastCommitBlock = 0;
    Cycle obsConflictUntil = 0;   ///< youngest bank-conflict release
    Cycle obsMemBusyUntil = 0;    ///< youngest uncore completion
    u64 obsConflictCycles = 0;    ///< cumulative (counter track)
    std::array<u32, 8> obsMid_{}; ///< registered metric ids

    // Window occupancy, maintained incrementally (no per-cycle walk).
    u64 liveInsts = 0;                ///< dispatched insts in queued frames
    double sumBlocksInFlight = 0;
    double sumInstsInFlight = 0;
};

} // namespace trips::uarch

#endif // TRIPSIM_UARCH_CYCLE_SIM_HH
