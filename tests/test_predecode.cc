/**
 * @file
 * Golden-digest suite for the functional engine (src/trips/func_sim.*,
 * src/trips/predecode.*). The digests below were captured from the
 * token-scatter interpreter the pre-decoded engine replaced, except
 * the rows and fuzz-slice digests of programs whose compiled code later
 * changed, which the pre-decoded engine recorded: per
 * workload and compiler preset, the retVal, committed blocks, the
 * serialized ISA stats, the final data segment, and the observer
 * record stream (each record's fired set sorted by slot, since the
 * fire order itself is only promised up to the observer contract).
 * One aggregate digest covers a differential fuzz slice. Also: the
 * record memo under a late observer and a checkpoint restore, the
 * observer contract on generated programs, decodeBlock unit tests,
 * commits through the stats memo, and the decoded-block cache
 * accounting.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "compiler/codegen.hh"
#include "harness/fuzzgen.hh"
#include "harness/sweep.hh"
#include "ideal/ideal.hh"
#include "sim/checkpoint.hh"
#include "support/error.hh"
#include "support/fields.hh"
#include "trips/func_sim.hh"
#include "trips/predecode.hh"
#include "wir/interp.hh"
#include "workloads/workload.hh"

using namespace trips;

namespace {

/** FNV-1a over little-endian fields. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ull;

    void
    put(u64 v, int bytes)
    {
        for (int i = 0; i < bytes; ++i)
            h = (h ^ static_cast<u8>(v >> (8 * i))) * 0x100000001b3ull;
    }
};

/** Digests the observer stream, each record's fired set in slot order;
 *  also keeps one digest per record, in stream order. */
class DigestObserver : public sim::BlockObserver
{
  public:
    void
    onBlockCommit(const isa::Block &, const sim::BlockRecord &rec) override
    {
        Digest one;
        auto put = [&](u64 v, int bytes) {
            d.put(v, bytes);
            one.put(v, bytes);
        };
        put(rec.blockIdx, 4);
        put(rec.nextBlock, 4);
        put(rec.exitTaken, 1);
        put(rec.isCall, 1);
        put(rec.isRet, 1);
        put(rec.halts, 1);
        put(rec.branchInst, 2);
        fired = rec.fired;
        std::sort(fired.begin(), fired.end(),
                  [](const sim::FiredOp &a, const sim::FiredOp &b) {
                      return a.inst < b.inst;
                  });
        put(fired.size(), 4);
        for (const auto &f : fired) {
            put(f.inst, 2);
            put(static_cast<u16>(f.prodOp0), 2);
            put(static_cast<u16>(f.prodOp1), 2);
            put(static_cast<u16>(f.prodPred), 2);
            put(f.addr, 8);
            put(f.width, 1);
            put(f.nullToken, 1);
        }
        put(rec.writeProducer.size(), 4);
        for (size_t w = 0; w < rec.writeProducer.size(); ++w) {
            put(static_cast<u16>(rec.writeProducer[w]), 2);
            put(rec.writeIsNull[w], 1);
        }
        records.push_back(one.h);
    }

    Digest d;
    std::vector<u64> records;

  private:
    std::vector<sim::FiredOp> fired;
};

/** One program's functional outcome, reduced to digests. */
struct Outcome
{
    i64 retVal = 0;
    u64 blocks = 0;
    bool fuelExhausted = false;
    u64 isa = 0;  ///< IsaStats record bytes
    u64 mem = 0;  ///< final data segment
    u64 obs = 0;  ///< observer stream
};

Outcome
runDigests(const isa::Program &prog, const wir::Module &mod)
{
    Outcome o;
    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    auto res = fsim.run();
    o.retVal = res.retVal;
    o.blocks = fsim.blocksExecuted();
    o.fuelExhausted = res.fuelExhausted;
    sim::ByteWriter w;
    sim::putFields(w, res.stats);
    Digest isa;
    for (u8 b : w.data())
        isa.put(b, 1);
    o.isa = isa.h;
    Digest data;
    for (const auto &g : mod.globals) {
        for (u64 i = 0; i < g.size; ++i)
            data.put(mem.read8(g.addr + i), 1);
    }
    o.mem = data.h;

    // The same program observed: the record stream, and no change to
    // the architectural outcome.
    MemImage omem;
    wir::Interp::loadGlobals(mod, omem);
    sim::FuncSim observed(prog, omem);
    DigestObserver obs;
    observed.addObserver(&obs);
    auto ores = observed.run();
    EXPECT_EQ(ores.retVal, res.retVal);
    EXPECT_EQ(fieldDiff(ores.stats, res.stats), "")
        << "observing changed the ISA stats";
    o.obs = obs.d.h;
    return o;
}

// ---------------------------------------------------------------------
// Every workload, both presets: pinned outcomes.
// ---------------------------------------------------------------------

struct Golden
{
    const char *workload;
    bool hand;
    i64 retVal;
    u64 blocks;
    u64 isa, mem, obs;
};

const Golden kGolden[] = {
    {"vadd", false, 9, 2050, 0xfcc4d84e8a906460ull, 0x2210c2c70b41bd36ull, 0xae169603b6839ba2ull},
    {"vadd", true, 9, 1538, 0x7dbb9b3359574052ull, 0x2210c2c70b41bd36ull, 0xce1adfaf9794d6e8ull},
    {"ct", false, -995, 1177, 0x5e5f109726d2d854ull, 0x18526d931f96beddull, 0x10ec785b3c32ee9bull},
    {"ct", true, -995, 897, 0xf01f699b1daa76e7ull, 0x18526d931f96beddull, 0xf096ffbfe8b8a9e3ull},
    {"conv", false, -133, 30721, 0x770712f294631bdcull, 0xdaa160e94a27ade0ull, 0xca9d5e8878b63b8bull},
    {"conv", true, -133, 18433, 0x109ac5b978ce0972ull, 0xdaa160e94a27ade0ull, 0xb30f09da60e030cbull},
    {"matrix", false, 10, 35241, 0xafcb25c57cb76584ull, 0x9c8b50e7dde55f81ull, 0xe47e48ac45497e97ull},
    {"matrix", true, 10, 25641, 0xdd7e33f8892547c1ull, 0x9c8b50e7dde55f81ull, 0xdad2a35404e840f7ull},
    {"fmradio", false, 49359941, 19976, 0xb9bcf661d6ade408ull, 0x5ad01531c68487a7ull, 0x2883f0ee47e74b94ull},
    {"fmradio", true, 49359941, 13318, 0xa6ddfa8f2391a57aull, 0x5ad01531c68487a7ull, 0x36e40dd8f96dcab2ull},
    {"802.11a", false, 9150697957434780806, 4783, 0x27503d77798c654eull, 0x7c1339f17d469bc7ull, 0x8930dc42c24d1d5aull},
    {"802.11a", true, 9150697957434780806, 4099, 0xf697241f71eae08eull, 0x7c1339f17d469bc7ull, 0xbb751644ac5fa803ull},
    {"8b10b", false, 4, 8193, 0x8177f90f9287690bull, 0x504a46e0a3010b41ull, 0x81541f66a29fd30full},
    {"8b10b", true, 4, 4097, 0x39e37ae86372ec7cull, 0x504a46e0a3010b41ull, 0xbed494342aa65b29ull},
    {"a2time", false, 5148, 4097, 0x9a9a31ab6305717dull, 0xc56610474d62c5efull, 0x87ac4f0cdcf0488bull},
    {"a2time", true, 5148, 4097, 0x9a9a31ab6305717dull, 0xc56610474d62c5efull, 0x87ac4f0cdcf0488bull},
    {"rspeed", false, 3096, 4097, 0x72f559d7540f1965ull, 0xeadeb65d989fe877ull, 0xc235a75b9a010268ull},
    {"rspeed", true, 3096, 8173, 0xfa49b01700382d04ull, 0xeadeb65d989fe877ull, 0xea20b33379578ef7ull},
    {"ospf", false, 1200, 2476, 0x07653718c17e1e61ull, 0x1f558d8c1e64b331ull, 0x7e4de584bea1345cull},
    {"ospf", true, 1200, 2480, 0x135a3506a0f14669ull, 0x1f558d8c1e64b331ull, 0xaae9344ab64292d5ull},
    {"routelookup", false, 453519, 6903, 0xbbdca7f0da403f84ull, 0x2c13d74e8e6b7323ull, 0xbb661c5326deee02ull},
    {"routelookup", true, 453519, 6889, 0xbfa9c05ec79b1f15ull, 0x2c13d74e8e6b7323ull, 0xd2b04666e389df4cull},
    {"autocor", false, -13996716, 16417, 0x697cfb48b933b5c7ull, 0x2e7df362699e7cb1ull, 0x127cae23efc4293eull},
    {"autocor", true, -13996716, 10961, 0x97d3fecbbfa0516bull, 0x2e7df362699e7cb1ull, 0x9d95f3f613ec3d6aull},
    {"conven", false, -7283794184174951865, 8193, 0x4712a4d12527e006ull, 0x30d5291e5ac7772eull, 0x93dabd573e47f571ull},
    {"conven", true, -7283794184174951865, 8193, 0x4712a4d12527e006ull, 0x30d5291e5ac7772eull, 0x93dabd573e47f571ull},
    {"fbital", false, 1400, 1865, 0xa7ebb6ac5787b8a2ull, 0x232f44d83b2ee190ull, 0xeceaefd7fb59ed3full},
    {"fbital", true, 1400, 2599, 0x03a5813a1b201393ull, 0x232f44d83b2ee190ull, 0xab3b2682c786f4d4ull},
    {"fft", false, -1419, 3712, 0x5898ed100da81807ull, 0x47234b48aaea124aull, 0xd6f9ce5987d25767ull},
    {"fft", true, -1419, 2688, 0xe9f17c8f2ea28bd0ull, 0x47234b48aaea124aull, 0xce00f24a5ae70c66ull},
    {"bitmnp", false, 124097, 16385, 0xd32268e90678b8f6ull, 0xf0eee1c46062dd7bull, 0xa34300de093e3068ull},
    {"idctrn", false, -44, 25153, 0x01c495f3fcc520b8ull, 0x2877851c6ffd90cbull, 0x56152fc5036c293cull},
    {"bzip2", false, 13208, 81980, 0xf8a2ed8587af4d13ull, 0xf547ad5e570ea36dull, 0xb3b6611375c7f02dull},
    {"crafty", false, 398220, 8193, 0x7c6dacf1f6046a89ull, 0x5d3ca838d366e0b1ull, 0xe16b4fb37eea7e9eull},
    {"gcc", false, 4032, 98317, 0xb3dbac747b5a3e74ull, 0xdeb178b0a04262aeull, 0x04283fd97ca08aa6ull},
    {"gzip", false, 3324, 15586, 0x1df3af4f1237b754ull, 0xb46fb167a68001e7ull, 0x67130c30031eb7e1ull},
    {"mcf", false, 1279, 20620, 0xeb80cee4d2003edeull, 0xb37736840ee6236dull, 0xea0e59fa5f7cd433ull},
    {"parser", false, 7, 54273, 0x4720df1e06859411ull, 0x7998e0391b451a78ull, 0xea90b35da48008f3ull},
    {"perlbmk", false, 1347093, 61337, 0xca1b7e4c8cd1ad7aull, 0xba186f2a1aaf8adbull, 0x8f06d184f169a62dull},
    {"twolf", false, -6835872, 20442, 0x17afd3221ffd6dbcull, 0x9065aad16bb73af4ull, 0x943f9332902e0bbcull},
    {"vortex", false, 6377, 28673, 0x4fc11c99ae0feac8ull, 0xa1469db3dbdfd6f0ull, 0x2f014d6b013b0575ull},
    {"vpr", false, 2779, 11313, 0x2719030ee29f1d55ull, 0x78ab7bd30a9b257bull, 0x7f321ab4f12f1f15ull},
    {"applu", false, 677836, 23443, 0x7edee04766f22b3full, 0x2971b534a9a5d970ull, 0x9b9ada66e313523bull},
    {"apsi", false, 540, 17289, 0xba433abdb67b09dcull, 0x4097f1030a436121ull, 0x15ac094f602f6b0eull},
    {"art", false, 88, 34321, 0x93c3e7900490bc91ull, 0xa6efc4386449b1d2ull, 0xfd1b2d941abb250full},
    {"equake", false, 294122, 79885, 0xee90f49c042b6b82ull, 0x03f6615b53724dbeull, 0x65849475b8df0d55ull},
    {"mesa", false, 1838, 9528, 0x723d96d445f8d39bull, 0x8b49a55bb4db32e2ull, 0x7c11f89aa00e9f91ull},
    {"mgrid", false, 251333, 26371, 0x4c98562fe21af931ull, 0xe1d74fc1afe33b85ull, 0x5e1d580045887584ull},
    {"swim", false, 50630, 23444, 0xbb24adc07d83bf6dull, 0x0006742f38591c75ull, 0xca53ca4b2a823d84ull},
    {"wupwise", false, -112, 8441, 0x818ebfb1d858d4ecull, 0xbee5442785d4d3e0ull, 0x034b110646db5a4aull},
    {"axpy", false, 916, 1368, 0x0a042d2de16e485full, 0x637c44a394000b77ull, 0x5d4d88de4f24578bull},
    {"axpy_unroll", false, 916, 1025, 0x2ada04c4e0573426ull, 0x637c44a394000b77ull, 0x3382e1fdd83388c5ull},
    {"dot", false, 508, 1368, 0x3ffee4089b153e29ull, 0x4e59eb945dffc089ull, 0xc5c429f677b15e68ull},
    {"dot_unroll", false, 508, 1025, 0x74be6fb1e45af64cull, 0x4e59eb945dffc089ull, 0x2e549488365932a6ull},
    {"gemv", false, -929, 1249, 0xa9e66afbb5ecd66full, 0x437239a750762ecaull, 0x913254fab9cddfb5ull},
    {"gemv_tiled", false, -929, 589, 0xe58bed64365268cfull, 0x437239a750762ecaull, 0x7e23e558b8fcc18dull},
    {"matmul", false, 266, 8089, 0x8ecceeac453e49dfull, 0xc21686c3992ad9e1ull, 0x707afc7cf7482697ull},
    {"matmul_tiled", false, 266, 2672, 0xb3a1df9316c3ea0cull, 0xc21686c3992ad9e1ull, 0x5170bb95f601b443ull},
    {"matmul_tiled_unroll", false, 266, 1696, 0x977e116fe178656aull, 0xc21686c3992ad9e1ull, 0x8fabaae759b319bfull},
};

TEST(FuncGolden, AllWorkloadsBothPresets)
{
    // The table must cover the registry: every workload compiled, and
    // the Simple suite hand-scheduled too.
    size_t expected = 0;
    for (const auto &w : workloads::all())
        expected += w.isSimple ? 2 : 1;
    EXPECT_EQ(std::size(kGolden), expected);

    for (const Golden &g : kGolden) {
        const std::string what =
            std::string(g.workload) + (g.hand ? "/hand" : "/compiled");
        wir::Module mod;
        workloads::find(g.workload).build(mod);
        auto prog = compiler::compileToTrips(
            mod, g.hand ? compiler::Options::hand()
                        : compiler::Options::compiled());
        Outcome o = runDigests(prog, mod);
        EXPECT_FALSE(o.fuelExhausted) << what;
        EXPECT_EQ(o.retVal, g.retVal) << what;
        EXPECT_EQ(o.blocks, g.blocks) << what;
        EXPECT_EQ(o.isa, g.isa) << what << ": ISA stats";
        EXPECT_EQ(o.mem, g.mem) << what << ": data segment";
        EXPECT_EQ(o.obs, g.obs) << what << ": observer stream";
    }
}

// ---------------------------------------------------------------------
// Differential fuzz slice: one aggregate digest per stream.
// ---------------------------------------------------------------------

constexpr u64 FUZZ_BASE = 0xdec0ded;
constexpr u64 FUZZ_COUNT = 500;

TEST(FuncGolden, FuzzSliceDigest)
{
    Digest arch, obs;
    harness::ShapeConfig shape;
    for (u64 i = 0; i < FUZZ_COUNT; ++i) {
        wir::Module mod =
            harness::generate(harness::taskSeed(FUZZ_BASE, i), shape);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());
        Outcome o = runDigests(prog, mod);
        arch.put(static_cast<u64>(o.retVal), 8);
        arch.put(o.blocks, 8);
        arch.put(o.fuelExhausted, 1);
        arch.put(o.isa, 8);
        arch.put(o.mem, 8);
        obs.put(o.obs, 8);
    }
    EXPECT_EQ(arch.h, 0x826a8664c8416c91ull) << "architectural outcomes";
    EXPECT_EQ(obs.h, 0x7034960bf24e5deeull) << "observer streams";
}

// ---------------------------------------------------------------------
// Record-memo validity. Observed runs reuse a record per stats-memo way
// (DecodedBlock::recMemo); an observer attached mid-run must still see
// exactly the records a run observed from the start sees, even though
// the ways were filled by unobserved blocks. Loops whose instances
// repeat one fired/null pattern at different addresses (vadd, matrix)
// check that addresses are never taken from the memo.
// ---------------------------------------------------------------------

TEST(RecordMemo, LateObserverSeesFullRunSuffix)
{
    for (const char *name : {"vadd", "matrix", "mcf", "crafty"}) {
        wir::Module mod;
        workloads::find(name).build(mod);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());

        MemImage fullMem;
        wir::Interp::loadGlobals(mod, fullMem);
        sim::FuncSim full(prog, fullMem);
        DigestObserver all;
        full.addObserver(&all);
        full.run();
        const u64 total = all.records.size();
        ASSERT_GT(total, 64u) << name;

        // The stream from record @p from on must match the full run's.
        auto expectSuffix = [&](const DigestObserver &late, u64 from,
                                const std::string &what) {
            ASSERT_EQ(late.records.size(), total - from) << what;
            for (u64 i = 0; i < late.records.size(); ++i) {
                ASSERT_EQ(late.records[i], all.records[from + i])
                    << what << ": record " << from + i;
            }
        };

        for (u64 k : {u64{1}, u64{17}, total / 3, total - 5}) {
            const std::string what =
                std::string(name) + " observed from block " +
                std::to_string(k);
            MemImage mem;
            wir::Interp::loadGlobals(mod, mem);
            sim::FuncSim fsim(prog, mem);
            ASSERT_TRUE(fsim.run(k).fuelExhausted) << what;
            DigestObserver late;
            fsim.addObserver(&late);
            fsim.run();
            expectSuffix(late, k, what);
        }

        // Restore rewinds the architectural state but not the memo: run
        // on unobserved past a checkpoint, rewind to it, then observe.
        for (u64 k : {total / 4, total / 2}) {
            const std::string what = std::string(name) +
                                     " observed after restore to block " +
                                     std::to_string(k);
            MemImage mem;
            wir::Interp::loadGlobals(mod, mem);
            sim::FuncSim fsim(prog, mem);
            fsim.run(k);
            sim::Checkpoint ck;
            fsim.snapshot(ck);
            fsim.run(total / 4);
            fsim.restore(ck);
            DigestObserver late;
            fsim.addObserver(&late);
            fsim.run();
            expectSuffix(late, k, what);
        }
    }
}

// ---------------------------------------------------------------------
// The observer contract (func_sim.hh, BlockRecord).
// ---------------------------------------------------------------------

/** Checks every record against the contract and totals fired ops. */
class ContractObserver : public sim::BlockObserver
{
  public:
    void
    onBlockCommit(const isa::Block &b, const sim::BlockRecord &rec) override
    {
        const size_t n = b.insts.size();
        pos.assign(n, -1);
        int lastLsid = -1, lastSlot = -1;
        unsigned branches = 0;
        for (size_t k = 0; k < rec.fired.size(); ++k) {
            const sim::FiredOp &f = rec.fired[k];
            ASSERT_LT(f.inst, n);
            EXPECT_EQ(pos[f.inst], -1) << "slot " << f.inst << " fired twice";
            pos[f.inst] = static_cast<int>(k);
            for (i16 p : {f.prodOp0, f.prodOp1, f.prodPred}) {
                if (p >= 0) {
                    ASSERT_LT(static_cast<size_t>(p), n);
                    EXPECT_GE(pos[p], 0)
                        << "producer " << p << " of slot " << f.inst
                        << " does not precede it";
                } else if (sim::isReadProducer(p)) {
                    EXPECT_LT(sim::readProducerIndex(p), b.reads.size());
                }
            }
            const auto &in = b.insts[f.inst];
            if (isMemory(in.op)) {
                const int lsid = in.lsid, slot = f.inst;
                EXPECT_TRUE(lsid > lastLsid ||
                            (lsid == lastLsid && slot > lastSlot))
                    << "memory ops out of (LSID, slot) order";
                lastLsid = lsid;
                lastSlot = slot;
            }
            if (isBranch(in.op)) {
                ++branches;
                EXPECT_EQ(f.inst, rec.branchInst);
            }
        }
        EXPECT_EQ(branches, 1u);
        ASSERT_EQ(rec.writeProducer.size(), b.writes.size());
        for (i16 p : rec.writeProducer) {
            if (p >= 0)
                EXPECT_GE(pos[p], 0) << "write producer " << p
                                     << " did not fire";
            else
                EXPECT_TRUE(sim::isReadProducer(p))
                    << "committed write without a producer";
        }
        firedTotal += rec.fired.size();
    }

    u64 firedTotal = 0;

  private:
    std::vector<int> pos;
};

TEST(ObserverContract, FuzzSlice)
{
    harness::ShapeConfig shape;
    for (u64 i = 0; i < FUZZ_COUNT; ++i) {
        const u64 seed = harness::taskSeed(FUZZ_BASE, i);
        wir::Module mod = harness::generate(seed, shape);
        auto prog =
            compiler::compileToTrips(mod, compiler::Options::compiled());
        MemImage mem;
        wir::Interp::loadGlobals(mod, mem);
        sim::FuncSim fsim(prog, mem);
        ContractObserver contract;
        ideal::IdealSim idealSim{ideal::IdealConfig{}};
        fsim.addObserver(&contract);
        fsim.addObserver(&idealSim);
        auto res = fsim.run();
        EXPECT_EQ(contract.firedTotal, res.stats.fired) << "seed " << seed;
        EXPECT_EQ(idealSim.result().executed, res.stats.fired)
            << "seed " << seed;
        if (HasFailure()) {
            ADD_FAILURE() << "repro: sweep_main --repro " << seed;
            break;
        }
    }
}

// ---------------------------------------------------------------------
// decodeBlock unit tests.
// ---------------------------------------------------------------------

/** Smallest complete block: GENS feeding the lone write, plus RET. */
isa::Block
trivialBlock()
{
    isa::Block b;
    b.label = "triv";
    isa::Instruction gens;
    gens.op = isa::Opcode::GENS;
    gens.imm = 7;
    gens.targets[0] = {isa::Target::Kind::Write, 0};
    b.insts.push_back(gens);
    isa::Instruction ret;
    ret.op = isa::Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(isa::WriteInst{3});
    return b;
}

TEST(PredecodeUnit, TrivialBlockDecodes)
{
    auto d = sim::decodeBlock(trivialBlock());
    ASSERT_EQ(d.n, 2);
    // Sentinel terminates the schedule.
    ASSERT_EQ(d.insts.size(), 3u);
    EXPECT_EQ(d.insts[2].handler, sim::H_DONE);
    ASSERT_EQ(d.orig.size(), 2u);
    EXPECT_GT(d.bytes(), 0u);
}

TEST(PredecodeUnit, UnvalidatedCyclicBlockThrows)
{
    // Two MOVs feeding each other have no fire schedule. validateBlock
    // rejects the block (test_isa.cc); decoding it anyway is an
    // internal error, never a silent fallback.
    isa::Block b = trivialBlock();
    isa::Instruction m0, m1;
    m0.op = isa::Opcode::MOV;
    m1.op = isa::Opcode::MOV;
    m0.targets[0] = {isa::Target::Kind::Op0, 3}; // m1's slot
    m1.targets[0] = {isa::Target::Kind::Op0, 2}; // m0's slot
    b.insts.push_back(m0);
    b.insts.push_back(m1);
    try {
        sim::decodeBlock(b);
        ADD_FAILURE() << "cyclic block decoded";
    } catch (const TripsError &e) {
        EXPECT_EQ(e.code(), ErrCode::Internal) << e.what();
    }
}

// ---------------------------------------------------------------------
// Page-cache invalidation: the engine keeps a small page cache, and a
// page-crossing store falls back to MemImage::write, which can create
// the very page the cache recorded as absent. Sequence inside a single
// block: load from a not-yet-resident page (caches a null page), an
// unaligned store straddling into that page, then a load that must
// observe the stored bytes, not stale zeros.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, PageCrossingStoreInvalidatesPageCache)
{
    constexpr i32 kPage = 0x5000;         // page 5: never touched before
    constexpr i32 kStraddle = kPage - 4;  // 8-byte store spans pages 4/5

    isa::Block b;
    b.label = "pagex";
    b.insts.resize(8);
    b.insts[0].op = isa::Opcode::GENS;    // probe-load address
    b.insts[0].imm = kPage;
    b.insts[0].targets[0] = {isa::Target::Kind::Op0, 1};
    b.insts[1].op = isa::Opcode::LW;      // misses: page not resident
    b.insts[1].lsid = 0;
    b.insts[2].op = isa::Opcode::GENS;    // straddling store address
    b.insts[2].imm = kStraddle;
    b.insts[2].targets[0] = {isa::Target::Kind::Op0, 4};
    b.insts[3].op = isa::Opcode::GENS;    // all-ones store value
    b.insts[3].imm = -1;
    b.insts[3].targets[0] = {isa::Target::Kind::Op1, 4};
    b.insts[4].op = isa::Opcode::SD;
    b.insts[4].lsid = 1;
    b.insts[5].op = isa::Opcode::GENS;    // re-load address
    b.insts[5].imm = kPage;
    b.insts[5].targets[0] = {isa::Target::Kind::Op0, 6};
    b.insts[6].op = isa::Opcode::LW;      // must see the stored bytes
    b.insts[6].lsid = 2;
    b.insts[6].targets[0] = {isa::Target::Kind::Write, 0};
    b.insts[7].op = isa::Opcode::RET;
    b.writes.push_back(isa::WriteInst{sim::FuncSim::RETVAL_REG});
    b.storeMask = 1u << 1;

    isa::Program prog;
    prog.addBlock(std::move(b));
    ASSERT_EQ("", prog.finalize());

    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    EXPECT_EQ(fsim.run().retVal, -1)
        << "load after straddling store saw stale page cache";
}

// ---------------------------------------------------------------------
// Stores and branches deliver no tokens, so encoded targets on them
// (representable in the block format, though validateBlock rejects
// them) must not count as operand messages.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, StoreAndBranchTargetsCountNoOperandMessages)
{
    isa::Block b;
    b.label = "stmsg";
    b.insts.resize(6);
    b.insts[0].op = isa::Opcode::GENS;    // store address
    b.insts[0].imm = 0x100;
    b.insts[0].targets[0] = {isa::Target::Kind::Op0, 2};
    b.insts[1].op = isa::Opcode::GENS;    // store value
    b.insts[1].imm = 5;
    b.insts[1].targets[0] = {isa::Target::Kind::Op1, 2};
    b.insts[2].op = isa::Opcode::SB;
    b.insts[2].lsid = 0;
    b.insts[3].op = isa::Opcode::GENS;    // legit producer for the MOV
    b.insts[3].imm = 9;
    b.insts[3].targets[0] = {isa::Target::Kind::Op0, 4};
    b.insts[4].op = isa::Opcode::MOV;
    b.insts[5].op = isa::Opcode::RET;
    b.storeMask = 1u << 0;

    isa::Program prog;
    prog.addBlock(std::move(b));
    ASSERT_EQ("", prog.finalize());

    // Inject encoded targets on the store and the branch after
    // validation (their formats carry no target fields, so finalize
    // would reject them): both point at the MOV's unused Op1 slot.
    auto &mb = prog.mutableBlock(0);
    mb.insts[2].targets[0] = {isa::Target::Kind::Op1, 4};
    mb.insts[5].targets[0] = {isa::Target::Kind::Op1, 4};

    // Decoder view: the anomalous targets contribute zero messages.
    auto d = sim::decodeBlock(prog.block(0));
    u64 msgs = 0;
    for (u16 i = 0; i < d.n; ++i) {
        const auto cls = static_cast<isa::OpClass>(d.insts[i].cls);
        if (cls == isa::OpClass::Store || cls == isa::OpClass::Branch) {
            EXPECT_EQ(d.insts[i].opMsgs, 0u);
        }
        msgs += d.insts[i].opMsgs;
    }
    EXPECT_EQ(msgs, 3u);  // the three GENS deliveries only

    // End to end: the ISA stats count the same three messages.
    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    EXPECT_EQ(fsim.run().stats.operandMessages, 3u);
}

// ---------------------------------------------------------------------
// Memo commit. An instance whose fired/null pattern the stats memo
// already holds commits through the memo way's per-write-slot refs,
// without re-running the checks that pattern passed. Each program is
// one self-looping block run one instance per run(1) slice, every
// pattern at least twice so later instances commit on a memo hit, and
// the register file is checked after every instance.
// ---------------------------------------------------------------------

using isa::Opcode;
using isa::Target;
using Kind = isa::Target::Kind;

isa::Instruction
makeInst(Opcode op, Target t0 = {}, Target t1 = {}, i32 imm = 0,
         isa::PredMode pr = isa::PredMode::None)
{
    isa::Instruction in;
    in.op = op;
    in.imm = imm;
    in.pr = pr;
    in.targets[0] = t0;
    in.targets[1] = t1;
    return in;
}

/** A block that branches back to itself, as block 0 of a program. */
isa::Program
loopProgram(isa::Block b)
{
    isa::Instruction bro = makeInst(Opcode::BRO);
    bro.targetBlock = 0;
    b.insts.push_back(bro);
    isa::Program prog;
    prog.addBlock(std::move(b));
    EXPECT_EQ("", prog.finalize());
    return prog;
}

TEST(MemoCommit, WritesFedByHeaderReadsCommitPreBlockValues)
{
    // Write slot 0 (r1) takes the read of r2, write slot 1 (r2) the
    // read of r1: every instance swaps them. Committing either write
    // from the register file instead of the injected read value would
    // see the other write's new value.
    isa::Block b;
    b.label = "swap";
    b.reads.push_back({1, {Target{Kind::Write, 1}, {}}});
    b.reads.push_back({2, {Target{Kind::Write, 0}, {}}});
    b.writes.push_back(isa::WriteInst{1});
    b.writes.push_back(isa::WriteInst{2});
    const isa::Program prog = loopProgram(std::move(b));

    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    const u64 r1 = fsim.regs()[1], r2 = fsim.regs()[2];
    ASSERT_NE(r1, r2);
    for (int k = 1; k <= 6; ++k) {
        ASSERT_TRUE(fsim.run(1).fuelExhausted);
        EXPECT_EQ(fsim.regs()[1], k % 2 ? r2 : r1) << "instance " << k;
        EXPECT_EQ(fsim.regs()[2], k % 2 ? r1 : r2) << "instance " << k;
    }
    EXPECT_EQ(fsim.run(1).stats.writesCommitted, 14u);
}

TEST(MemoCommit, PredicatedWriteCommitsValueOrNothing)
{
    // r3 counts mod 4 and r4 counts up. While r3 < 2, a MOV on true
    // writes the old r4 to r5; otherwise a NULLW on false nulls that
    // write slot and r5 keeps its value. The two patterns alternate in
    // pairs, so the second instance of each pair commits on a memo hit
    // whichever memo ways the two patterns map to.
    isa::Block b;
    b.label = "predw";
    b.reads.push_back({3, {Target{Kind::Op0, 0}, Target{Kind::Op0, 4}}});
    b.reads.push_back({4, {Target{Kind::Op0, 2}, Target{Kind::Op0, 6}}});
    b.insts.push_back(makeInst(Opcode::TLTI, {Kind::Op0, 1}, {}, 2));
    b.insts.push_back(
        makeInst(Opcode::MOV, {Kind::Pred, 2}, {Kind::Pred, 3}));
    b.insts.push_back(makeInst(Opcode::MOV, {Kind::Write, 2}, {}, 0,
                               isa::PredMode::OnTrue));
    b.insts.push_back(makeInst(Opcode::NULLW, {Kind::Write, 2}, {}, 0,
                               isa::PredMode::OnFalse));
    b.insts.push_back(makeInst(Opcode::ADDI, {Kind::Op0, 5}, {}, 1));
    b.insts.push_back(makeInst(Opcode::ANDI, {Kind::Write, 0}, {}, 3));
    b.insts.push_back(makeInst(Opcode::ADDI, {Kind::Write, 1}, {}, 1));
    b.writes.push_back(isa::WriteInst{3});
    b.writes.push_back(isa::WriteInst{4});
    b.writes.push_back(isa::WriteInst{5});
    const isa::Program prog = loopProgram(std::move(b));

    MemImage mem;
    sim::FuncSim fsim(prog, mem);
    u64 r3 = 0, r4 = 0, r5 = 0, committed = 0;
    for (int k = 1; k <= 12; ++k) {
        const bool value = r3 < 2;
        if (value)
            r5 = r4;
        r3 = (r3 + 1) & 3;
        ++r4;
        committed += value ? 3 : 2;
        const auto res = fsim.run(1);
        ASSERT_TRUE(res.fuelExhausted);
        EXPECT_EQ(fsim.regs()[3], r3) << "instance " << k;
        EXPECT_EQ(fsim.regs()[4], r4) << "instance " << k;
        EXPECT_EQ(fsim.regs()[5], r5) << "instance " << k;
        EXPECT_EQ(res.stats.writesCommitted, committed) << "instance " << k;
    }
}

// ---------------------------------------------------------------------
// Decoded-block cache accounting.
// ---------------------------------------------------------------------

TEST(PredecodeUnit, CacheAccounting)
{
    wir::Module mod;
    workloads::find("autocor").build(mod);
    auto prog =
        compiler::compileToTrips(mod, compiler::Options::compiled());

    MemImage mem;
    wir::Interp::loadGlobals(mod, mem);
    sim::FuncSim fsim(prog, mem);
    fsim.run();
    // Lazy decode: only executed blocks are decoded, each at most once.
    EXPECT_GT(fsim.decodedBlocks(), 0u);
    EXPECT_LE(fsim.decodedBlocks(), prog.numBlocks());
    EXPECT_GT(fsim.decodedBytes(), 0u);
    EXPECT_EQ(fsim.decodedFallbacks(), 0u);
}

} // namespace
