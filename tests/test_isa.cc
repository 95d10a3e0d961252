/**
 * @file
 * ISA-level unit and property tests: binary encode/decode round trips,
 * block validation rules, code-size classes, program addressing, and
 * the tile topology helpers.
 */

#include <gtest/gtest.h>

#include "isa/disasm.hh"
#include "isa/encode.hh"
#include "isa/program.hh"
#include "isa/topology.hh"
#include "support/rng.hh"

using namespace trips;
using namespace trips::isa;

namespace {

Instruction
randomInstruction(Rng &rng)
{
    Instruction in;
    while (true) {
        in.op = static_cast<Opcode>(
            rng.below(static_cast<u64>(Opcode::NUM_OPCODES)));
        if (!isBranch(in.op))
            break;  // branches tested separately (target fields)
    }
    const auto &info = opInfo(in.op);
    bool is_const = in.op == Opcode::GENS || in.op == Opcode::APP;
    if (!is_const)
        in.pr = static_cast<PredMode>(rng.below(3));
    if (info.hasImm)
        in.imm = static_cast<i32>(
            is_const ? rng.range(IMM16_MIN, IMM16_MAX)
                     : rng.range(IMM9_MIN, IMM9_MAX));
    if (isMemory(in.op))
        in.lsid = static_cast<u8>(rng.below(MAX_LSIDS));
    for (unsigned t = 0; t < info.numTargets; ++t) {
        // 9-bit formats require a valid target in slot 0.
        bool need = t == 0 &&
                    (isLoad(in.op) || is_const || info.numTargets == 1);
        if (!need && rng.chance(0.3))
            continue;
        Target tg;
        tg.kind = static_cast<Target::Kind>(1 + rng.below(4));
        tg.index = static_cast<u8>(
            tg.kind == Target::Kind::Write ? rng.below(MAX_WRITES)
                                           : rng.below(MAX_INSTS));
        in.targets[t] = tg;
    }
    return in;
}

} // namespace

TEST(IsaEncode, RoundTripRandomInstructions)
{
    Rng rng(0xdec0de);
    for (int trial = 0; trial < 2000; ++trial) {
        Instruction in = randomInstruction(rng);
        u32 word = encodeInstruction(in);
        auto back = decodeInstruction(word);
        ASSERT_TRUE(back.has_value()) << disasmInstruction(in);
        EXPECT_EQ(back->op, in.op) << disasmInstruction(in);
        EXPECT_EQ(back->imm, in.imm) << disasmInstruction(in);
        EXPECT_EQ(back->pr, in.pr) << disasmInstruction(in);
        if (isMemory(in.op)) {
            EXPECT_EQ(back->lsid, in.lsid);
        }
        for (unsigned t = 0; t < opInfo(in.op).numTargets; ++t) {
            EXPECT_EQ(back->targets[t], in.targets[t])
                << disasmInstruction(in) << " target " << t;
        }
    }
}

TEST(IsaEncode, BranchRoundTrip)
{
    Instruction in;
    in.op = Opcode::BRO;
    in.pr = PredMode::OnFalse;
    in.exit = 5;
    in.targetBlock = 12345;
    auto back = decodeInstruction(encodeInstruction(in));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->op, Opcode::BRO);
    EXPECT_EQ(back->exit, 5);
    EXPECT_EQ(back->targetBlock, 12345);
    EXPECT_EQ(back->pr, PredMode::OnFalse);
}

TEST(IsaBlock, SizeClasses)
{
    Block b;
    b.label = "x";
    Instruction ret;
    ret.op = Opcode::RET;
    for (int i = 0; i < 30; ++i)
        b.insts.push_back(ret);
    EXPECT_EQ(b.sizeClass(), 32u);
    EXPECT_EQ(b.codeBytes(), 128u + 4 * 32);
    for (int i = 0; i < 10; ++i)
        b.insts.push_back(ret);
    EXPECT_EQ(b.sizeClass(), 64u);
    for (int i = 0; i < 60; ++i)
        b.insts.push_back(ret);
    EXPECT_EQ(b.sizeClass(), 128u);
}

TEST(IsaBlock, ValidatorCatchesMissingProducer)
{
    Block b;
    b.label = "bad";
    Instruction add;
    add.op = Opcode::ADD;   // needs two operands, none produced
    b.insts.push_back(add);
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    auto err = validateBlock(b);
    EXPECT_NE(err.find("no producer"), std::string::npos) << err;
}

TEST(IsaBlock, ValidatorCatchesStoreMaskMismatch)
{
    Block b;
    b.label = "bad";
    Instruction gen;
    gen.op = Opcode::GENS;
    gen.imm = 4;
    gen.targets[0] = {Target::Kind::Op0, 1};
    b.insts.push_back(gen);
    Instruction st;
    st.op = Opcode::SD;
    st.lsid = 3;
    b.insts.push_back(st);
    // store needs op1 too
    Instruction gen2;
    gen2.op = Opcode::GENS;
    gen2.imm = 9;
    gen2.targets[0] = {Target::Kind::Op1, 1};
    b.insts.push_back(gen2);
    Instruction ret;
    ret.op = Opcode::RET;
    ret.exit = 1;
    b.insts.push_back(ret);
    b.storeMask = 0;   // should be 1<<3
    auto err = validateBlock(b);
    EXPECT_NE(err.find("store mask"), std::string::npos) << err;
    b.storeMask = 1u << 3;
    EXPECT_EQ(validateBlock(b), "");
}

TEST(IsaBlock, ValidatorCatchesEtOverflow)
{
    Block b;
    b.label = "bad";
    Instruction gen;
    gen.op = Opcode::GENS;
    for (int i = 0; i < 10; ++i) {
        gen.targets[0] = {Target::Kind::Write, 0};
        b.insts.push_back(gen);
    }
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(WriteInst{7});
    b.placement.assign(b.insts.size(), 0);   // 11 insts on one ET
    auto err = validateBlock(b);
    EXPECT_NE(err.find("reservation"), std::string::npos) << err;
}

namespace {

/** Smallest valid block: GENS feeding the lone write, plus RET. */
Block
trivialBlock()
{
    Block b;
    b.label = "triv";
    Instruction gens;
    gens.op = Opcode::GENS;
    gens.imm = 7;
    gens.targets[0] = {Target::Kind::Write, 0};
    b.insts.push_back(gens);
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(WriteInst{3});
    return b;
}

} // namespace

TEST(IsaBlock, ValidatorCatchesDataflowCycle)
{
    // Two MOVs feeding each other: every operand has a producer, but
    // no static fire schedule exists.
    Block b = trivialBlock();
    ASSERT_EQ(validateBlock(b), "");
    Instruction m0, m1;
    m0.op = Opcode::MOV;
    m1.op = Opcode::MOV;
    m0.targets[0] = {Target::Kind::Op0, 3}; // m1's slot
    m1.targets[0] = {Target::Kind::Op0, 2}; // m0's slot
    b.insts.push_back(m0);
    b.insts.push_back(m1);
    auto err = validateBlock(b);
    EXPECT_NE(err.find("fire schedule"), std::string::npos) << err;
    EXPECT_LT(fireSchedule(b).size(), b.insts.size());
}

TEST(IsaBlock, ValidatorCatchesLsidOrderCycle)
{
    // A later-LSID load feeding the address of an earlier-LSID store:
    // the LSID chain orders store before load, the dataflow edge
    // orders load before store.
    Block b;
    b.label = "lsidcycle";
    Instruction addr;
    addr.op = Opcode::GENS;
    addr.imm = 64;
    addr.targets[0] = {Target::Kind::Op0, 1}; // load address
    b.insts.push_back(addr);
    Instruction ld;
    ld.op = Opcode::LD;
    ld.lsid = 1;
    ld.targets[0] = {Target::Kind::Op0, 2}; // store address
    b.insts.push_back(ld);
    Instruction st;
    st.op = Opcode::SD;
    st.lsid = 0;
    b.insts.push_back(st);
    Instruction val;
    val.op = Opcode::GENS;
    val.imm = 1;
    val.targets[0] = {Target::Kind::Op1, 2}; // store value
    b.insts.push_back(val);
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    b.storeMask = 1u << 0;
    auto err = validateBlock(b);
    EXPECT_NE(err.find("fire schedule"), std::string::npos) << err;

    // Swapping the LSIDs makes the load issue first: valid.
    b.insts[1].lsid = 0;
    b.insts[2].lsid = 1;
    b.storeMask = 1u << 1;
    EXPECT_EQ(validateBlock(b), "");
    EXPECT_EQ(fireSchedule(b).size(), b.insts.size());
}

TEST(IsaBlock, ValidatorCatchesTwoReadsIntoOneSlot)
{
    // Header reads deliver on every instance, so two of them into one
    // operand is a double delivery no predicate can avoid.
    Block b;
    b.label = "tworeads";
    Instruction mov;
    mov.op = Opcode::MOV;
    mov.targets[0] = {Target::Kind::Write, 0};
    b.insts.push_back(mov);
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    b.writes.push_back(WriteInst{3});
    ReadInst r;
    r.reg = 4;
    r.targets[0] = {Target::Kind::Op0, 0};
    b.reads.push_back(r);
    ASSERT_EQ(validateBlock(b), "");

    r.reg = 5;
    b.reads.push_back(r);
    auto err = validateBlock(b);
    EXPECT_NE(err.find("two header-read deliveries"), std::string::npos)
        << err;

    // Also one read's two targets into a write slot.
    b.reads.pop_back();
    ReadInst w;
    w.reg = 6;
    w.targets[0] = {Target::Kind::Write, 0};
    w.targets[1] = {Target::Kind::Write, 0};
    b.reads.push_back(w);
    err = validateBlock(b);
    EXPECT_NE(err.find("write slot 0"), std::string::npos) << err;
}

TEST(IsaProgram, AddressesAndCodeBytes)
{
    Program p;
    Block b;
    b.label = "a";
    Instruction ret;
    ret.op = Opcode::RET;
    b.insts.push_back(ret);
    p.addBlock(b);
    // Second block: 40 NULLWs + ret spills into the 64-inst class.
    b.label = "b";
    b.insts.clear();
    Instruction nullw;
    nullw.op = Opcode::NULLW;
    for (int i = 0; i < 40; ++i)
        b.insts.push_back(nullw);
    b.insts.push_back(ret);
    p.addBlock(b);
    ASSERT_EQ(p.finalize(), "");
    EXPECT_EQ(p.blockAddr(0), Program::CODE_BASE);
    EXPECT_EQ(p.blockAddr(1), Program::CODE_BASE + 128 + 4 * 32);
    EXPECT_EQ(p.block(1).codeBytes(), 128u + 4 * 64);
    EXPECT_EQ(p.codeBytes(), (128u + 4 * 32) + (128u + 4 * 64));
    EXPECT_EQ(p.blockIndex("b"), 1u);
    EXPECT_TRUE(p.hasLabel("a"));
    EXPECT_FALSE(p.hasLabel("c"));
}

TEST(Topology, Distances)
{
    // GT at (0,0); ET0 at (1,1).
    EXPECT_EQ(hopDist(gtCoord(), etCoord(0)), 2u);
    // ET15 at (4,4): corner to corner.
    EXPECT_EQ(hopDist(gtCoord(), etCoord(15)), 8u);
    // RT bank above its column.
    EXPECT_EQ(hopDist(rtCoord(2), etCoord(2)), 1u);
    // DT row to ET in same row.
    EXPECT_EQ(hopDist(dtCoord(1), etCoord(4)), 1u);
    // Address interleave covers all four DTs.
    EXPECT_EQ(dtForAddr(0), 0u);
    EXPECT_EQ(dtForAddr(64), 1u);
    EXPECT_EQ(dtForAddr(128), 2u);
    EXPECT_EQ(dtForAddr(192), 3u);
    EXPECT_EQ(dtForAddr(256), 0u);
}

TEST(Disasm, MentionsPredicationAndTargets)
{
    Instruction in;
    in.op = Opcode::ADDI;
    in.pr = PredMode::OnTrue;
    in.imm = 42;
    in.targets[0] = {Target::Kind::Pred, 7};
    auto s = disasmInstruction(in);
    EXPECT_NE(s.find("addi_t"), std::string::npos) << s;
    EXPECT_NE(s.find("#42"), std::string::npos) << s;
    EXPECT_NE(s.find("[7,pred]"), std::string::npos) << s;
}
