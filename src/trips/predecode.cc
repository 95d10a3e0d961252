#include "trips/predecode.hh"

#include <algorithm>
#include <array>

#include "support/error.hh"
#include "trips/exec_core.hh"

namespace trips::sim {

using isa::Block;
using isa::Opcode;
using isa::OpClass;
using isa::Target;

namespace {

/** Map a Target to an operand slot code; 0xff for unused fields and
 *  3 for register-write targets. */
u8
slotOf(const Target &t)
{
    switch (t.kind) {
      case Target::Kind::Op0: return 0;
      case Target::Kind::Op1: return 1;
      case Target::Kind::Pred: return 2;
      case Target::Kind::Write: return 3;
      default: return 0xff;
    }
}

} // namespace

u64
DecodedBlock::bytes() const
{
    u64 total = sizeof(*this);
    total += insts.size() * sizeof(DecInst);
    total += (mergePool.size() + mergeRefs.size()) * sizeof(SrcRef);
    total += readReg.size() + writeReg.size();
    total += writeSrc.size() * sizeof(SrcRef);
    total += (targetBlock.size() + returnBlock.size()) * sizeof(i32);
    total += orig.size() * sizeof(u16);
    total += memoFst.size() + memoWrite.size() * sizeof(SrcRef);
    return total;
}

DecodedBlock
decodeBlock(const Block &b)
{
    DecodedBlock d;
    const size_t n = b.insts.size();
    d.n = static_cast<u16>(n);
    d.numReads = static_cast<u16>(b.reads.size());
    d.numWrites = static_cast<u16>(b.writes.size());
    d.storeMask = b.storeMask;

    auto refuse = [&](const char *why) {
        TRIPS_THROW(ErrCode::Internal, Subsys::Sim, "block ", b.label,
                    " cannot be decoded: ", why,
                    " (program not validated)");
    };
    // The engine's scratch buffers are sized to the architectural
    // limits, which validateBlock enforces.
    if (n > isa::MAX_INSTS || b.reads.size() > isa::MAX_READS ||
        b.writes.size() > isa::MAX_WRITES)
        refuse("exceeds the architectural limits");

    d.orig = isa::fireSchedule(b);
    const std::vector<u16> &sched = d.orig;
    if (sched.size() != n)
        refuse("no static fire schedule (cyclic dataflow + LSID graph)");

    // Renumber into schedule order: position in the walk IS the
    // instruction index from here on. Header read r becomes result
    // index n + r (its value is injected at block start).
    std::array<u16, isa::MAX_INSTS> newIdx;
    for (size_t k = 0; k < n; ++k)
        newIdx[sched[k]] = static_cast<u16>(k);

    // Static producer lists in one CSR array over buckets: 3 * k + s is
    // operand slot s of instruction k (new numbering), 3 * n + w header
    // write slot w. A list keeps delivery order: header reads first,
    // then instructions in block order. Every read and instruction has
    // two target fields, which bounds the deliveries.
    constexpr size_t MAX_BUCKETS = 3 * isa::MAX_INSTS + isa::MAX_WRITES;
    constexpr size_t MAX_DELIVERIES = 2 * (isa::MAX_INSTS + isa::MAX_READS);
    const size_t nbuckets = 3 * n + b.writes.size();
    auto forEachDelivery = [&](auto &&deliver) {
        auto note = [&](const Target &t, SrcRef prod) {
            u8 slot = slotOf(t);
            if (slot == 0xff)
                return;
            if (t.index >= (slot == 3 ? b.writes.size() : n))
                refuse("target names a missing slot");
            deliver(slot == 3 ? 3 * n + t.index
                              : 3 * size_t{newIdx[t.index]} + slot,
                    prod);
        };
        for (size_t r = 0; r < b.reads.size(); ++r) {
            for (const auto &t : b.reads[r].targets)
                note(t, static_cast<SrcRef>(n + r));
        }
        for (size_t i = 0; i < n; ++i) {
            // Stores and branches have no outputs, so any encoded
            // targets they carry (validateBlock rejects them) must not
            // become producers.
            const OpClass cls = opInfo(b.insts[i].op).cls;
            if (cls == OpClass::Store || cls == OpClass::Branch)
                continue;
            for (const auto &t : b.insts[i].targets)
                note(t, newIdx[i]);
        }
    };
    std::array<u16, MAX_BUCKETS + 1> prodStart{};
    forEachDelivery([&](size_t bucket, SrcRef) { ++prodStart[bucket + 1]; });
    for (size_t k = 0; k < nbuckets; ++k)
        prodStart[k + 1] += prodStart[k];
    std::array<u16, MAX_BUCKETS> fill;
    std::copy(prodStart.begin(), prodStart.begin() + nbuckets, fill.begin());
    std::array<SrcRef, MAX_DELIVERIES> prods;
    forEachDelivery(
        [&](size_t bucket, SrcRef prod) { prods[fill[bucket]++] = prod; });

    // Encode each producer list as a SrcRef; multi-producer slots spill
    // into the merge pool, reserved to its exact size up front. Two
    // header reads into one slot would deliver twice on *every*
    // instance. The pool cannot overflow: a block has at most
    // 2 * (MAX_INSTS + MAX_READS) deliveries.
    size_t poolSize = 0, mergeSlots = 0;
    for (size_t k = 0; k < nbuckets; ++k) {
        const size_t count = prodStart[k + 1] - prodStart[k];
        if (count > 1) {
            poolSize += 1 + count;
            ++mergeSlots;
        }
    }
    d.mergePool.reserve(poolSize);
    d.mergeRefs.reserve(mergeSlots);
    auto encodeSlot = [&](size_t bucket) -> SrcRef {
        const SrcRef *first = prods.data() + prodStart[bucket];
        const SrcRef *last = prods.data() + prodStart[bucket + 1];
        if (first == last)
            return SRC_NONE_SLOT;
        if (last - first == 1)
            return *first;
        unsigned reads = 0;
        for (const SrcRef *p = first; p != last; ++p)
            reads += *p >= n;
        if (reads > 1)
            refuse("two header reads deliver to one slot");
        SrcRef ref =
            static_cast<SrcRef>(SRC_MERGE | d.mergePool.size());
        d.mergePool.push_back(static_cast<SrcRef>(last - first));
        d.mergePool.insert(d.mergePool.end(), first, last);
        d.mergeRefs.push_back(ref);
        return ref;
    };

    // Always-fires analysis over the schedule: an instruction whose
    // firing cannot depend on dynamic state (unpredicated, and every
    // required operand fed by a single always-firing producer; header
    // reads always deliver) takes the specialized hot handler that
    // skips the predicate and arrival checks. SRC_NONE_SLOT and merge
    // slots are conservatively "not always".
    std::array<u8, SRC_NONE_SLOT + 1> always{};
    for (size_t r = 0; r < b.reads.size(); ++r)
        always[n + r] = 1;

    d.insts.resize(n + 1);
    d.targetBlock.resize(n);
    d.returnBlock.resize(n);
    for (size_t k = 0; k < n; ++k) {
        const auto &in = b.insts[sched[k]];
        const auto &info = opInfo(in.op);
        DecInst &di = d.insts[k];
        di.op = in.op;
        di.cls = static_cast<u8>(info.cls);
        di.pred = static_cast<u8>(in.pr);
        di.numIn = info.numInputs;
        di.lsid = in.lsid;
        di.imm = static_cast<i64>(in.imm);
        di.width = isMemory(in.op) ? static_cast<u8>(memWidth(in.op)) : 0;
        di.src0 = encodeSlot(3 * k + 0);
        di.src1 = encodeSlot(3 * k + 1);
        di.srcP = encodeSlot(3 * k + 2);
        // Stores and branches deliver nothing, so encoded targets on
        // them must not count as operand messages either — mirroring
        // the producer-note exclusion above.
        u16 msgs = 0;
        if (info.cls != OpClass::Store && info.cls != OpClass::Branch) {
            for (const auto &t : in.targets)
                msgs += slotOf(t) < 3;
        }
        di.opMsgs = msgs;
        d.targetBlock[k] = in.targetBlock;
        d.returnBlock[k] = in.returnBlock;

        DecKind kind;
        if (in.op == Opcode::NULLW)
            kind = DecKind::NullW;
        else if (info.cls == OpClass::Load)
            kind = DecKind::Load;
        else if (info.cls == OpClass::Store)
            kind = DecKind::Store;
        else if (info.cls == OpClass::Branch)
            kind = DecKind::Branch;
        else
            kind = DecKind::Compute;
        di.kind = static_cast<u8>(kind);

        bool af = !in.predicated();
        const SrcRef srcs[2] = {di.src0, di.src1};
        for (unsigned s = 0; af && s < info.numInputs; ++s)
            af = srcs[s] < SRC_MERGE && always[srcs[s]];
        always[k] = af;
        di.handler = af ? static_cast<u8>(H_HOT_BASE +
                                          static_cast<u8>(in.op))
                        : static_cast<u8>(kind);
    }
    // Walk terminator: the sentinel's handler ends the threaded loop.
    d.insts[n] = DecInst{};
    d.insts[n].handler = H_DONE;

    d.readReg.resize(b.reads.size());
    for (size_t r = 0; r < b.reads.size(); ++r)
        d.readReg[r] = b.reads[r].reg;
    d.writeReg.resize(b.writes.size());
    d.writeSrc.resize(b.writes.size());
    for (size_t w = 0; w < b.writes.size(); ++w) {
        d.writeReg[w] = b.writes[w].reg;
        d.writeSrc[w] = encodeSlot(3 * n + w);
    }

    d.memoFst.assign(DecodedBlock::MEMO_WAYS * n, 0);
    d.memoWrite.assign(DecodedBlock::MEMO_WAYS * b.writes.size(),
                       SRC_NONE_SLOT);
    return d;
}

void
DecodedProgram::decode(u32 idx)
{
    blocks_[idx] =
        std::make_unique<DecodedBlock>(decodeBlock(prog_.block(idx)));
    ++decoded_;
    bytes_ += blocks_[idx]->bytes();
}

} // namespace trips::sim
