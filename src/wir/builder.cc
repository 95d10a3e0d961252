#include "wir/builder.hh"

#include <set>

namespace trips::wir {

FunctionBuilder::FunctionBuilder(Module &mod, const std::string &name,
                                 unsigned num_params)
    : parent(mod)
{
    fn.name = name;
    fn.numParams = num_params;
    fn.nextVreg = num_params;
    BasicBlock entry;
    entry.name = "entry";
    fn.blocks.push_back(std::move(entry));
    labels["entry"] = 0;
    defined_blocks.insert(0);
}

Vreg
FunctionBuilder::param(unsigned i) const
{
    TRIPS_ASSERT(i < fn.numParams);
    return i;
}

Vreg
FunctionBuilder::fresh()
{
    return fn.nextVreg++;
}

BasicBlock &
FunctionBuilder::cur()
{
    TRIPS_ASSERT(!current_sealed,
                 "emitting into a sealed block; add a label() first");
    return fn.blocks[current_block];
}

Vreg
FunctionBuilder::iconst(i64 v)
{
    Instr in;
    in.op = WOp::Const;
    in.dst = fresh();
    in.imm = v;
    cur().instrs.push_back(in);
    return in.dst;
}

Vreg
FunctionBuilder::fconst(double v)
{
    Instr in;
    in.op = WOp::Const;
    in.dst = fresh();
    in.fimm = v;
    in.isFloat = true;
    cur().instrs.push_back(in);
    return in.dst;
}

Vreg
FunctionBuilder::bin(WOp op, Vreg a, Vreg b)
{
    Instr in;
    in.op = op;
    in.dst = fresh();
    in.srcs = {a, b};
    cur().instrs.push_back(in);
    return in.dst;
}

Vreg
FunctionBuilder::un(WOp op, Vreg a)
{
    Instr in;
    in.op = op;
    in.dst = fresh();
    in.srcs = {a};
    cur().instrs.push_back(in);
    return in.dst;
}

Vreg
FunctionBuilder::load(Vreg addr, i64 off, MemWidth w, bool sgn)
{
    Instr in;
    in.op = WOp::Load;
    in.dst = fresh();
    in.srcs = {addr};
    in.imm = off;
    in.width = w;
    in.loadSigned = sgn;
    cur().instrs.push_back(in);
    return in.dst;
}

void
FunctionBuilder::store(Vreg addr, Vreg val, i64 off, MemWidth w)
{
    Instr in;
    in.op = WOp::Store;
    in.srcs = {addr, val};
    in.imm = off;
    in.width = w;
    cur().instrs.push_back(in);
}

Vreg
FunctionBuilder::select(Vreg c, Vreg t, Vreg f)
{
    Instr in;
    in.op = WOp::Select;
    in.dst = fresh();
    in.srcs = {c, t, f};
    cur().instrs.push_back(in);
    return in.dst;
}

void
FunctionBuilder::assign(Vreg dst, Vreg src)
{
    if (dst == src)
        return;
    Instr in;
    in.op = WOp::Copy;
    in.dst = dst;
    in.srcs = {src};
    cur().instrs.push_back(in);
}

Vreg
FunctionBuilder::call(const std::string &callee, std::vector<Vreg> args)
{
    Instr in;
    in.op = WOp::Call;
    in.dst = fresh();
    in.srcs.assign(args.begin(), args.end());
    in.callee = callee;
    cur().instrs.push_back(in);
    return in.dst;
}

void
FunctionBuilder::callVoid(const std::string &callee, std::vector<Vreg> args)
{
    Instr in;
    in.op = WOp::Call;
    in.dst = NO_VREG;
    in.srcs.assign(args.begin(), args.end());
    in.callee = callee;
    cur().instrs.push_back(in);
}

u32
FunctionBuilder::labelId(const std::string &name)
{
    auto it = labels.find(name);
    if (it != labels.end())
        return it->second;
    u32 id = static_cast<u32>(fn.blocks.size());
    BasicBlock bb;
    bb.name = name;
    fn.blocks.push_back(std::move(bb));
    labels[name] = id;
    return id;
}

void
FunctionBuilder::sealCurrent(Terminator t)
{
    TRIPS_ASSERT(!current_sealed, "block already has a terminator");
    fn.blocks[current_block].term = t;
    current_sealed = true;
}

void
FunctionBuilder::label(const std::string &name)
{
    u32 id = labelId(name);
    TRIPS_ASSERT(!defined_blocks.count(id), "label defined twice: ", name);
    if (!current_sealed) {
        Terminator t;
        t.kind = TermKind::Jmp;
        t.thenBlock = id;
        sealCurrent(t);
    }
    current_block = id;
    current_sealed = false;
    defined_blocks.insert(current_block);
}

void
FunctionBuilder::br(Vreg cond, const std::string &then_label,
                    const std::string &else_label)
{
    Terminator t;
    t.kind = TermKind::Br;
    t.cond = cond;
    t.thenBlock = labelId(then_label);
    t.elseBlock = labelId(else_label);
    sealCurrent(t);
}

void
FunctionBuilder::jmp(const std::string &target)
{
    Terminator t;
    t.kind = TermKind::Jmp;
    t.thenBlock = labelId(target);
    sealCurrent(t);
}

void
FunctionBuilder::ret(Vreg v)
{
    Terminator t;
    t.kind = TermKind::Ret;
    t.retVal = v;
    sealCurrent(t);
}

Function &
FunctionBuilder::finish()
{
    TRIPS_ASSERT(!finished, "finish() called twice");
    TRIPS_ASSERT(current_sealed, "function falls off the end");
    for (const auto &[name, id] : labels) {
        if (!defined_blocks.count(id) && id != 0)
            TRIPS_FATAL("label referenced but never defined: ", name,
                        " in ", fn.name);
    }
    finished = true;
    auto [it, inserted] = parent.functions.emplace(fn.name, std::move(fn));
    TRIPS_ASSERT(inserted, "duplicate function ", it->first);
    return it->second;
}

} // namespace trips::wir
