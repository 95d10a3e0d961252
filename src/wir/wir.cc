#include "wir/wir.hh"

#include <sstream>

namespace trips::wir {

Function::Successors
Function::successors(u32 bb) const
{
    const auto &t = blocks.at(bb).term;
    switch (t.kind) {
      case TermKind::Br:
        return {{t.thenBlock, t.elseBlock}, 2};
      case TermKind::Jmp:
        return {{t.thenBlock, 0}, 1};
      case TermKind::Ret:
        return {};
    }
    return {};
}

Addr
Module::addGlobal(const std::string &name, u64 size)
{
    GlobalVar g;
    g.name = name;
    g.addr = next_data;
    g.size = size;
    globals.push_back(std::move(g));
    next_data = (next_data + size + 63) & ~Addr(63);
    return globals.back().addr;
}

const GlobalVar &
Module::global(const std::string &name) const
{
    for (const auto &g : globals) {
        if (g.name == name)
            return g;
    }
    TRIPS_FATAL("unknown global ", name);
}

const Function &
Module::function(const std::string &name) const
{
    auto it = functions.find(name);
    if (it == functions.end())
        TRIPS_FATAL("unknown function ", name);
    return it->second;
}

namespace {

unsigned
numSrcs(const Instr &in)
{
    switch (in.op) {
      case WOp::Const:
        return 0;
      case WOp::Copy:
      case WOp::Not:
      case WOp::FNeg:
      case WOp::IToF:
      case WOp::FToI:
      case WOp::SextB: case WOp::SextH: case WOp::SextW:
      case WOp::ZextB: case WOp::ZextH: case WOp::ZextW:
      case WOp::Load:
        return 1;
      case WOp::Store:
        return 2;
      case WOp::Select:
        return 3;
      case WOp::Call:
        return static_cast<unsigned>(in.srcs.size());
      default:
        return 2;
    }
}

} // namespace

std::string
verifyModule(const Module &m)
{
    std::ostringstream os;
    if (!m.functions.count(m.mainFunction))
        return "missing main function " + m.mainFunction;
    for (const auto &[name, f] : m.functions) {
        if (f.blocks.empty())
            return name + ": no blocks";
        for (u32 b = 0; b < f.blocks.size(); ++b) {
            const auto &bb = f.blocks[b];
            for (const auto &in : bb.instrs) {
                if (in.srcs.size() != numSrcs(in)) {
                    os << name << " block " << b
                       << ": operand count mismatch";
                    return os.str();
                }
                for (Vreg s : in.srcs) {
                    if (s >= f.nextVreg) {
                        os << name << " block " << b
                           << ": use of unallocated vreg " << s;
                        return os.str();
                    }
                }
                if (in.dst != NO_VREG && in.dst >= f.nextVreg) {
                    os << name << " block " << b
                       << ": def of unallocated vreg";
                    return os.str();
                }
                bool needs_dst = in.op != WOp::Store;
                if (in.op == WOp::Call)
                    needs_dst = false;  // void calls allowed
                if (needs_dst && in.dst == NO_VREG) {
                    os << name << " block " << b << ": missing dst";
                    return os.str();
                }
                if (in.op == WOp::Call) {
                    auto it = m.functions.find(in.callee);
                    if (it == m.functions.end()) {
                        os << name << ": call to unknown " << in.callee;
                        return os.str();
                    }
                    if (it->second.numParams != in.srcs.size()) {
                        os << name << ": call arity mismatch to "
                           << in.callee;
                        return os.str();
                    }
                }
            }
            const auto &t = bb.term;
            auto check_target = [&](u32 tgt) {
                return tgt < f.blocks.size();
            };
            if (t.kind == TermKind::Br &&
                (!check_target(t.thenBlock) || !check_target(t.elseBlock) ||
                 t.cond == NO_VREG || t.cond >= f.nextVreg))
                return name + ": malformed Br";
            if (t.kind == TermKind::Jmp && !check_target(t.thenBlock))
                return name + ": malformed Jmp";
            if (t.kind == TermKind::Ret && t.retVal != NO_VREG &&
                t.retVal >= f.nextVreg)
                return name + ": Ret of unallocated vreg";
        }
    }
    return "";
}

u64
staticOpCount(const Function &f)
{
    u64 n = 0;
    for (const auto &bb : f.blocks)
        n += bb.instrs.size() + 1;
    return n;
}

} // namespace trips::wir
