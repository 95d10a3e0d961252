#include "compiler/til.hh"

#include <algorithm>
#include <sstream>

namespace trips::compiler::til {

using isa::Opcode;

// ---------------------------------------------------------------------
// Dump
// ---------------------------------------------------------------------

namespace {

std::string
prodName(i32 p)
{
    // std::string{} first: sidesteps GCC 12's -Wrestrict false
    // positive on "literal" + std::to_string (PR105329).
    if (p >= 0)
        return std::string("n") + std::to_string(p);
    return std::string("r") + std::to_string(-1 - p);
}

std::string
prodList(const ProdSet &l)
{
    std::string s = "[";
    for (size_t i = 0; i < l.size(); ++i) {
        if (i)
            s += ",";
        s += prodName(static_cast<i32>(l[i]));
    }
    return s + "]";
}

std::string
regName(const HRead &r)
{
    std::string s;
    if (r.v != wir::NO_VREG)
        s += " v" + std::to_string(r.v);
    if (r.fixedReg >= 0)
        s += " fixed=R" + std::to_string(r.fixedReg);
    if (r.assignedReg >= 0)
        s += " reg=R" + std::to_string(r.assignedReg);
    return s;
}

} // namespace

std::string
dump(const HBlock &hb)
{
    std::ostringstream os;
    os << "til block " << hb.label << "  (wir";
    for (u32 m : hb.wirMembers)
        os << " " << m;
    os << ")\n";
    for (size_t r = 0; r < hb.reads.size(); ++r)
        os << "  read r" << r << ":" << regName(hb.reads[r]) << "\n";
    for (size_t i = 0; i < hb.nodes.size(); ++i) {
        const TNode &n = hb.nodes[i];
        os << "  n" << i << "\t" << isa::opName(n.op);
        if (isa::opInfo(n.op).hasImm)
            os << " imm=" << n.imm;
        if (isa::isMemory(n.op))
            os << " lsid=" << n.lsid;
        if (n.predNode >= 0)
            os << " p=" << (n.predPol ? "+" : "-") << "n" << n.predNode;
        if (!n.in0.empty())
            os << " in0=" << prodList(n.in0);
        if (!n.in1.empty())
            os << " in1=" << prodList(n.in1);
        if (!n.targetLabel.empty())
            os << " -> " << n.targetLabel;
        if (!n.returnLabel.empty())
            os << " ret-> " << n.returnLabel;
        os << "\n";
    }
    for (size_t w = 0; w < hb.writes.size(); ++w) {
        const HWrite &hw = hb.writes[w];
        os << "  write w" << w << ":";
        if (hw.v != wir::NO_VREG)
            os << " v" << hw.v;
        if (hw.fixedReg >= 0)
            os << " fixed=R" << hw.fixedReg;
        if (hw.assignedReg >= 0)
            os << " reg=R" << hw.assignedReg;
        os << " <- " << prodList(hw.prods) << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------
// Structural verification
// ---------------------------------------------------------------------

namespace {

/** Resolve a predicate producer through unpredicated fanout movs to
 *  the test instruction that roots the chain. Returns -1 on a
 *  malformed chain and fills `why`. */
i32
predRoot(const HBlock &hb, i32 p, std::string &why)
{
    for (size_t hops = 0; hops <= hb.nodes.size(); ++hops) {
        if (p < 0) {
            why = "predicate fed by register read " + prodName(p);
            return -1;
        }
        if (p >= static_cast<i32>(hb.nodes.size())) {
            why = "predicate producer n" + std::to_string(p) +
                  " out of range";
            return -1;
        }
        const TNode &n = hb.nodes[p];
        if (isa::isTest(n.op))
            return p;
        if (n.op != Opcode::MOV) {
            why = "predicate rooted at non-test " +
                  std::string(isa::opName(n.op)) + " n" + std::to_string(p);
            return -1;
        }
        if (n.predNode >= 0) {
            why = "predicate forwarded through predicated mov n" +
                  std::to_string(p);
            return -1;
        }
        if (n.in0.size() != 1) {
            why = "predicate forwarded through mov n" + std::to_string(p) +
                  " with " + std::to_string(n.in0.size()) + " producers";
            return -1;
        }
        p = n.in0[0];
    }
    why = "predicate chain does not terminate";
    return -1;
}

/** splitmix64 step (fixed mapping; keeps trials deterministic). */
u64
mix(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

enum : u8 { T_EMPTY = 0, T_VALUE = 1, T_NULL = 2 };

struct AbsTok
{
    u8 st = T_EMPTY;
    bool bit = false;   ///< predicate outcome (tests and forwarding movs)
};

std::string
describeTrial(const std::vector<u32> &testIdx,
              const std::vector<bool> &outcome)
{
    if (testIdx.empty())
        return "";
    std::string s = " [tests:";
    for (u32 t : testIdx)
        s += " n" + std::to_string(t) + "=" + (outcome[t] ? "1" : "0");
    return s + "]";
}

} // namespace

std::string
verify(const HBlock &hb, const VerifyOptions &opts)
{
    const size_t n = hb.nodes.size();
    auto err = [&](const std::string &msg) {
        return "til block " + hb.label + ": " + msg;
    };

    // ---- static shape ----
    unsigned exits = 0;
    std::vector<u16> lsids;
    for (size_t i = 0; i < n; ++i) {
        const TNode &nd = hb.nodes[i];
        const auto &info = isa::opInfo(nd.op);
        auto check_list = [&](const ProdSet &l, const char *what)
            -> std::string {
            for (i32 p : l) {
                if (p >= static_cast<i32>(n))
                    return err(std::string(what) + " producer n" +
                               std::to_string(p) + " of n" +
                               std::to_string(i) + " out of range");
                if (p < 0 &&
                    static_cast<size_t>(-1 - p) >= hb.reads.size())
                    return err(std::string(what) + " producer " +
                               prodName(p) + " of n" + std::to_string(i) +
                               " out of range");
            }
            return "";
        };
        if (auto e = check_list(nd.in0, "in0"); !e.empty())
            return e;
        if (auto e = check_list(nd.in1, "in1"); !e.empty())
            return e;
        if (info.numInputs >= 1 && nd.in0.empty())
            return err("operand 0 of n" + std::to_string(i) + " (" +
                       isa::opName(nd.op) + ") has no producer");
        if (info.numInputs >= 2 && nd.in1.empty())
            return err("operand 1 of n" + std::to_string(i) + " (" +
                       isa::opName(nd.op) + ") has no producer");
        if (info.numInputs < 2 && !nd.in1.empty())
            return err("operand 1 of n" + std::to_string(i) + " (" +
                       isa::opName(nd.op) + ") is not consumed");
        if (info.numInputs < 1 && !nd.in0.empty())
            return err("operand 0 of n" + std::to_string(i) + " (" +
                       isa::opName(nd.op) + ") is not consumed");
        if (nd.predNode >= 0) {
            if (isa::isStore(nd.op))
                return err("store n" + std::to_string(i) +
                           " is predicated (must settle via NULLW-covered"
                           " operands; the store mask requires completion"
                           " on every path)");
            std::string why;
            if (predRoot(hb, nd.predNode, why) < 0)
                return err("n" + std::to_string(i) + ": " + why);
        }
        if (isa::isBranch(nd.op)) {
            ++exits;
            if (nd.op != Opcode::RET && nd.targetLabel.empty())
                return err("branch n" + std::to_string(i) +
                           " has no target label");
        }
        if (isa::isMemory(nd.op))
            lsids.push_back(nd.lsid);
        if (opts.sizeLimits && info.hasImm) {
            bool wide = nd.op == Opcode::GENS || nd.op == Opcode::APP;
            i64 lo = wide ? isa::IMM16_MIN : isa::IMM9_MIN;
            i64 hi = wide ? isa::IMM16_MAX : isa::IMM9_MAX;
            if (nd.imm < lo || nd.imm > hi)
                return err("immediate " + std::to_string(nd.imm) + " of n" +
                           std::to_string(i) + " (" + isa::opName(nd.op) +
                           ") out of range");
        }
    }
    if (exits == 0)
        return err("no block exit (branch instruction)");
    {
        auto sorted = lsids;
        std::sort(sorted.begin(), sorted.end());
        if (std::adjacent_find(sorted.begin(), sorted.end()) !=
            sorted.end())
            return err("duplicate LSID " +
                       std::to_string(*std::adjacent_find(sorted.begin(),
                                                          sorted.end())));
    }
    for (size_t w = 0; w < hb.writes.size(); ++w) {
        if (hb.writes[w].prods.empty())
            return err("write w" + std::to_string(w) + " has no producer");
        for (i32 p : hb.writes[w].prods) {
            if (p >= static_cast<i32>(n) ||
                (p < 0 && static_cast<size_t>(-1 - p) >= hb.reads.size()))
                return err("write w" + std::to_string(w) + " producer " +
                           prodName(p) + " out of range");
        }
    }
    if (opts.sizeLimits) {
        if (n > isa::MAX_INSTS)
            return err(std::to_string(n) + " instructions exceed the " +
                       std::to_string(isa::MAX_INSTS) + "-instruction limit");
        if (hb.reads.size() > isa::MAX_READS)
            return err(std::to_string(hb.reads.size()) +
                       " reads exceed the limit");
        if (hb.writes.size() > isa::MAX_WRITES)
            return err(std::to_string(hb.writes.size()) +
                       " writes exceed the limit");
        if (lsids.size() > isa::MAX_LSIDS)
            return err(std::to_string(lsids.size()) +
                       " memory ops exceed the LSID limit");
        if (exits > isa::MAX_EXITS)
            return err(std::to_string(exits) + " exits exceed the limit");
        for (u16 l : lsids) {
            if (l >= isa::MAX_LSIDS)
                return err("LSID " + std::to_string(l) + " out of range");
        }
    }

    // ---- cycle check (producer ids are unordered after fanout) ----
    {
        std::vector<u8> color(n, 0);  // 0 unvisited, 1 visiting, 2 done
        std::string cyc;
        auto dfs = [&](auto &&self, i32 i) -> bool {
            if (i < 0)
                return true;
            if (color[i] == 1) {
                cyc = "dataflow cycle through n" + std::to_string(i);
                return false;
            }
            if (color[i] == 2)
                return true;
            color[i] = 1;
            const TNode &nd = hb.nodes[i];
            for (i32 p : nd.in0) {
                if (!self(self, p))
                    return false;
            }
            for (i32 p : nd.in1) {
                if (!self(self, p))
                    return false;
            }
            if (nd.predNode >= 0 && !self(self, nd.predNode))
                return false;
            color[i] = 2;
            return true;
        };
        for (size_t i = 0; i < n; ++i) {
            if (!dfs(dfs, static_cast<i32>(i)))
                return err(cyc);
        }
    }

    // ---- dynamic invariants by abstract token simulation ----

    // Consumer edges, inverted once.
    struct Edge { u32 node; u8 opnd; };             // opnd 2 = predicate
    std::vector<std::vector<Edge>> consumers(n);
    std::vector<std::vector<Edge>> readConsumers(hb.reads.size());
    auto note = [&](i32 p, Edge e) {
        if (p >= 0)
            consumers[p].push_back(e);
        else
            readConsumers[-1 - p].push_back(e);
    };
    for (u32 i = 0; i < n; ++i) {
        for (i32 p : hb.nodes[i].in0)
            note(p, {i, 0});
        for (i32 p : hb.nodes[i].in1)
            note(p, {i, 1});
        if (hb.nodes[i].predNode >= 0)
            note(hb.nodes[i].predNode, {i, 2});
    }
    // Write deliveries are tracked by producer id to give useful errors.
    std::vector<std::vector<std::pair<u32, i32>>> writeFeeds(n);
    for (u32 w = 0; w < hb.writes.size(); ++w) {
        for (i32 p : hb.writes[w].prods) {
            if (p >= 0)
                writeFeeds[p].emplace_back(w, p);
        }
    }

    std::vector<u32> testIdx;
    for (u32 i = 0; i < n; ++i) {
        if (isa::isTest(hb.nodes[i].op))
            testIdx.push_back(i);
    }
    const unsigned T = static_cast<unsigned>(testIdx.size());
    const bool exhaustive = T < 20 && (1ULL << T) <= opts.maxTrials;
    const u64 trials = exhaustive ? (1ULL << T) : opts.maxTrials;

    std::vector<AbsTok> opnd;
    std::vector<u8> fired;
    std::vector<u8> writeCount;
    std::vector<bool> outcome(n, false);

    for (u64 trial = 0; trial < trials; ++trial) {
        // Assign test outcomes for this trial.
        for (unsigned t = 0; t < T; ++t) {
            bool bit;
            if (exhaustive)
                bit = (trial >> t) & 1;
            else if (trial == 0)
                bit = false;
            else if (trial == 1)
                bit = true;
            else
                bit = (mix(trial * 1315423911u + t) >> 13) & 1;
            outcome[testIdx[t]] = bit;
        }

        opnd.assign(3 * n, AbsTok{});
        fired.assign(n, 0);
        writeCount.assign(hb.writes.size(), 0);
        unsigned branchesFired = 0;
        std::string deliveryErr;
        std::vector<u32> ready;

        auto try_fire = [&](u32 i) -> bool {
            if (fired[i])
                return false;
            const TNode &nd = hb.nodes[i];
            const auto &info = isa::opInfo(nd.op);
            if (nd.predNode >= 0) {
                const AbsTok &p = opnd[3 * i + 2];
                if (p.st == T_EMPTY)
                    return false;
                if (p.st == T_NULL || p.bit != nd.predPol)
                    return false;  // dead: never fires
            }
            for (unsigned k = 0; k < info.numInputs; ++k) {
                if (opnd[3 * i + k].st == T_EMPTY)
                    return false;
            }
            return true;
        };

        auto outTok = [&](u32 i) {
            const TNode &nd = hb.nodes[i];
            const auto &info = isa::opInfo(nd.op);
            AbsTok out;
            bool any_null = false;
            for (unsigned k = 0; k < info.numInputs; ++k)
                any_null |= opnd[3 * i + k].st == T_NULL;
            if (nd.op == Opcode::NULLW || any_null) {
                out.st = T_NULL;
            } else {
                out.st = T_VALUE;
                out.bit = isa::isTest(nd.op) ? outcome[i]
                         : nd.op == Opcode::MOV ? opnd[3 * i].bit
                                                : false;
            }
            return out;
        };

        auto deliver = [&](u32 producer, const AbsTok &tok) {
            for (const Edge &e : consumers[producer]) {
                AbsTok &slot = opnd[3 * e.node + e.opnd];
                if (slot.st != T_EMPTY && deliveryErr.empty()) {
                    deliveryErr = "operand " + std::to_string(e.opnd) +
                                  " of n" + std::to_string(e.node) +
                                  " received two tokens";
                }
                slot = tok;
                ready.push_back(e.node);
            }
            for (auto &[w, p] : writeFeeds[producer]) {
                (void)p;
                if (writeCount[w] && deliveryErr.empty()) {
                    deliveryErr = "write w" + std::to_string(w) +
                                  " received two tokens";
                }
                ++writeCount[w];
            }
        };

        // Register reads always deliver a value.
        for (u32 r = 0; r < hb.reads.size(); ++r) {
            AbsTok tok;
            tok.st = T_VALUE;
            for (const Edge &e : readConsumers[r]) {
                AbsTok &slot = opnd[3 * e.node + e.opnd];
                if (slot.st != T_EMPTY && deliveryErr.empty()) {
                    deliveryErr = "operand " + std::to_string(e.opnd) +
                                  " of n" + std::to_string(e.node) +
                                  " received two tokens";
                }
                slot = tok;
                ready.push_back(e.node);
            }
        }
        for (u32 w = 0; w < hb.writes.size(); ++w) {
            for (i32 p : hb.writes[w].prods) {
                if (p < 0) {
                    if (writeCount[w] && deliveryErr.empty()) {
                        deliveryErr = "write w" + std::to_string(w) +
                                      " received two tokens";
                    }
                    ++writeCount[w];
                }
            }
        }
        for (u32 i = 0; i < n; ++i) {
            if (isa::opInfo(hb.nodes[i].op).numInputs == 0)
                ready.push_back(i);
        }

        while (!ready.empty()) {
            u32 i = ready.back();
            ready.pop_back();
            if (!try_fire(i))
                continue;
            fired[i] = 1;
            if (isa::isBranch(hb.nodes[i].op)) {
                ++branchesFired;
                continue;
            }
            deliver(i, outTok(i));
        }
        if (!deliveryErr.empty())
            return err(deliveryErr + describeTrial(testIdx, outcome));

        for (u32 w = 0; w < hb.writes.size(); ++w) {
            if (writeCount[w] != 1) {
                return err("write w" + std::to_string(w) +
                           (hb.writes[w].v != wir::NO_VREG
                                ? " (v" + std::to_string(hb.writes[w].v) +
                                      ")"
                                : std::string()) +
                           " received " + std::to_string(writeCount[w]) +
                           " tokens (NULLW complement coverage hole)" +
                           describeTrial(testIdx, outcome));
            }
        }
        for (u32 i = 0; i < n; ++i) {
            if (isa::isStore(hb.nodes[i].op) && !fired[i]) {
                return err("store n" + std::to_string(i) + " (lsid " +
                           std::to_string(hb.nodes[i].lsid) +
                           ") starved of an operand" +
                           describeTrial(testIdx, outcome));
            }
        }
        if (branchesFired != 1) {
            return err(std::to_string(branchesFired) +
                       " block exits fired (want exactly 1)" +
                       describeTrial(testIdx, outcome));
        }
    }
    return "";
}

// ---------------------------------------------------------------------
// Delivery / totality analysis (used by the block-splitting pass)
// ---------------------------------------------------------------------

namespace {

/**
 * Does the set deliver on every path, given per-node delivery `memo`
 * (1 = always delivers)? Node ids pre-fanout are topologically
 * ordered, so an ascending pass over the memo converges.
 */
template <typename Memo>
bool
setTotal(const HBlock &hb, const Memo &memo, const ProdSet &prods)
{
    auto delivers = [&](i32 i) { return i < 0 || memo[i] == 1; };
    if (prods.size() == 1)
        return delivers(prods[0]);  // register reads always deliver
    if (prods.size() == 2) {
        i32 a = prods[0], b = prods[1];
        if (a < 0 || b < 0)
            return false;
        const TNode &na = hb.nodes[a];
        const TNode &nb = hb.nodes[b];
        // Complementary mov pair over one always-delivering test.
        if (na.op == Opcode::MOV && nb.op == Opcode::MOV &&
            na.predNode >= 0 && na.predNode == nb.predNode &&
            na.predPol != nb.predPol &&
            memo[na.predNode] == 1 &&
            setTotal(hb, memo, na.in0) && setTotal(hb, memo, nb.in0))
            return true;
        return false;
    }
    return false;
}

} // namespace

std::vector<bool>
alwaysDelivers(const HBlock &hb)
{
    const size_t n = hb.nodes.size();
    std::vector<i8> memo(n, 0);
    for (size_t i = 0; i < n; ++i) {
        const TNode &nd = hb.nodes[i];
        const auto &info = isa::opInfo(nd.op);
        if (nd.predNode >= 0 || nd.op == Opcode::NULLW ||
            isa::isBranch(nd.op) || info.numTargets == 0)
            continue;
        bool ok = true;
        if (info.numInputs >= 1)
            ok &= setTotal(hb, memo, nd.in0);
        if (info.numInputs >= 2)
            ok &= setTotal(hb, memo, nd.in1);
        memo[i] = ok ? 1 : 0;
    }
    std::vector<bool> out(n);
    for (size_t i = 0; i < n; ++i)
        out[i] = memo[i] == 1;
    return out;
}

bool
totalSet(const HBlock &hb, const std::vector<bool> &always,
         const ProdSet &prods)
{
    return setTotal(hb, always, prods);
}

} // namespace trips::compiler::til
