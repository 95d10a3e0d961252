#include "compiler/analysis.hh"

#include <algorithm>

namespace trips::compiler {

using wir::Function;
using wir::Instr;
using wir::NO_VREG;
using wir::TermKind;
using wir::WOp;

Liveness::Liveness(const Function &f)
{
    const size_t nb = f.blocks.size();
    liveIn.assign(nb, VregSet(f.nextVreg));
    liveOut.assign(nb, VregSet(f.nextVreg));

    // use/def per block.
    std::vector<VregSet> use(nb, VregSet(f.nextVreg));
    std::vector<VregSet> def(nb, VregSet(f.nextVreg));
    for (size_t b = 0; b < nb; ++b) {
        for (const Instr &in : f.blocks[b].instrs) {
            for (u32 s : in.srcs) {
                if (!def[b].test(s))
                    use[b].set(s);
            }
            if (in.dst != NO_VREG)
                def[b].set(in.dst);
        }
        const auto &t = f.blocks[b].term;
        if (t.kind == TermKind::Br && !def[b].test(t.cond))
            use[b].set(t.cond);
        if (t.kind == TermKind::Ret && t.retVal != NO_VREG &&
            !def[b].test(t.retVal))
            use[b].set(t.retVal);
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t bi = nb; bi-- > 0;) {
            u32 b = static_cast<u32>(bi);
            for (u32 s : f.successors(b))
                changed |= liveOut[b].merge(liveIn[s]);
            // liveIn |= use | (liveOut - def)
            changed |= liveIn[b].mergeTransfer(use[b], liveOut[b], def[b]);
        }
    }
}

bool
isCallBlock(const Function &f, u32 b)
{
    const auto &ins = f.blocks[b].instrs;
    return !ins.empty() && ins.back().op == WOp::Call;
}

unsigned
blockMemOps(const Function &f, u32 b)
{
    unsigned n = 0;
    for (const auto &in : f.blocks[b].instrs) {
        if (in.op == WOp::Load || in.op == WOp::Store)
            ++n;
    }
    return n;
}

std::vector<u32>
reversePostOrder(const Function &f)
{
    // Depth-first from the entry with an explicit stack of (block, next
    // successor): the post-order of the recursive walk that visits
    // successors in order.
    const size_t nb = f.blocks.size();
    std::vector<u8> visited(nb, 0);
    std::vector<u32> post;
    post.reserve(nb);
    std::vector<std::pair<u32, u32>> stack;
    stack.reserve(nb);
    visited[0] = 1;
    stack.emplace_back(0, 0);
    while (!stack.empty()) {
        const u32 b = stack.back().first;
        const auto succ = f.successors(b);
        if (stack.back().second < succ.count) {
            const u32 s = succ.ids[stack.back().second++];
            if (!visited[s]) {
                visited[s] = 1;
                stack.emplace_back(s, 0);
            }
            continue;
        }
        post.push_back(b);
        stack.pop_back();
    }
    std::reverse(post.begin(), post.end());
    return post;
}

std::vector<NaturalLoop>
findLoops(const Function &f)
{
    const size_t nb = f.blocks.size();

    // Dominators: iterative set intersection over one bitset row of
    // `words` u64s per block (bit h of row b: h dominates b).
    const size_t words = (nb + 63) / 64;
    const u64 lastMask = nb % 64 ? (1ull << (nb % 64)) - 1 : ~0ull;
    std::vector<u64> dom(nb * words, ~0ull);
    auto row = [&](u32 b) { return dom.data() + b * words; };
    std::vector<std::vector<u32>> preds(nb);
    for (u32 b = 0; b < nb; ++b) {
        row(b)[words - 1] &= lastMask;
        for (u32 s : f.successors(b))
            preds[s].push_back(b);
    }
    if (nb > 0) {
        std::fill(row(0), row(0) + words, 0);
        row(0)[0] = 1;
    }
    std::vector<u64> nd(words);
    bool changed = true;
    while (changed) {
        changed = false;
        for (u32 b = 1; b < nb; ++b) {
            std::fill(nd.begin(), nd.end(), preds[b].empty() ? 0 : ~0ull);
            nd[words - 1] &= lastMask;
            for (u32 p : preds[b]) {
                for (size_t w = 0; w < words; ++w)
                    nd[w] &= row(p)[w];
            }
            nd[b >> 6] |= 1ull << (b & 63);
            if (!std::equal(nd.begin(), nd.end(), row(b))) {
                std::copy(nd.begin(), nd.end(), row(b));
                changed = true;
            }
        }
    }
    auto dominates = [&](u32 h, u32 b) {
        return (row(b)[h >> 6] >> (h & 63)) & 1;
    };

    std::vector<NaturalLoop> loops;
    for (u32 b = 0; b < nb; ++b) {
        for (u32 h : f.successors(b)) {
            if (!dominates(h, b))
                continue;
            // back edge b->h: body = natural loop.
            NaturalLoop loop;
            loop.header = h;
            loop.latch = b;
            std::vector<u8> in_loop(nb, 0);
            in_loop[h] = 1;
            std::vector<u32> work;
            if (!in_loop[b]) {
                in_loop[b] = 1;
                work.push_back(b);
            }
            while (!work.empty()) {
                u32 x = work.back();
                work.pop_back();
                for (u32 p : preds[x]) {
                    if (!in_loop[p]) {
                        in_loop[p] = 1;
                        work.push_back(p);
                    }
                }
            }
            for (u32 i = 0; i < nb; ++i) {
                if (in_loop[i])
                    loop.body.push_back(i);
            }
            loops.push_back(std::move(loop));
        }
    }
    // Mark innermost flags: a loop is not innermost if another loop's
    // body is a strict subset of its body.
    for (auto &outer : loops) {
        for (const auto &inner : loops) {
            if (&outer == &inner)
                continue;
            if (inner.body.size() < outer.body.size() &&
                std::includes(outer.body.begin(), outer.body.end(),
                              inner.body.begin(), inner.body.end()))
                outer.innermost = false;
        }
    }
    return loops;
}

} // namespace trips::compiler
