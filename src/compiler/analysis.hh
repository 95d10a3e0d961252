/**
 * @file
 * WIR dataflow analyses used by the TRIPS backend: per-block liveness
 * and natural-loop detection for the unroller.
 */

#ifndef TRIPSIM_COMPILER_ANALYSIS_HH
#define TRIPSIM_COMPILER_ANALYSIS_HH

#include <vector>

#include "wir/wir.hh"

namespace trips::compiler {

/** Compact vreg bitset. */
class VregSet
{
  public:
    explicit VregSet(size_t n = 0) : nbits(n)
    {
        words.reserve((n + 63) / 64);
        for (size_t w = 0; w < (n + 63) / 64; ++w)
            words.push_back(0);
    }

    void set(u32 i) { words[i >> 6] |= 1ULL << (i & 63); }
    void clear(u32 i) { words[i >> 6] &= ~(1ULL << (i & 63)); }
    bool test(u32 i) const { return (words[i >> 6] >> (i & 63)) & 1; }

    /** this |= other; returns true if anything changed. */
    bool
    merge(const VregSet &o)
    {
        TRIPS_ASSERT(o.nbits == nbits, "VregSet width mismatch");
        bool changed = false;
        for (size_t w = 0; w < words.size(); ++w) {
            u64 nv = words[w] | o.words[w];
            changed |= nv != words[w];
            words[w] = nv;
        }
        return changed;
    }

    /** The backward liveness transfer, word by word:
     *  this |= use | (out & ~def); returns true if anything changed. */
    bool
    mergeTransfer(const VregSet &use, const VregSet &out,
                  const VregSet &def)
    {
        TRIPS_ASSERT(use.nbits == nbits && out.nbits == nbits &&
                         def.nbits == nbits,
                     "VregSet width mismatch");
        bool changed = false;
        for (size_t w = 0; w < words.size(); ++w) {
            u64 nv = words[w] | use.words[w] | (out.words[w] & ~def.words[w]);
            changed |= nv != words[w];
            words[w] = nv;
        }
        return changed;
    }

    size_t size() const { return nbits; }

    /** Call fn(i) for every set bit i, ascending. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t w = 0; w < words.size(); ++w) {
            for (u64 m = words[w]; m; m &= m - 1)
                fn(static_cast<u32>(w * 64) +
                   static_cast<u32>(__builtin_ctzll(m)));
        }
    }

    /** All set bits (ascending). */
    std::vector<u32>
    bits() const
    {
        std::vector<u32> out;
        out.reserve(count());
        forEach([&](u32 i) { out.push_back(i); });
        return out;
    }

    unsigned
    count() const
    {
        unsigned n = 0;
        for (u64 w : words)
            n += static_cast<unsigned>(__builtin_popcountll(w));
        return n;
    }

  private:
    /** Inline up to 256 vregs: a set over a generated program's
     *  function never touches the heap. */
    SmallVec<u64, 4> words;
    size_t nbits;
};

/** Backward liveness over a WIR function. */
struct Liveness
{
    std::vector<VregSet> liveIn;
    std::vector<VregSet> liveOut;

    explicit Liveness(const wir::Function &f);
};

/** A natural loop: header plus body blocks, with a single back edge. */
struct NaturalLoop
{
    u32 header = 0;
    u32 latch = 0;              ///< source of the back edge
    std::vector<u32> body;      ///< includes header
    bool innermost = true;
};

/** Detect natural loops (blocks with a back edge latch->header where
 *  the header dominates the latch). */
std::vector<NaturalLoop> findLoops(const wir::Function &f);

/** Reverse post-order of reachable blocks. */
std::vector<u32> reversePostOrder(const wir::Function &f);

/** True iff the block ends in a Call (call blocks terminate regions). */
bool isCallBlock(const wir::Function &f, u32 b);

/** Number of Load/Store instructions in the block. */
unsigned blockMemOps(const wir::Function &f, u32 b);

} // namespace trips::compiler

#endif // TRIPSIM_COMPILER_ANALYSIS_HH
