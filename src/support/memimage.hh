/**
 * @file
 * Sparse little-endian byte-addressable memory image shared by the WIR
 * interpreter and the RISC/TRIPS simulators, so all execution models run
 * against identical data.
 */

#ifndef TRIPSIM_SUPPORT_MEMIMAGE_HH
#define TRIPSIM_SUPPORT_MEMIMAGE_HH

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "support/common.hh"

namespace trips {

/** Paged sparse memory; unwritten bytes read as zero. */
class MemImage
{
  public:
    static constexpr unsigned PAGE_BITS = 12;
    static constexpr Addr PAGE_SIZE = 1ULL << PAGE_BITS;

    u8
    read8(Addr a) const
    {
        auto it = pages.find(a >> PAGE_BITS);
        if (it == pages.end())
            return 0;
        return it->second[a & (PAGE_SIZE - 1)];
    }

    void
    write8(Addr a, u8 v)
    {
        page(a)[a & (PAGE_SIZE - 1)] = v;
    }

    u64
    read(Addr a, unsigned bytes) const
    {
        const Addr off = a & (PAGE_SIZE - 1);
        u64 v = 0;
        if (off + bytes <= PAGE_SIZE) {
            // Fast path: one page lookup for the whole access.
            auto it = pages.find(a >> PAGE_BITS);
            if (it == pages.end())
                return 0;
            const u8 *p = it->second.data() + off;
            for (unsigned i = 0; i < bytes; ++i)
                v |= static_cast<u64>(p[i]) << (8 * i);
            return v;
        }
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<u64>(read8(a + i)) << (8 * i);
        return v;
    }

    void
    write(Addr a, u64 v, unsigned bytes)
    {
        const Addr off = a & (PAGE_SIZE - 1);
        if (off + bytes <= PAGE_SIZE) {
            u8 *p = page(a).data() + off;
            for (unsigned i = 0; i < bytes; ++i)
                p[i] = static_cast<u8>(v >> (8 * i));
            return;
        }
        for (unsigned i = 0; i < bytes; ++i)
            write8(a + i, static_cast<u8>(v >> (8 * i)));
    }

    u64 read64(Addr a) const { return read(a, 8); }
    void write64(Addr a, u64 v) { write(a, v, 8); }

    double
    readF64(Addr a) const
    {
        u64 bits = read64(a);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    writeF64(Addr a, double d)
    {
        u64 bits;
        std::memcpy(&bits, &d, 8);
        write64(a, bits);
    }

    /** Copy @p n bytes to @p a, one page lookup per page touched; it
     *  leaves the same resident pages as @p n single-byte writes. */
    void
    writeBytes(Addr a, const void *src, size_t n)
    {
        const u8 *p = static_cast<const u8 *>(src);
        while (n > 0) {
            const Addr off = a & (PAGE_SIZE - 1);
            const size_t run = std::min<size_t>(n, PAGE_SIZE - off);
            std::memcpy(page(a).data() + off, p, run);
            a += run;
            p += run;
            n -= run;
        }
    }

    /** Number of resident pages (for tests). */
    size_t residentPages() const { return pages.size(); }

    /** Resident pages, keyed by page index (addr >> PAGE_BITS).
     *  Iteration order is unspecified; serializers must sort. */
    const std::unordered_map<Addr, std::vector<u8>> &
    rawPages() const
    {
        return pages;
    }

    /** Install one full page (PAGE_SIZE bytes) at page index
     *  @p page_idx — the bulk path checkpoint restore uses (one map
     *  lookup per page, not per byte). */
    void
    writePage(Addr page_idx, const u8 *src)
    {
        auto &p = pages[page_idx];
        if (p.empty())
            p.resize(PAGE_SIZE);
        std::memcpy(p.data(), src, PAGE_SIZE);
    }

    /** Raw bytes of a resident page, or nullptr (reads as zeros). */
    const u8 *
    pageData(Addr page_idx) const
    {
        auto it = pages.find(page_idx);
        return it == pages.end() ? nullptr : it->second.data();
    }

    /**
     * Mutable raw bytes of the page containing @p a, creating the page
     * if absent. The pointer stays valid until the image is assigned
     * or moved over (page buffers are never moved or erased), which is
     * what lets the functional fast path keep a one-entry page cache.
     */
    u8 *
    pageMutable(Addr a)
    {
        return page(a).data();
    }

  private:
    std::vector<u8> &
    page(Addr a)
    {
        auto &p = pages[a >> PAGE_BITS];
        if (p.empty())
            p.assign(PAGE_SIZE, 0);
        return p;
    }

    std::unordered_map<Addr, std::vector<u8>> pages;
};

} // namespace trips

#endif // TRIPSIM_SUPPORT_MEMIMAGE_HH
