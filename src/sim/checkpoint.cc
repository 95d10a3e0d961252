#include "sim/checkpoint.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace trips::sim {

void
putMemImage(ByteWriter &w, const MemImage &m)
{
    std::vector<Addr> idxs;
    idxs.reserve(m.rawPages().size());
    for (const auto &[idx, page] : m.rawPages())
        idxs.push_back(idx);
    std::sort(idxs.begin(), idxs.end());
    w.u64v(idxs.size());
    for (Addr idx : idxs) {
        const auto &page = m.rawPages().at(idx);
        TRIPS_ASSERT(page.size() == MemImage::PAGE_SIZE);
        w.u64v(idx);
        w.bytes(page.data(), page.size());
    }
}

MemImage
getMemImage(ByteReader &r)
{
    MemImage m;
    u64 pages = r.u64v();
    std::vector<u8> buf(MemImage::PAGE_SIZE);
    for (u64 p = 0; p < pages; ++p) {
        Addr idx = r.u64v();
        r.bytes(buf.data(), buf.size());
        m.writePage(idx, buf.data());
    }
    return m;
}

std::vector<u8>
serializeCheckpoint(const Checkpoint &ck)
{
    ByteWriter w;
    w.u32v(CKPT_MAGIC);
    w.u32v(CKPT_VERSION);
    w.u32v(ck.nextBlock);
    w.u64v(ck.blocksExecuted);
    w.u32v(isa::NUM_REGS);
    for (u64 reg : ck.regfile)
        w.u64v(reg);
    w.u64v(ck.callStack.size());
    for (u32 ret : ck.callStack)
        w.u32v(ret);
    putFields(w, ck.stats);
    putMemImage(w, ck.mem);
    w.sealCrc();
    return w.data();
}

Checkpoint
deserializeCheckpoint(const u8 *data, size_t n)
{
    static const char *what = "checkpoint";
    if (n < 12)
        TRIPS_THROW(ErrCode::Truncated, Subsys::Sim, what,
                    ": file too small (", n,
                    " bytes) to be a tripsim checkpoint");
    if (!sealIntact(data, n))
        TRIPS_THROW(ErrCode::CorruptData, Subsys::Sim, what,
                    ": CRC mismatch — the file is corrupt");

    ByteReader r(data, n - 4, what);
    u32 magic = r.u32v();
    if (magic != CKPT_MAGIC)
        TRIPS_THROW(ErrCode::CorruptData, Subsys::Sim, what,
                    ": bad magic 0x", std::hex, magic,
                    " (not a tripsim checkpoint)");
    u32 version = r.u32v();
    if (version != CKPT_VERSION)
        TRIPS_THROW(ErrCode::VersionMismatch, Subsys::Sim, what,
                    ": format version ", version,
                    " is not supported (this build reads version ",
                    CKPT_VERSION, "); re-capture the checkpoint");

    Checkpoint ck;
    ck.nextBlock = r.u32v();
    ck.blocksExecuted = r.u64v();
    u32 nregs = r.u32v();
    if (nregs != isa::NUM_REGS)
        TRIPS_THROW(ErrCode::CorruptData, Subsys::Sim, what,
                    ": register file has ", nregs,
                    " entries, expected ", isa::NUM_REGS);
    for (auto &reg : ck.regfile)
        reg = r.u64v();
    u64 depth = r.u64v();
    ck.callStack.resize(depth);
    for (auto &ret : ck.callStack)
        ret = r.u32v();
    getFields(r, ck.stats);
    ck.mem = getMemImage(r);
    r.expectEnd();
    return ck;
}

void
saveCheckpoint(const std::string &path, const Checkpoint &ck)
{
    Status st = writeFileAtomic(path, serializeCheckpoint(ck));
    if (!st.ok())
        throw TripsError(st);
}

Checkpoint
loadCheckpoint(const std::string &path)
{
    std::vector<u8> bytes;
    if (!readFile(path, bytes))
        TRIPS_THROW(ErrCode::IoError, Subsys::Sim,
                    "checkpoint: cannot read ", path);
    return deserializeCheckpoint(bytes);
}

std::string
diffMemImages(const MemImage &a, const MemImage &b, const char *tag)
{
    std::vector<Addr> idxs;
    for (const auto &[idx, page] : a.rawPages())
        idxs.push_back(idx);
    for (const auto &[idx, page] : b.rawPages())
        idxs.push_back(idx);
    std::sort(idxs.begin(), idxs.end());
    idxs.erase(std::unique(idxs.begin(), idxs.end()), idxs.end());
    static const std::vector<u8> zeros(MemImage::PAGE_SIZE, 0);
    for (Addr idx : idxs) {
        // Page-granular compare (one map lookup per page, memcmp for
        // the common equal case); an absent page reads as zeros.
        const u8 *pa = a.pageData(idx);
        const u8 *pb = b.pageData(idx);
        if (!pa)
            pa = zeros.data();
        if (!pb)
            pb = zeros.data();
        if (pa == pb || !std::memcmp(pa, pb, MemImage::PAGE_SIZE))
            continue;
        for (Addr off = 0; off < MemImage::PAGE_SIZE; ++off) {
            if (pa[off] != pb[off]) {
                Addr base = idx << MemImage::PAGE_BITS;
                std::ostringstream os;
                os << tag << ": byte at 0x" << std::hex << (base + off)
                   << " differs: 0x" << unsigned(pa[off]) << " vs 0x"
                   << unsigned(pb[off]);
                return os.str();
            }
        }
    }
    return "";
}

} // namespace trips::sim
