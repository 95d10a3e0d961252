/**
 * @file
 * Byte-level serialization primitives for the fast-simulation
 * subsystem: a little-endian ByteWriter/ByteReader pair, a CRC-32
 * (used to seal checkpoint and campaign-cache files against
 * corruption), and a 128-bit FNV-1a hasher (used to content-address
 * campaign-cache entries).
 *
 * Every multi-byte field is written little-endian at fixed width, so
 * the resulting byte streams are stable across hosts and builds — a
 * checkpoint or cache entry written by one binary is readable by any
 * other binary of the same format version.
 */

#ifndef TRIPSIM_SIM_SERIAL_HH
#define TRIPSIM_SIM_SERIAL_HH

#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "support/common.hh"
#include "support/error.hh"
#include "support/fields.hh"
#include "support/stats.hh"

namespace trips::sim {

/** CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range. */
u32 crc32(const u8 *data, size_t n);

/** True iff @p n >= 4 and the last 4 bytes are the little-endian
 *  crc32 of everything before them (the sealCrc() tail). */
bool sealIntact(const u8 *data, size_t n);

/** 32 lowercase hex digits (hi then lo). */
std::string hex128(u64 hi, u64 lo);

/** Thrown by ByteReader on truncation or a semantic parse error.
 *  Derived from TripsError, so cache readers can treat malformed
 *  records as misses while campaign drivers classify by code. */
class SerialError : public TripsError
{
  public:
    SerialError(ErrCode code, std::string message)
        : TripsError(makeStatus(code, Subsys::Sim, std::move(message)))
    {}

    const std::string &message() const { return status().message; }
};

/** Little-endian byte-stream writer with fixed-width fields. */
class ByteWriter
{
  public:
    void
    u8v(u8 v)
    {
        buf.push_back(v);
    }

    void
    u16v(u16 v)
    {
        for (unsigned i = 0; i < 2; ++i)
            buf.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void
    u32v(u32 v)
    {
        for (unsigned i = 0; i < 4; ++i)
            buf.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void
    u64v(u64 v)
    {
        for (unsigned i = 0; i < 8; ++i)
            buf.push_back(static_cast<u8>(v >> (8 * i)));
    }

    void i64v(i64 v) { u64v(static_cast<u64>(v)); }

    void
    f64v(double d)
    {
        u64 bits;
        std::memcpy(&bits, &d, 8);
        u64v(bits);
    }

    void
    bytes(const void *p, size_t n)
    {
        const u8 *b = static_cast<const u8 *>(p);
        buf.insert(buf.end(), b, b + n);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u64v(s.size());
        bytes(s.data(), s.size());
    }

    const std::vector<u8> &data() const { return buf; }
    size_t size() const { return buf.size(); }

    /** Append crc32 of everything written so far (self-sealing tail). */
    void
    sealCrc()
    {
        u32v(crc32(buf.data(), buf.size()));
    }

  private:
    std::vector<u8> buf;
};

/**
 * Bounds-checked little-endian reader. Reads past the end throw a
 * structured SerialError (ErrCode::Truncated), never UB; the error
 * carries @p what so the message names the file kind being parsed.
 * Readers that must degrade a malformed file to a miss (the campaign
 * cache) catch SerialError; loaders that cannot (checkpoint restore)
 * let it propagate as a TripsError.
 */
class ByteReader
{
  public:
    ByteReader(const u8 *data, size_t n, const char *what)
        : p(data), end(data + n), what(what)
    {}

    /** Report a semantic parse error (wrong count/kind) through the
     *  same structured channel as truncation. */
    [[noreturn]] void
    failParse(const std::string &why,
              ErrCode code = ErrCode::CorruptData) const
    {
        throw SerialError(code, std::string(what) + ": " + why);
    }

    u8
    u8v()
    {
        need(1);
        return *p++;
    }

    u16
    u16v()
    {
        need(2);
        u16 v = 0;
        for (unsigned i = 0; i < 2; ++i)
            v |= static_cast<u16>(*p++) << (8 * i);
        return v;
    }

    u32
    u32v()
    {
        need(4);
        u32 v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<u32>(*p++) << (8 * i);
        return v;
    }

    u64
    u64v()
    {
        need(8);
        u64 v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<u64>(*p++) << (8 * i);
        return v;
    }

    i64 i64v() { return static_cast<i64>(u64v()); }

    double
    f64v()
    {
        u64 bits = u64v();
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    bytes(void *dst, size_t n)
    {
        need(n);
        std::memcpy(dst, p, n);
        p += n;
    }

    std::string
    str()
    {
        u64 n = u64v();
        need(n);
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

    size_t remaining() const { return static_cast<size_t>(end - p); }

    void
    expectEnd() const
    {
        if (p != end)
            failParse(std::to_string(remaining()) +
                      " trailing bytes after the payload");
    }

  private:
    void
    need(size_t n) const
    {
        if (static_cast<size_t>(end - p) < n)
            failParse("truncated (need " + std::to_string(n) +
                      " bytes, have " + std::to_string(end - p) + ")",
                      ErrCode::Truncated);
    }

    const u8 *p;
    const u8 *end;
    const char *what;
};

/**
 * Append @p v in the record format: a record with a field list
 * (support/fields.hh) field by field in list order, bool as u8,
 * unsigned as u32, u64/i64 as 8 bytes, a double as its 8 bit-pattern
 * bytes, a Distribution as bucket count, bucket counts and weighted
 * sum, a fixed array (std::array or C array) as u32 length then its
 * elements.
 */
template <class T>
void
putFields(ByteWriter &w, const T &v)
{
    if constexpr (FieldRecord<T>) {
        T::forEachField(v, [&w](const char *, const auto &m) {
            putFields(w, m);
        });
    } else if constexpr (std::is_same_v<T, Distribution>) {
        w.u32v(v.numBuckets());
        for (unsigned b = 0; b < v.numBuckets(); ++b)
            w.u64v(v.count(b));
        // Clamped samples make the weighted sum unrecoverable from the
        // buckets alone, so it round-trips explicitly.
        w.u64v(v.weightedSum());
    } else if constexpr (std::is_same_v<T, bool>) {
        w.u8v(v);
    } else if constexpr (std::is_same_v<T, unsigned>) {
        w.u32v(v);
    } else if constexpr (std::is_same_v<T, u64> || std::is_same_v<T, i64>) {
        w.u64v(static_cast<u64>(v));
    } else if constexpr (std::is_same_v<T, double>) {
        w.f64v(v);
    } else {
        w.u32v(static_cast<u32>(std::size(v)));
        for (const auto &e : v)
            putFields(w, e);
    }
}

/** Read @p v as putFields wrote it. Throws SerialError on truncation
 *  and on a fixed array whose length is not this build's. */
template <class T>
void
getFields(ByteReader &r, T &v)
{
    if constexpr (FieldRecord<T>) {
        T::forEachField(v, [&r](const char *, auto &m) { getFields(r, m); });
    } else if constexpr (std::is_same_v<T, Distribution>) {
        u32 n = r.u32v();
        // Bound the allocation by what the record can still hold.
        if (n > r.remaining() / 8)
            r.failParse(std::to_string(n) + " buckets overrun the record",
                        ErrCode::Truncated);
        std::vector<u64> counts(n);
        for (u64 &c : counts)
            c = r.u64v();
        u64 weighted = r.u64v();
        v.restoreRaw(std::move(counts), weighted);
    } else if constexpr (std::is_same_v<T, bool>) {
        v = r.u8v();
    } else if constexpr (std::is_same_v<T, unsigned>) {
        v = r.u32v();
    } else if constexpr (std::is_same_v<T, u64> || std::is_same_v<T, i64>) {
        v = static_cast<T>(r.u64v());
    } else if constexpr (std::is_same_v<T, double>) {
        v = r.f64v();
    } else {
        u32 n = r.u32v();
        if (n != std::size(v))
            r.failParse("array of " + std::to_string(n) +
                        " elements, this build has " +
                        std::to_string(std::size(v)));
        for (auto &e : v)
            getFields(r, e);
    }
}

/** 128-bit FNV-1a content hash, fed through the ByteWriter field
 *  helpers so key material serializes exactly like file payloads. */
class Fnv128
{
  public:
    void
    update(const u8 *data, size_t n)
    {
        // Two independent 64-bit FNV-1a streams with distinct offset
        // bases; collisions would need to align in both.
        for (size_t i = 0; i < n; ++i) {
            lo_ = (lo_ ^ data[i]) * PRIME;
            hi_ = (hi_ ^ data[i]) * PRIME;
            hi_ ^= hi_ >> 29;   // extra mixing decorrelates the streams
        }
    }

    void update(const ByteWriter &w) { update(w.data().data(), w.size()); }

    u64 lo() const { return lo_; }
    u64 hi() const { return hi_; }

    /** 32 lowercase hex digits; the campaign-cache file stem. */
    std::string hex() const;

  private:
    static constexpr u64 PRIME = 0x100000001b3ULL;
    u64 lo_ = 0xcbf29ce484222325ULL;
    u64 hi_ = 0x84222325cbf29ce4ULL;
};

/** Read a whole file; returns false if it cannot be opened/read.
 *  Subject to fault injection (sim/faultio.hh) when a plan is
 *  installed: injected read faults surface as a false return or as
 *  corrupted bytes the caller's CRC/framing checks must catch. */
bool readFile(const std::string &path, std::vector<u8> &out);

/**
 * Write a whole file atomically (private temp + rename). Returns a
 * Status instead of fatal-ing: campaign-facing callers degrade a
 * failed write (uncached execution, counted), checkpoint savers
 * propagate it as a structured error. IoError/NoSpace statuses are
 * transient() and safe to retry. Subject to fault injection.
 */
Status writeFileAtomic(const std::string &path,
                       const std::vector<u8> &data);

} // namespace trips::sim

#endif // TRIPSIM_SIM_SERIAL_HH
