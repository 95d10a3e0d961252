/**
 * @file
 * Field lists for the simulators' result records.
 *
 * A record lists its fields once, in declaration order, in a static
 * member template
 *
 *   template <class Self, class F>
 *   static constexpr void forEachField(Self &rec, F &&f)
 *   { f("cycles", rec.cycles); f("predictor", rec.predictor); ... }
 *
 * followed by
 *
 *   static_assert(sizeof(Rec) == fieldListSize<Rec>(), ...);
 *
 * so a member missing from the list fails the build (the one blind
 * spot: a member small enough to sit entirely in padding the others
 * leave anyway). The campaign cache and checkpoint byte formats
 * (sim/serial.hh putFields/getFields) and every bit-identity check
 * (fieldDiff below) walk that one list, so none of them can skip a
 * field. The byte formats follow list order, and the format pin in
 * tests/test_checkpoint.cc catches a reorder.
 *
 * Leaf field types are bool, unsigned, u64, i64, double and
 * Distribution; std::array, C arrays and std::vector of those, and
 * nested records, recurse.
 */

#ifndef TRIPSIM_SUPPORT_FIELDS_HH
#define TRIPSIM_SUPPORT_FIELDS_HH

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "support/common.hh"
#include "support/stats.hh"

namespace trips {

/** A visitor shape, declared only so FieldRecord can test for a list. */
struct FieldProbe
{
    template <class T>
    void operator()(const char *, T &) const;
};

/** A record that lists its fields (see the file comment). */
template <class R>
concept FieldRecord = requires(const R &r, FieldProbe p) {
    R::forEachField(r, p);
};

/**
 * The sizeof a struct holding exactly @p R's listed fields, in list
 * order, would have. Evaluated on a default-constructed record at
 * compile time, so every field type must be constexpr-constructible.
 */
template <FieldRecord R>
consteval size_t
fieldListSize()
{
    R rec;
    size_t end = 0;
    size_t align = 1;
    R::forEachField(rec, [&](const char *, const auto &m) {
        using M = std::remove_cvref_t<decltype(m)>;
        end = (end + alignof(M) - 1) / alignof(M) * alignof(M) + sizeof(M);
        align = std::max(align, alignof(M));
    });
    return (end + align - 1) / align * align;
}

/**
 * Compare two values field by field, recursing into nested records,
 * arrays and distributions. Returns "" when they are identical, else
 * the path of the first differing field and both values, e.g.
 * `cores[2].predictor.mispredictions: 41 != 40`. Doubles compare bit
 * for bit. @p path prefixes every reported path.
 */
template <class T>
std::string
fieldDiff(const T &a, const T &b, const std::string &path = "")
{
    if constexpr (FieldRecord<T>) {
        // Both walks run the same list, so the i-th member of b has
        // the i-th member of a's type.
        std::vector<const void *> bFields;
        T::forEachField(b, [&](const char *, const auto &m) {
            bFields.push_back(&m);
        });
        std::string d;
        size_t i = 0;
        T::forEachField(a, [&](const char *name, const auto &m) {
            using M = std::remove_cvref_t<decltype(m)>;
            const M &mb = *static_cast<const M *>(bFields[i++]);
            if (d.empty())
                d = fieldDiff(m, mb, path.empty() ? name : path + "." + name);
        });
        return d;
    } else if constexpr (std::is_same_v<T, Distribution>) {
        if (a.numBuckets() != b.numBuckets())
            return fieldDiff(a.numBuckets(), b.numBuckets(),
                             path + ".numBuckets");
        for (unsigned i = 0; i < a.numBuckets(); ++i) {
            if (a.count(i) != b.count(i))
                return fieldDiff(a.count(i), b.count(i),
                                 path + "[" + std::to_string(i) + "]");
        }
        return fieldDiff(a.weightedSum(), b.weightedSum(),
                         path + ".weightedSum");
    } else if constexpr (std::is_floating_point_v<T>) {
        if (std::bit_cast<u64>(a) == std::bit_cast<u64>(b))
            return "";
        char buf[64];
        std::snprintf(buf, sizeof buf, ": %.17g != %.17g", a, b);
        return path + buf;
    } else if constexpr (std::is_arithmetic_v<T>) {
        if (a == b)
            return "";
        return path + ": " + std::to_string(a) + " != " + std::to_string(b);
    } else {
        // std::array, C array or std::vector.
        if (std::size(a) != std::size(b))
            return fieldDiff(std::size(a), std::size(b), path + ".size");
        for (size_t i = 0; i < std::size(a); ++i) {
            std::string d =
                fieldDiff(a[i], b[i], path + "[" + std::to_string(i) + "]");
            if (!d.empty())
                return d;
        }
        return "";
    }
}

} // namespace trips

#endif // TRIPSIM_SUPPORT_FIELDS_HH
