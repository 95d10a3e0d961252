/**
 * @file
 * Allocation-free containers for the simulators' hot loops:
 *
 *  - SmallVec<T, N>: a vector with N elements of inline storage that
 *    spills to the heap only when it outgrows them, and that never
 *    returns capacity while alive (LoopModels-style reserve-and-reuse:
 *    clear() keeps the buffer, so a warmed-up loop stops allocating).
 *  - RingQueue<T, N>: a FIFO over a power-of-two ring buffer with N
 *    elements inline, growing (amortized, rarely) by doubling.
 *
 * Both require trivially-copyable-ish usage from the simulator
 * side (elements are moved with plain copies on growth), which every
 * packet/event/queue record here satisfies.
 */

#ifndef TRIPSIM_SUPPORT_POOL_HH
#define TRIPSIM_SUPPORT_POOL_HH

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/common.hh"

namespace trips {

/**
 * Small-buffer vector. Supports the subset of std::vector the
 * simulators and the compiler use; growth keeps the old elements
 * (copied, so T must be copyable) and clear()/pop_back() never release
 * storage.
 */
template <typename T, unsigned N>
class SmallVec
{
    static_assert(N > 0, "inline capacity must be positive");

  public:
    SmallVec() = default;

    SmallVec(const SmallVec &o) { assignFrom(o); }

    /** Takes a spilled buffer over; inline elements are copied. */
    SmallVec(SmallVec &&o) noexcept { takeFrom(o); }

    SmallVec(std::initializer_list<T> l) { assign(l.begin(), l.end()); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o) {
            clear();
            assignFrom(o);
        }
        return *this;
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            clear();
            if (o.data_ != o.inlineData()) {
                if (data_ != inlineData())
                    releaseHeap(data_);
                data_ = inlineData();
                cap_ = N;
            }
            takeFrom(o);
        }
        return *this;
    }

    SmallVec &
    operator=(std::initializer_list<T> l)
    {
        assign(l.begin(), l.end());
        return *this;
    }

    /** Replace the contents with [first, last). */
    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        append(first, last);
    }

    /** Push [first, last) onto the back. */
    template <typename It>
    void
    append(It first, It last)
    {
        for (; first != last; ++first)
            push_back(*first);
    }

    /** Lexicographic order, as std::vector's (a map key). */
    friend bool
    operator<(const SmallVec &a, const SmallVec &b)
    {
        return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                            b.end());
    }

    ~SmallVec()
    {
        clear();
        if (data_ != inlineData())
            releaseHeap(data_);
    }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](size_t i) { return data_[i]; }
    const T &operator[](size_t i) const { return data_[i]; }

    T &back() { return data_[size_ - 1]; }
    const T &back() const { return data_[size_ - 1]; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return cap_; }

    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (size_t i = 0; i < size_; ++i)
                data_[i].~T();
        }
        size_ = 0;
    }

    void
    reserve(size_t want)
    {
        if (want > cap_)
            grow(want);
    }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        new (data_ + size_) T(v);
        ++size_;
    }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        T *p = new (data_ + size_) T(std::forward<Args>(args)...);
        ++size_;
        return *p;
    }

    void
    pop_back()
    {
        --size_;
        if constexpr (!std::is_trivially_destructible_v<T>)
            data_[size_].~T();
    }

    /** Remove element i preserving the order of the rest (O(n-i)). */
    void
    eraseStable(size_t i)
    {
        for (size_t k = i + 1; k < size_; ++k)
            data_[k - 1] = data_[k];
        pop_back();
    }

    /** Insert v before position i preserving order (O(n-i)). */
    void
    insertAt(size_t i, const T &v)
    {
        push_back(v);  // grows if needed; value is a placeholder
        for (size_t k = size_ - 1; k > i; --k)
            data_[k] = data_[k - 1];
        data_[i] = v;
    }

    /**
     * Drop the first `keep..size()` elements' tail: shrink to `keep`
     * elements, destroying the rest.
     */
    void
    truncate(size_t keep)
    {
        while (size_ > keep)
            pop_back();
    }

  private:
    T *inlineData() { return std::launder(reinterpret_cast<T *>(store_)); }

    /** Move o's elements into this empty vector and leave o empty:
     *  a heap buffer changes owner, inline elements are copied. */
    void
    takeFrom(SmallVec &o) noexcept
    {
        if (o.data_ != o.inlineData()) {
            data_ = o.data_;
            cap_ = o.cap_;
            size_ = o.size_;
            o.data_ = o.inlineData();
            o.cap_ = N;
            o.size_ = 0;
            return;
        }
        for (size_t i = 0; i < o.size_; ++i)
            new (data_ + i) T(o.data_[i]);
        size_ = o.size_;
        o.clear();
    }

    void
    assignFrom(const SmallVec &o)
    {
        reserve(o.size_);
        for (size_t i = 0; i < o.size_; ++i)
            new (data_ + i) T(o.data_[i]);
        size_ = o.size_;
    }

    /** Free a heap buffer with the matching aligned deallocation
     *  function (mixing aligned new[] with plain delete[] is UB). */
    static void
    releaseHeap(T *p)
    {
        ::operator delete[](p, std::align_val_t{alignof(T)});
    }

    void
    grow(size_t want)
    {
        // cap_ >= N always; the max says so to the optimizer, whose
        // bounds warnings otherwise assume an empty buffer.
        size_t cap = std::max<size_t>(cap_, N);
        while (cap < want)
            cap *= 2;
        T *heap = static_cast<T *>(
            ::operator new[](cap * sizeof(T), std::align_val_t{alignof(T)}));
        for (size_t i = 0; i < size_; ++i) {
            new (heap + i) T(data_[i]);
            if constexpr (!std::is_trivially_destructible_v<T>)
                data_[i].~T();
        }
        if (data_ != inlineData())
            releaseHeap(data_);
        data_ = heap;
        cap_ = cap;
    }

    alignas(T) unsigned char store_[N * sizeof(T)];
    T *data_ = reinterpret_cast<T *>(store_);
    size_t size_ = 0;
    size_t cap_ = N;
};

/**
 * FIFO ring queue with inline storage for N elements (N a power of
 * two). Grows by doubling; never shrinks. Supports indexed access
 * front-to-back (0 = oldest) for the frame-queue walks.
 */
template <typename T, unsigned N>
class RingQueue
{
    static_assert((N & (N - 1)) == 0, "ring capacity: power of two");
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring elements are relocated with memcpy");

  public:
    RingQueue() = default;

    RingQueue(const RingQueue &o) { *this = o; }

    RingQueue &
    operator=(const RingQueue &o)
    {
        if (this != &o) {
            clear();
            for (size_t i = 0; i < o.size(); ++i)
                push_back(o[i]);
        }
        return *this;
    }

    ~RingQueue()
    {
        if (data_ != inlineData())
            delete[] data_;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](size_t i) { return data_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const
    {
        return data_[(head_ + i) & mask_];
    }

    T &front() { return data_[head_]; }
    const T &front() const { return data_[head_]; }

    void
    push_back(const T &v)
    {
        if (size_ == mask_ + 1)
            grow();
        data_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Keep the oldest `keep` elements, drop the rest. */
    void truncate(size_t keep) { size_ = keep; }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    T *inlineData() { return store_; }

    void
    grow()
    {
        size_t cap = (mask_ + 1) * 2;
        T *heap = new T[cap];
        for (size_t i = 0; i < size_; ++i)
            heap[i] = (*this)[i];
        if (data_ != inlineData())
            delete[] data_;
        data_ = heap;
        head_ = 0;
        mask_ = cap - 1;
    }

    // Metadata ahead of the buffer: empty()/size() probes touch only
    // the queue's first cache line.
    T *data_ = store_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = N - 1;
    T store_[N];
};

} // namespace trips

#endif // TRIPSIM_SUPPORT_POOL_HH
