/**
 * @file
 * Monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, J. ACM 1990):
 * the simulator's queue of future deliveries (docs/SIMULATOR.md).
 *
 * The clock now() never moves backwards, so an event at time t > now()
 * is filed in bucket bit_width(t ^ now()) - 1.  popMin() empties the
 * lowest non-empty bucket: the events at its smallest time go to the
 * caller, the rest each drop into a strictly lower bucket.  A bucket
 * is refilled only while it is empty, by an in-order pass over one
 * higher bucket, and is otherwise only appended to; so events at one
 * time leave in push order, with no sort.
 */
#ifndef CASH_SIM_RADIX_HEAP_H
#define CASH_SIM_RADIX_HEAP_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

namespace cash {

/** @tparam TimeOf  stateless functor giving the time an event was
 *                  pushed with (the heap stores no copy of it). */
template <class T, class TimeOf>
class RadixHeap
{
  public:
    /** Time of the events last popped (0 initially). */
    uint64_t now() const { return now_; }

    /** Queue @p e at @p time, which must be later than now(). */
    void
    push(uint64_t time, const T& e)
    {
        const int b = std::bit_width(time ^ now_) - 1;
        bucket_[b].push_back(e);
        occupied_ |= uint64_t{1} << b;
    }

    /** Advance now() to the earliest queued time and append its events
     *  to @p out in push order; false, changing nothing, if empty. */
    bool
    popMin(std::vector<T>& out)
    {
        if (occupied_ == 0)
            return false;
        const int b = std::countr_zero(occupied_);
        occupied_ &= occupied_ - 1;
        std::vector<T>& src = bucket_[b];
        uint64_t lo = UINT64_MAX, hi = 0;
        for (const T& e : src) {
            lo = std::min(lo, TimeOf{}(e));
            hi = std::max(hi, TimeOf{}(e));
        }
        now_ = lo;
        if (lo == hi && out.empty()) {
            out.swap(src);  // one timestamp: adopt the buffer
            return true;
        }
        for (const T& e : src) {
            if (TimeOf{}(e) == lo)
                out.push_back(e);
            else
                push(TimeOf{}(e), e);  // into a lower bucket
        }
        src.clear();
        return true;
    }

    /** Drop every event and reset the clock to 0; keeps capacity. */
    void
    clear()
    {
        for (std::vector<T>& v : bucket_)
            v.clear();
        occupied_ = 0;
        now_ = 0;
    }

  private:
    std::array<std::vector<T>, 64> bucket_;
    uint64_t occupied_ = 0;  ///< Bit b set iff bucket_[b] is non-empty.
    uint64_t now_ = 0;
};

} // namespace cash

#endif // CASH_SIM_RADIX_HEAP_H
