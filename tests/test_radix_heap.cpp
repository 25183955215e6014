/**
 * @file
 * The simulator's radix heap against a reference (time, seq) priority
 * queue on seeded random schedules.  The driver mirrors
 * DataflowSimulator's use: events at the current time go to a ready
 * worklist, later ones to the heap, and the heap is popped only once
 * the worklist is drained.
 */
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/radix_heap.h"

using namespace cash;

namespace {

struct Ev
{
    uint64_t time = 0;
    uint64_t seq = 0;
};
struct EvTime
{
    uint64_t operator()(const Ev& e) const { return e.time; }
};
using Heap = RadixHeap<Ev, EvTime>;
using Key = std::pair<uint64_t, uint64_t>;  // (time, seq)

/** Ready worklist + radix heap, checked against a global (time, seq)
 *  priority queue on every dispatch. */
class Driver
{
  public:
    uint64_t now() const { return heap_.now(); }
    bool idle() const { return head_ == ready_.size() && future_.empty(); }
    /** Smallest time queued in the heap (UINT64_MAX when empty). */
    uint64_t
    minPending() const
    {
        return future_.empty() ? UINT64_MAX : *future_.begin();
    }

    void
    push(uint64_t time)
    {
        ASSERT_GE(time, now());
        const Ev e{time, seq_++};
        ref_.push({e.time, e.seq});
        if (time == now()) {
            ready_.push_back(e);
        } else {
            heap_.push(time, e);
            future_.insert(time);
        }
    }

    /** Dispatch one event; false once everything is drained. */
    bool
    dispatch()
    {
        if (head_ == ready_.size()) {
            ready_.clear();
            head_ = 0;
            if (!heap_.popMin(ready_)) {
                EXPECT_TRUE(ref_.empty());
                return false;
            }
            EXPECT_FALSE(ready_.empty());
            EXPECT_EQ(now(), minPending());
            future_.erase(now());
            for (const Ev& e : ready_)
                EXPECT_EQ(e.time, now());
        }
        const Ev e = ready_[head_++];
        EXPECT_FALSE(ref_.empty());
        if (ref_.empty())
            return false;
        EXPECT_EQ(Key(e.time, e.seq), ref_.top()) << "dispatch #" << n_;
        ref_.pop();
        n_++;
        return true;
    }

    uint64_t dispatched() const { return n_; }

  private:
    Heap heap_;
    std::vector<Ev> ready_;
    size_t head_ = 0;
    std::multiset<uint64_t> future_;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref_;
    uint64_t seq_ = 0;
    uint64_t n_ = 0;
};

/**
 * One seeded schedule mixing every push distance the simulator sees
 * and some it never does: the current time, the heap's current minimum,
 * operator latencies, macro-engine run-aheads, one shared target time
 * approached from ever shorter distances, and gaps beyond 2^32 cycles.
 */
void
runSchedule(uint64_t seed, int ops)
{
    std::mt19937_64 rng(seed);
    auto below = [&](uint64_t n) { return rng() % n; };
    Driver d;
    uint64_t target = 5000;
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); i++) {
        if (below(100) < 45) {
            d.dispatch();
            continue;
        }
        if (target <= d.now())
            target = d.now() + 1 + below(1u << 16);
        const uint64_t now = d.now();
        switch (below(7)) {
          case 0: d.push(now); break;
          case 1:
            d.push(d.minPending() == UINT64_MAX ? now + 1
                                                : d.minPending());
            break;
          case 2: d.push(now + 1 + below(300)); break;
          case 3: d.push(now + 1 + below(1u << 20)); break;
          case 4: d.push(now + (1ull << 32) + below(1ull << 40)); break;
          default: d.push(target); break;
        }
    }
    while (!::testing::Test::HasFailure() && d.dispatch()) {
    }
    EXPECT_TRUE(d.idle());
}

TEST(RadixHeap, MatchesPriorityQueueOnRandomSchedules)
{
    for (uint64_t seed = 1; seed <= 24; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runSchedule(seed, 20000);
    }
}

TEST(RadixHeap, SameTimeFromManyDistancesKeepsPushOrder)
{
    // Events for time 1000 pushed at now = 0, 1, 3, 7, ... 999: each
    // distance files them in a different bucket, yet they must leave
    // in push order, after every earlier time.
    Driver d;
    d.push(1000);
    for (uint64_t step = 1; step < 1000; step = step * 2 + 1) {
        d.push(step);
        d.push(1000);
        while (d.now() < step)
            ASSERT_TRUE(d.dispatch());
        d.push(1000);
    }
    while (d.dispatch()) {
    }
    EXPECT_FALSE(::testing::Test::HasFailure());
    EXPECT_EQ(d.now(), 1000u);
    EXPECT_TRUE(d.idle());
}

TEST(RadixHeap, GapsBeyond32Bits)
{
    Driver d;
    const uint64_t far = (1ull << 32) + 17;
    d.push(far);
    d.push(3);
    d.push(far << 8);
    d.push(far);
    ASSERT_TRUE(d.dispatch());
    EXPECT_EQ(d.now(), 3u);
    d.push(UINT64_MAX);
    d.push(far + 1);
    while (d.dispatch()) {
    }
    EXPECT_FALSE(::testing::Test::HasFailure());
    EXPECT_EQ(d.now(), UINT64_MAX);
    EXPECT_EQ(d.dispatched(), 6u);
}

TEST(RadixHeap, EmptyPopAndClear)
{
    Heap h;
    std::vector<Ev> out;
    EXPECT_FALSE(h.popMin(out));
    EXPECT_EQ(h.now(), 0u);
    h.push(9, {9, 0});
    h.push(4, {4, 1});
    ASSERT_TRUE(h.popMin(out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_EQ(h.now(), 4u);
    h.clear();
    EXPECT_EQ(h.now(), 0u);
    EXPECT_FALSE(h.popMin(out));
}

} // namespace
