/**
 * @file
 * Unit tests for the issue→complete CompletionQueue: the cycle-indexed
 * calendar (timing wheel) against a binary-heap reference model. The
 * two must agree event for event; these tests pin the structure down
 * in isolation, including the paths a short run may never hit (bucket
 * wrap-around, beyond-horizon overflow, late drains that skip cycles).
 */

#include <gtest/gtest.h>

#include <queue>
#include <random>
#include <vector>

#include "core/stages/latches.hh"

namespace vpr
{
namespace
{

/** A DynInst bound to a hot-pool row, shared by every scheduled event:
 *  the queue only copies inst->slot at schedule time, and these tests
 *  compare (when, seq) pop order, not instruction identity. */
struct CqFixture
{
    CqFixture() : hot(8)
    {
        hot.reset(0);
        inst.bindHot(&hot, 0);
    }

    InstHotPool hot;
    DynInst inst;
};

/** Reference model: the completion events in a binary min-heap on
 *  (when, seq), the order the calendar must pop them in. */
class HeapQueue
{
  public:
    void
    schedule(Cycle when, InstSeqNum seq, DynInst *inst)
    {
        events.push({when, seq, inst, inst->slot});
    }

    bool
    hasDue(Cycle now) const
    {
        return !events.empty() && events.top().when <= now;
    }

    CompletionEvent
    popDue()
    {
        CompletionEvent ev = events.top();
        events.pop();
        return ev;
    }

    std::size_t pendingEvents() const { return events.size(); }

    /** Linear search of a copy: the model favours obviousness. */
    bool
    pendingFor(InstSeqNum seq) const
    {
        for (Heap copy = events; !copy.empty(); copy.pop())
            if (copy.top().seq == seq)
                return true;
        return false;
    }

  private:
    struct Later
    {
        bool
        operator()(const CompletionEvent &a, const CompletionEvent &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    using Heap =
        std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                            Later>;
    Heap events;
};

TEST(CompletionQueue, PopsInWhenThenSeqOrder)
{
    CqFixture f;
    CompletionQueue cq(16);
    // Same cycle out of seq order, plus a later cycle scheduled first.
    cq.schedule(5, 30, &f.inst);
    cq.schedule(3, 20, &f.inst);
    cq.schedule(3, 10, &f.inst);
    EXPECT_EQ(cq.pendingEvents(), 3u);

    EXPECT_FALSE(cq.hasDue(2));
    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 10u);
    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 20u);
    EXPECT_FALSE(cq.hasDue(3));
    EXPECT_FALSE(cq.hasDue(4));
    ASSERT_TRUE(cq.hasDue(5));
    EXPECT_EQ(cq.popDue().seq, 30u);
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, WrapsAroundTheRingManyTimes)
{
    CqFixture f;
    // Horizon 4: every fourth cycle reuses a bucket.
    CompletionQueue cq(4);
    InstSeqNum seq = 0;
    for (Cycle now = 0; now < 100; ++now) {
        cq.schedule(now + 3, ++seq, &f.inst);
        if (cq.hasDue(now)) {
            CompletionEvent ev = cq.popDue();
            EXPECT_EQ(ev.when, now);
            EXPECT_FALSE(cq.hasDue(now)) << "one event per cycle";
        }
    }
    // Drain the tail: the last schedule was for cycle 99 + 3.
    for (Cycle now = 100; now < 103; ++now) {
        ASSERT_TRUE(cq.hasDue(now));
        cq.popDue();
    }
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, BeyondHorizonEventsOverflowAndMigrateBack)
{
    CqFixture f;
    CompletionQueue cq(8);
    // Far beyond the 8-cycle ring: an unpipelined FP divide, say.
    cq.schedule(70, 1, &f.inst);
    cq.schedule(75, 2, &f.inst);
    cq.schedule(3, 3, &f.inst);
    EXPECT_EQ(cq.pendingEvents(), 3u);
    EXPECT_TRUE(cq.pendingFor(1));
    EXPECT_TRUE(cq.pendingFor(2));

    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 3u);
    // Nothing due while the wheel turns toward the overflow events.
    for (Cycle now = 4; now < 70; ++now)
        EXPECT_FALSE(cq.hasDue(now));
    ASSERT_TRUE(cq.hasDue(70));
    EXPECT_EQ(cq.popDue().seq, 1u);
    ASSERT_TRUE(cq.hasDue(75));
    EXPECT_EQ(cq.popDue().seq, 2u);
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, LateDrainStillPopsInOrder)
{
    CqFixture f;
    CompletionQueue cq(16);
    cq.schedule(2, 1, &f.inst);
    cq.schedule(4, 2, &f.inst);
    cq.schedule(4, 3, &f.inst);
    // The caller skips straight to cycle 9: the wheel must not skip
    // the non-empty buckets in between.
    ASSERT_TRUE(cq.hasDue(9));
    CompletionEvent a = cq.popDue();
    EXPECT_EQ(a.when, 2u);
    EXPECT_EQ(a.seq, 1u);
    ASSERT_TRUE(cq.hasDue(9));
    EXPECT_EQ(cq.popDue().seq, 2u);
    ASSERT_TRUE(cq.hasDue(9));
    EXPECT_EQ(cq.popDue().seq, 3u);
    EXPECT_FALSE(cq.hasDue(9));
}

TEST(CompletionQueue, RandomizedCalendarMatchesHeap)
{
    // Drive a calendar and a heap with an identical randomized
    // schedule/drain interleaving — bursty arrivals, idle stretches,
    // same-cycle completions, latencies past the horizon — and demand
    // the exact same pop sequence and pending count at every step.
    CqFixture f;
    CompletionQueue cal(64);
    HeapQueue heap;
    std::mt19937 rng(0xc0ffee);
    auto below = [&rng](unsigned n) { return rng() % n; };

    InstSeqNum seq = 0;
    Cycle now = 0;
    for (int step = 0; step < 4000; ++step) {
        // Bursty arrivals: usually a few, sometimes none.
        unsigned arrivals = below(10) < 7 ? below(4) : 0;
        // Each burst takes its sequence numbers youngest first. In the
        // pipeline a bucket fills out of seq order (a younger
        // instruction issued earlier with a longer latency completes in
        // the same cycle as an older one issued later); this makes two
        // same-cycle events of one burst arrive that way here too.
        for (unsigned i = 0; i < arrivals; ++i) {
            // 1..150 spans both in-ring and overflow latencies.
            Cycle when = now + 1 + below(150);
            const InstSeqNum sn = seq + arrivals - i;
            cal.schedule(when, sn, &f.inst);
            heap.schedule(when, sn, &f.inst);
        }
        seq += arrivals;
        ASSERT_EQ(cal.pendingEvents(), heap.pendingEvents());

        // Occasionally stall (skip draining) for a few cycles.
        Cycle stride = below(20) == 0 ? 1 + below(5) : 1;
        now += stride;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            CompletionEvent a = cal.popDue();
            CompletionEvent b = heap.popDue();
            ASSERT_EQ(a.when, b.when) << "step " << step;
            ASSERT_EQ(a.seq, b.seq) << "step " << step;
        }
        ASSERT_FALSE(cal.hasDue(now));
    }
    // Drain what is left, still in lockstep.
    while (heap.pendingEvents() > 0) {
        ++now;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            ASSERT_EQ(cal.popDue().seq, heap.popDue().seq);
        }
    }
    EXPECT_EQ(cal.pendingEvents(), 0u);
}

TEST(CompletionQueue, PendingForAgreesBetweenCalendarAndHeap)
{
    CqFixture f;
    CompletionQueue cal(8);
    HeapQueue heap;
    std::mt19937 rng(42);
    InstSeqNum seq = 0;
    Cycle now = 0;
    for (int step = 0; step < 200; ++step) {
        Cycle when = now + 1 + rng() % 40;
        ++seq;
        cal.schedule(when, seq, &f.inst);
        heap.schedule(when, seq, &f.inst);
        now += rng() % 3;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            cal.popDue();
            heap.popDue();
        }
        for (InstSeqNum probe = seq > 10 ? seq - 10 : 1; probe <= seq;
             ++probe) {
            ASSERT_EQ(cal.pendingFor(probe), heap.pendingFor(probe))
                << "sn:" << probe;
        }
    }
}

TEST(CompletionQueue, ParkedStoresSquashYoungerThan)
{
    // The squash filter is the recovery path — pin it down here.
    CqFixture f;
    CompletionQueue cq(16);
    cq.parkStore(&f.inst, 5);
    cq.parkStore(&f.inst, 9);
    cq.parkStore(&f.inst, 12);
    EXPECT_EQ(cq.parkedStoreCount(), 3u);
    cq.squashYoungerThan(9);
    EXPECT_EQ(cq.parkedStoreCount(), 2u);
    EXPECT_TRUE(cq.pendingFor(5));
    EXPECT_TRUE(cq.pendingFor(9));
    EXPECT_FALSE(cq.pendingFor(12));
}

} // namespace
} // namespace vpr
