/** @file Unit tests for CircularBuffer. */

#include <gtest/gtest.h>

#include <deque>

#include "common/circular_buffer.hh"

namespace vpr
{
namespace
{

TEST(CircularBuffer, StartsEmpty)
{
    CircularBuffer<int> b(4);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.full());
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.capacity(), 4u);
    EXPECT_EQ(b.freeSlots(), 4u);
}

TEST(CircularBuffer, PushBackGrows)
{
    CircularBuffer<int> b(4);
    b.pushBack(1);
    b.pushBack(2);
    EXPECT_EQ(b.size(), 2u);
    EXPECT_EQ(b.front(), 1);
    EXPECT_EQ(b.back(), 2);
}

TEST(CircularBuffer, FillsToCapacity)
{
    CircularBuffer<int> b(3);
    b.pushBack(1);
    b.pushBack(2);
    b.pushBack(3);
    EXPECT_TRUE(b.full());
    EXPECT_EQ(b.freeSlots(), 0u);
}

TEST(CircularBuffer, PopFrontFifoOrder)
{
    CircularBuffer<int> b(3);
    b.pushBack(1);
    b.pushBack(2);
    b.pushBack(3);
    b.popFront();
    EXPECT_EQ(b.front(), 2);
    b.popFront();
    EXPECT_EQ(b.front(), 3);
    b.popFront();
    EXPECT_TRUE(b.empty());
}

TEST(CircularBuffer, PopBackLifoFromTail)
{
    CircularBuffer<int> b(3);
    b.pushBack(1);
    b.pushBack(2);
    b.popBack();
    EXPECT_EQ(b.back(), 1);
    EXPECT_EQ(b.size(), 1u);
}

TEST(CircularBuffer, WrapsAround)
{
    CircularBuffer<int> b(3);
    for (int i = 0; i < 100; ++i) {
        b.pushBack(i);
        if (b.size() == 3) {
            EXPECT_EQ(b.front(), i - 2);
            b.popFront();
        }
    }
    // Elements survive wrapping in order.
    EXPECT_EQ(b.at(0), 98);
    EXPECT_EQ(b.at(1), 99);
}

TEST(CircularBuffer, LogicalIndexingOldestFirst)
{
    CircularBuffer<int> b(5);
    for (int i = 10; i < 14; ++i)
        b.pushBack(i);
    b.popFront();
    for (std::size_t i = 0; i < b.size(); ++i)
        EXPECT_EQ(b.at(i), 11 + static_cast<int>(i));
}

TEST(CircularBuffer, PointerStabilityWhileAlive)
{
    // The ROB relies on element addresses staying fixed while the
    // element is in the buffer, across pushes and pops of *other*
    // elements.
    CircularBuffer<int> b(4);
    b.pushBack(1);
    b.pushBack(2);
    int *p2 = &b.at(1);
    b.popFront();
    b.pushBack(3);
    b.pushBack(4);
    EXPECT_EQ(*p2, 2);
    EXPECT_EQ(&b.at(0), p2);
}

TEST(CircularBuffer, ClearResets)
{
    CircularBuffer<int> b(3);
    b.pushBack(1);
    b.pushBack(2);
    b.clear();
    EXPECT_TRUE(b.empty());
    b.pushBack(9);
    EXPECT_EQ(b.front(), 9);
}

TEST(CircularBuffer, CompareAndSubtractWrapMatchesModuloModel)
{
    // The wrap is a compare-and-subtract, not a modulo: check it at
    // non-power-of-two capacities (and a few powers of two) over many
    // laps of mixed push/pop traffic, against a deque holding the
    // expected contents and a model head advanced with %.
    for (std::size_t cap : {1u, 2u, 3u, 5u, 7u, 8u, 12u, 64u, 100u, 127u,
                            128u, 129u}) {
        CircularBuffer<std::uint64_t> b(cap);
        std::deque<std::uint64_t> model;
        std::size_t modelHead = 0;
        std::uint64_t rng = 0x2545f4914f6cdd1dull + cap;
        std::uint64_t next = 0;
        for (int step = 0; step < 20000; ++step) {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            const unsigned op = rng % 8;
            if (op < 4 && !b.full()) {
                b.pushBack(next);
                model.push_back(next++);
            } else if (op < 7 && !b.empty()) {
                b.popFront();
                model.pop_front();
                modelHead = (modelHead + 1) % cap;
            } else if (!b.empty()) {
                b.popBack();
                model.pop_back();
            }
            ASSERT_EQ(b.size(), model.size()) << "cap " << cap;
            for (std::size_t i = 0; i < model.size(); ++i) {
                ASSERT_EQ(b.at(i), model[i]) << "cap " << cap;
                ASSERT_EQ(b.physIndexOf(i), (modelHead + i) % cap)
                    << "cap " << cap;
            }
        }
        // Every capacity went round its ring many times.
        EXPECT_GT(next, 20 * cap) << "cap " << cap;
    }
}

TEST(CircularBufferDeath, OverflowPanics)
{
    CircularBuffer<int> b(1);
    b.pushBack(1);
    EXPECT_DEATH(b.pushBack(2), "pushBack on full");
}

TEST(CircularBufferDeath, UnderflowPanics)
{
    CircularBuffer<int> b(1);
    EXPECT_DEATH(b.popFront(), "popFront on empty");
    EXPECT_DEATH(b.front(), "front of empty");
}

TEST(CircularBufferDeath, OutOfRangeIndexPanics)
{
    CircularBuffer<int> b(4);
    b.pushBack(1);
    EXPECT_DEATH(b.at(1), "out of range");
}

} // namespace
} // namespace vpr
