/**
 * @file
 * sim::Ring: FIFO order across wrap-around and growth, and a popped
 * element is released at once, not when its slot is next reused.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/ring.hh"

using namespace contutto;

namespace
{

TEST(Ring, KeepsFifoOrderAcrossWrapAndGrowth)
{
    sim::Ring<int> ring;
    int next = 0, expect = 0;
    // Depths 1..40 with the head walking round the ring, so pushes
    // wrap and every doubling (8, 16, 32, 64) happens mid-ring.
    for (int depth = 1; depth <= 40; ++depth) {
        while (int(ring.size()) < depth)
            ring.push_back(next++);
        for (int i = 0; i < depth; ++i)
            ASSERT_EQ(ring[std::size_t(i)], expect + i);
        for (int i = 0; i < depth / 2 + 1; ++i) {
            ASSERT_EQ(ring.front(), expect);
            ASSERT_EQ(ring.pop_front(), expect++);
        }
    }
    while (!ring.empty())
        ASSERT_EQ(ring.pop_front(), expect++);
    EXPECT_EQ(expect, next);
}

TEST(Ring, PopAndClearReleaseTheElement)
{
    sim::Ring<std::shared_ptr<int>> ring;
    auto a = std::make_shared<int>(1);
    auto b = std::make_shared<int>(2);
    ring.push_back(a);
    ring.push_back(b);
    EXPECT_EQ(a.use_count(), 2);
    std::shared_ptr<int> popped = ring.pop_front();
    popped.reset();
    EXPECT_EQ(a.use_count(), 1);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(b.use_count(), 1);
}

} // namespace
