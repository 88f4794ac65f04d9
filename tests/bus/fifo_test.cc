/**
 * @file
 * Unit tests for the registered FIFO.
 */

#include <gtest/gtest.h>

#include "bus/fifo.hh"

namespace siopmp {
namespace bus {
namespace {

TEST(Fifo, PushedItemInvisibleUntilClock)
{
    Fifo<int> f(2);
    f.push(1);
    EXPECT_TRUE(f.empty());
    f.clock();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, FifoOrderPreserved)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.clock();
    f.push(3);
    f.clock();
    EXPECT_EQ(f.front(), 1);
    f.pop();
    EXPECT_EQ(f.front(), 2);
    f.pop();
    EXPECT_EQ(f.front(), 3);
}

TEST(Fifo, CanPushRespectsCapacity)
{
    Fifo<int> f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    EXPECT_TRUE(f.canPush());
    f.push(2);
    EXPECT_FALSE(f.canPush());
}

TEST(Fifo, PopFreesSpaceOnlyAfterClock)
{
    // Registered-ready semantics: a pop this cycle does not let the
    // producer push beyond capacity until the next clock edge.
    Fifo<int> f(1);
    f.push(1);
    f.clock();
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_FALSE(f.canPush()); // snapshot still counts the popped item
    f.clock();
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SustainsOneItemPerCycleAtCapacityTwo)
{
    Fifo<int> f(2);
    int pushed = 0, popped = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        // Consumer first or last — order must not matter for
        // steady-state throughput.
        if (!f.empty()) {
            f.pop();
            ++popped;
        }
        if (f.canPush()) {
            f.push(pushed);
            ++pushed;
        }
        f.clock();
    }
    EXPECT_GE(popped, 98); // full throughput minus pipeline fill
}

TEST(Fifo, OccupancyCountsReadyAndStaged)
{
    Fifo<int> f(4);
    f.push(1);
    EXPECT_EQ(f.occupancy(), 1u);
    f.clock();
    f.push(2);
    EXPECT_EQ(f.occupancy(), 2u);
}

TEST(Fifo, ResetClearsEverything)
{
    Fifo<int> f(2);
    f.push(1);
    f.clock();
    f.push(2);
    f.reset();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_TRUE(f.canPush());
}

TEST(Fifo, SettledAndInTransitTrackStagedAndReadyItems)
{
    // CheckerNode::quiescent() relies on both: a consumer may only
    // retire once nothing is staged for it and nothing is readable.
    Fifo<int> f(2);
    EXPECT_TRUE(f.settled());
    EXPECT_FALSE(f.inTransit());
    f.push(1);
    EXPECT_TRUE(f.inTransit()); // staged
    EXPECT_FALSE(f.settled());
    f.clock();
    EXPECT_FALSE(f.inTransit());
    EXPECT_FALSE(f.empty()); // readable
    EXPECT_FALSE(f.settled());
    f.pop();
    EXPECT_TRUE(f.settled());
}

TEST(FifoDeath, PushWhenFullAsserts)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full");
}

TEST(FifoDeath, PopWhenEmptyAsserts)
{
    Fifo<int> f(1);
    EXPECT_DEATH(f.pop(), "empty");
}

} // namespace
} // namespace bus
} // namespace siopmp
