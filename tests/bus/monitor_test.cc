/**
 * @file
 * Unit tests for the block-state bus monitor.
 */

#include <gtest/gtest.h>

#include "bus/monitor.hh"

namespace siopmp {
namespace bus {
namespace {

TEST(BusMonitor, StartsQuiesced)
{
    BusMonitor m;
    EXPECT_TRUE(m.quiesced(1));
    EXPECT_TRUE(m.allQuiesced());
}

TEST(BusMonitor, TracksInflightPerDevice)
{
    BusMonitor m;
    m.onRequestStart(1);
    m.onRequestStart(1);
    m.onRequestStart(2);
    EXPECT_FALSE(m.quiesced(1));
    EXPECT_FALSE(m.quiesced(2));
    EXPECT_TRUE(m.quiesced(3));
    EXPECT_EQ(m.inflight(1), 2u);

    m.onResponseEnd(1);
    EXPECT_FALSE(m.quiesced(1));
    m.onResponseEnd(1);
    EXPECT_TRUE(m.quiesced(1));
    EXPECT_FALSE(m.allQuiesced()); // device 2 still in flight
    m.onResponseEnd(2);
    EXPECT_TRUE(m.allQuiesced());
}

TEST(BusMonitor, SpuriousResponseIgnored)
{
    BusMonitor m;
    m.onResponseEnd(7); // never started
    EXPECT_TRUE(m.quiesced(7));
    EXPECT_EQ(m.totalCompleted(), 0u);
}

TEST(BusMonitor, CountersAccumulate)
{
    BusMonitor m;
    for (int i = 0; i < 5; ++i)
        m.onRequestStart(1);
    for (int i = 0; i < 3; ++i)
        m.onResponseEnd(1);
    EXPECT_EQ(m.totalStarted(), 5u);
    EXPECT_EQ(m.totalCompleted(), 3u);
    EXPECT_EQ(m.inflight(1), 2u);
}

} // namespace
} // namespace bus
} // namespace siopmp
