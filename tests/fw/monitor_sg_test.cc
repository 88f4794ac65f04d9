/**
 * @file
 * Tests for the scatter-gather Device_map extension: atomic multi-
 * entry publication at the Fig 13 cost, ownership validation over
 * every segment, and window-capacity limits.
 */

#include <gtest/gtest.h>

#include "fw/monitor.hh"
#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"

namespace siopmp {
namespace fw {
namespace {

constexpr Addr kMmioBase = 0x1000'0000;

class MonitorSgTest : public ::testing::Test
{
  protected:
    MonitorSgTest()
        : unit(iopmp::IopmpConfig{}, iopmp::CheckerKind::Tree, 1),
          monitor(&unit, &mmio, kMmioBase, nullptr, nullptr)
    {
        mmio.map("siopmp", {kMmioBase, iopmp::regmap::kWindowSize},
                 &unit);
        monitor.init({0x8000'0000, 0x4000'0000}, {0x7000'0000, 0x1000});
        CapId dev_cap = monitor.registerDevice(5);
        tee = monitor.createTee("sg", {0x8800'0000, 0x0100'0000},
                                {dev_cap});
    }

    iopmp::SIopmp unit;
    mem::MmioBus mmio;
    SecureMonitor monitor;
    OwnerId tee = 0;
};

TEST_F(MonitorSgTest, MapsOneEntryPerSegment)
{
    std::vector<mem::Range> segments = {{0x8800'0000, 256},
                                        {0x8800'2000, 512},
                                        {0x8800'8000, 128}};
    auto result = monitor.deviceMapSg(tee, 5, segments, Perm::ReadWrite);
    ASSERT_TRUE(result.ok);

    // All three segments authorized, gaps denied.
    EXPECT_EQ(unit.authorize(5, 0x8800'0000, 256, Perm::Write).status,
              iopmp::AuthStatus::Allow);
    EXPECT_EQ(unit.authorize(5, 0x8800'2000, 512, Perm::Read).status,
              iopmp::AuthStatus::Allow);
    EXPECT_EQ(unit.authorize(5, 0x8800'8000, 128, Perm::Write).status,
              iopmp::AuthStatus::Allow);
    EXPECT_EQ(unit.authorize(5, 0x8800'1000, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
}

TEST_F(MonitorSgTest, CostIsSingleBlockBracketPlusPerEntry)
{
    // Map once to make the device hot, then measure a pure SG map.
    monitor.deviceMap(tee, 5, {0x8800'0000, 64}, Perm::Read);
    std::vector<mem::Range> segments;
    for (unsigned s = 0; s < 4; ++s)
        segments.push_back({0x8810'0000 + s * 0x1000, 256});
    auto result = monitor.deviceMapSg(tee, 5, segments, Perm::Read);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.cost, 35u + 14u * 4);
}

TEST_F(MonitorSgTest, RejectsSegmentOutsideOwnership)
{
    std::vector<mem::Range> segments = {{0x8800'0000, 256},
                                        {0x9900'0000, 256}};
    auto result = monitor.deviceMapSg(tee, 5, segments, Perm::Read);
    EXPECT_FALSE(result.ok);
    // Nothing installed (all-or-nothing): the device was never even
    // promoted, so its access SID-misses rather than hitting a rule.
    EXPECT_NE(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);
}

TEST_F(MonitorSgTest, RejectsWhenWindowTooSmall)
{
    std::vector<mem::Range> segments;
    for (unsigned s = 0; s < 9; ++s) // window is 8 entries
        segments.push_back({0x8800'0000 + s * 0x1000, 128});
    EXPECT_FALSE(monitor.deviceMapSg(tee, 5, segments, Perm::Read).ok);
}

TEST_F(MonitorSgTest, EmptyListRejected)
{
    EXPECT_FALSE(monitor.deviceMapSg(tee, 5, {}, Perm::Read).ok);
}

TEST_F(MonitorSgTest, SegmentsUnmappableIndividually)
{
    std::vector<mem::Range> segments = {{0x8800'0000, 256},
                                        {0x8800'2000, 256}};
    auto mapped = monitor.deviceMapSg(tee, 5, segments, Perm::ReadWrite);
    ASSERT_TRUE(mapped.ok);
    const auto &mappings = monitor.tee(tee)->mappings();
    ASSERT_EQ(mappings.size(), 2u);
    const unsigned first = mappings[0].entry_index;
    ASSERT_TRUE(monitor.deviceUnmap(tee, 5, first).ok);
    EXPECT_EQ(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
    EXPECT_EQ(unit.authorize(5, 0x8800'2000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);
}

} // namespace
} // namespace fw
} // namespace siopmp
