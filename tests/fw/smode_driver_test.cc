/**
 * @file
 * Tests for the S-mode DMA driver built on delegated entries, and the
 * end-to-end security property: the kernel can only ever grant what
 * the monitor's high-priority rules leave reachable.
 */

#include <gtest/gtest.h>

#include "fw/smode_driver.hh"
#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"

namespace siopmp {
namespace fw {
namespace {

constexpr Addr kMmioBase = 0x1000'0000;

class SmodeDriverTest : public ::testing::Test
{
  protected:
    SmodeDriverTest()
        : unit(iopmp::IopmpConfig{}, iopmp::CheckerKind::Tree, 1),
          monitor(&unit, &mmio, kMmioBase, nullptr, nullptr),
          driver(&monitor, 4, 8)
    {
        mmio.map("siopmp", {kMmioBase, iopmp::regmap::kWindowSize},
                 &unit);
        monitor.init({0x8000'0000, 0x4000'0000}, {0x7000'0000, 0x1000});
        unit.cam().set(0, 7); // the NIC
    }

    iopmp::SIopmp unit;
    mem::MmioBus mmio;
    SecureMonitor monitor;
    SmodeDmaDriver driver;
};

TEST_F(SmodeDriverTest, MapGrantsUnmapRevokes)
{
    auto mapping = driver.dmaMap(0x8800'0000, 1500, Perm::Write);
    ASSERT_TRUE(mapping.ok);
    EXPECT_EQ(mapping.cost, 14u); // one synchronous entry write
    EXPECT_EQ(unit.authorize(7, 0x8800'0000, 1500, Perm::Write).status,
              iopmp::AuthStatus::Allow);

    const Cycle unmap_cost = driver.dmaUnmap(mapping);
    EXPECT_EQ(unmap_cost, 14u);
    EXPECT_EQ(unit.authorize(7, 0x8800'0000, 1500, Perm::Write).status,
              iopmp::AuthStatus::Deny);
}

TEST_F(SmodeDriverTest, SlotsExhaustAndRecycle)
{
    std::vector<SmodeMapping> mappings;
    for (unsigned i = 0; i < 4; ++i) {
        auto m = driver.dmaMap(0x8800'0000 + i * 0x1000, 64, Perm::Read);
        ASSERT_TRUE(m.ok) << i;
        mappings.push_back(m);
    }
    EXPECT_EQ(driver.freeSlots(), 0u);
    EXPECT_FALSE(driver.dmaMap(0x8900'0000, 64, Perm::Read).ok);
    EXPECT_EQ(driver.mapFailures(), 1u);

    driver.dmaUnmap(mappings[2]);
    EXPECT_EQ(driver.freeSlots(), 1u);
    EXPECT_TRUE(driver.dmaMap(0x8900'0000, 64, Perm::Read).ok);
}

TEST_F(SmodeDriverTest, DoubleUnmapHarmless)
{
    auto mapping = driver.dmaMap(0x8800'0000, 64, Perm::Read);
    EXPECT_GT(driver.dmaUnmap(mapping), 0u);
    EXPECT_EQ(driver.dmaUnmap(mapping), 0u);
    EXPECT_EQ(driver.unmaps(), 1u);
}

TEST_F(SmodeDriverTest, MonitorRulesDominateKernelGrants)
{
    // The monitor pins a deny rule at higher priority (lower index)
    // over a sensitive range inside the device's MD.
    unit.entryTable().set(
        0, iopmp::Entry::range(0x8800'0000, 0x1000, Perm::None));
    unit.entryTable().lock(0);

    // A hostile kernel maps exactly that range read-write.
    auto mapping =
        driver.dmaMap(0x8800'0000, 0x1000, Perm::ReadWrite);
    ASSERT_TRUE(mapping.ok);

    // The delegated (low-priority) grant loses: still denied.
    EXPECT_EQ(unit.authorize(7, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
    // But adjacent memory the monitor did not pin is grantable.
    auto ok_map = driver.dmaMap(0x8801'0000, 0x1000, Perm::ReadWrite);
    ASSERT_TRUE(ok_map.ok);
    EXPECT_EQ(unit.authorize(7, 0x8801'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);
}

TEST_F(SmodeDriverTest, KernelCannotEscapeDelegatedWindow)
{
    // smodeSetEntry outside [4, 8) is rejected by the monitor, so the
    // driver can never touch monitor-owned entries.
    auto result = monitor.smodeSetEntry(
        0, iopmp::Entry::range(0x0, ~Addr{0}, Perm::ReadWrite));
    EXPECT_FALSE(result.ok);
    auto result_hi = monitor.smodeSetEntry(
        8, iopmp::Entry::range(0x0, 0x1000, Perm::ReadWrite));
    EXPECT_FALSE(result_hi.ok);
}

TEST_F(SmodeDriverTest, PerPacketCostMatchesPaperArithmetic)
{
    // A map + unmap pair is 28 cycles — the per-packet cost the
    // Fig 15 sIOPMP rows are built on.
    Cycle total = 0;
    for (int p = 0; p < 100; ++p) {
        auto m = driver.dmaMap(0x8800'0000, 1500, Perm::Write);
        total += m.cost;
        total += driver.dmaUnmap(m);
    }
    EXPECT_EQ(total, 100u * 28);
}

} // namespace
} // namespace fw
} // namespace siopmp
