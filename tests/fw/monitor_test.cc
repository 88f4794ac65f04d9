/**
 * @file
 * Unit/integration tests for the secure monitor: boot-time partition,
 * ownership-validated device mapping, Fig 13 cost structure, cold
 * switching, hot/cold promotion and S-mode delegation.
 */

#include <gtest/gtest.h>

#include "fw/monitor.hh"
#include "iopmp/siopmp.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"

namespace siopmp {
namespace fw {
namespace {

constexpr Addr kMmioBase = 0x1000'0000;
constexpr Addr kExtBase = 0x7000'0000;

class MonitorTest : public ::testing::Test
{
  protected:
    MonitorTest()
        : unit(iopmp::IopmpConfig{}, iopmp::CheckerKind::Tree, 1),
          ext_table(&backing, {kExtBase, 0x10000}, 8),
          monitor(&unit, &mmio, kMmioBase, &ext_table, nullptr)
    {
        mmio.map("siopmp", {kMmioBase, iopmp::regmap::kWindowSize},
                 &unit);
        monitor.init({0x8000'0000, 0x4000'0000}, {kExtBase, 0x10000});
    }

    /** Build a TEE owning one device and the given memory range. */
    OwnerId
    makeTee(DeviceId device, mem::Range range)
    {
        CapId dev_cap = monitor.registerDevice(device);
        return monitor.createTee("tee", range, {dev_cap});
    }

    iopmp::SIopmp unit;
    mem::MmioBus mmio;
    mem::Backing backing;
    iopmp::ExtendedTable ext_table;
    SecureMonitor monitor;
};

TEST_F(MonitorTest, InitPartitionsMdWindows)
{
    // SID s pairs with MD s; windows are contiguous 8-entry slices.
    auto [lo0, hi0] = monitor.mdWindow(0);
    auto [lo1, hi1] = monitor.mdWindow(1);
    EXPECT_EQ(lo0, 0u);
    EXPECT_EQ(hi0, 8u);
    EXPECT_EQ(lo1, 8u);
    EXPECT_EQ(hi1, 16u);
    EXPECT_EQ(unit.mdcfg().top(0), 8u);
    EXPECT_TRUE(unit.src2md().associated(0, 0));
    EXPECT_FALSE(unit.src2md().associated(0, 1));
    // Cold SID pairs with the cold MD.
    EXPECT_TRUE(unit.src2md().associated(unit.coldSid(), 62));
}

TEST_F(MonitorTest, InitProtectsExtendedTableViaPmp)
{
    EXPECT_FALSE(monitor.pmp().check(kExtBase + 0x100, 8, Perm::Read,
                                     PrivMode::S));
    EXPECT_TRUE(monitor.pmp().check(kExtBase + 0x100, 8, Perm::Read,
                                    PrivMode::M));
}

TEST_F(MonitorTest, CreateTeeTransfersCaps)
{
    CapId dev_cap = monitor.registerDevice(5);
    OwnerId tee = monitor.createTee("net-tee", {0x8800'0000, 0x0100'0000},
                                    {dev_cap});
    ASSERT_NE(tee, 0u);
    EXPECT_TRUE(monitor.caps().findDeviceCap(tee, 5).has_value());
    EXPECT_TRUE(monitor.caps()
                    .findMemoryCap(tee, 0x8800'0000, 0x1000,
                                   CapRights::Map)
                    .has_value());
    ASSERT_NE(monitor.tee(tee), nullptr);
    EXPECT_EQ(monitor.tee(tee)->name(), "net-tee");
}

TEST_F(MonitorTest, CreateTeeFailsOutsideDramRoot)
{
    CapId dev_cap = monitor.registerDevice(5);
    EXPECT_EQ(monitor.createTee("bad", {0x1000, 0x1000}, {dev_cap}), 0u);
}

TEST_F(MonitorTest, DeviceMapInstallsEntryAndRecordsMapping)
{
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    auto result = monitor.deviceMap(tee, 5, {0x8800'0000, 0x2000},
                                    Perm::ReadWrite);
    ASSERT_TRUE(result.ok);
    const iopmp::Entry &entry = unit.entryTable().get(result.entry_index);
    EXPECT_TRUE(entry.enabled());
    EXPECT_EQ(entry.base(), 0x8800'0000u);
    EXPECT_EQ(entry.size(), 0x2000u);

    // The device is now hot and authorized in that window.
    auto auth = unit.authorize(5, 0x8800'0000, 64, Perm::Read);
    EXPECT_EQ(auth.status, iopmp::AuthStatus::Allow);
}

TEST_F(MonitorTest, DeviceMapRejectsUnownedMemory)
{
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    // Outside the TEE's memory capability.
    auto result =
        monitor.deviceMap(tee, 5, {0x9900'0000, 0x1000}, Perm::Read);
    EXPECT_FALSE(result.ok);
}

TEST_F(MonitorTest, DeviceMapRejectsUnownedDevice)
{
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    monitor.registerDevice(6); // exists but stays monitor-owned
    auto result =
        monitor.deviceMap(tee, 6, {0x8800'0000, 0x1000}, Perm::Read);
    EXPECT_FALSE(result.ok);
}

TEST_F(MonitorTest, DeviceUnmapClearsEntry)
{
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    auto mapped = monitor.deviceMap(tee, 5, {0x8800'0000, 0x1000},
                                    Perm::ReadWrite);
    ASSERT_TRUE(mapped.ok);
    auto unmapped = monitor.deviceUnmap(tee, 5, mapped.entry_index);
    ASSERT_TRUE(unmapped.ok);
    EXPECT_FALSE(unit.entryTable().get(mapped.entry_index).enabled());
    EXPECT_EQ(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
}

TEST_F(MonitorTest, Fig13CostStructure)
{
    // The headline numbers: blocking adds 35 cycles, each entry
    // modification 14 — total 35 + 14k.
    unit.cam().set(0, 9);
    for (unsigned k : {1u, 4u, 8u}) {
        std::vector<iopmp::Entry> entries;
        for (unsigned i = 0; i < k; ++i) {
            entries.push_back(iopmp::Entry::range(0x8000'0000 + i * 0x1000,
                                                  0x1000, Perm::Read));
        }
        auto atomic = monitor.modifyEntries(9, entries, /*atomic=*/true);
        ASSERT_TRUE(atomic.ok);
        EXPECT_EQ(atomic.cost, 35u + 14u * k) << k;

        auto raw = monitor.modifyEntries(9, entries, /*atomic=*/false);
        EXPECT_EQ(raw.cost, 14u * k) << k;
    }
}

TEST_F(MonitorTest, ModifyEntriesRejectsOversizedSet)
{
    unit.cam().set(0, 9);
    std::vector<iopmp::Entry> entries(
        9, iopmp::Entry::range(0x8000'0000, 0x1000, Perm::Read));
    EXPECT_FALSE(monitor.modifyEntries(9, entries, true).ok);
}

TEST_F(MonitorTest, ColdSwitchMountsDeviceAndCosts341)
{
    iopmp::MountRecord record;
    record.esid = 777;
    record.md_bitmap = std::uint64_t{1} << 62;
    for (unsigned i = 0; i < 8; ++i) {
        record.entries.push_back(iopmp::Entry::range(
            0x9000'0000 + i * 0x1000, 0x1000, Perm::ReadWrite));
    }
    ASSERT_TRUE(monitor.registerColdDevice(record));

    // First access: SID missing.
    auto miss = unit.authorize(777, 0x9000'0000, 64, Perm::Read);
    EXPECT_EQ(miss.status, iopmp::AuthStatus::SidMiss);

    const Cycle cost = monitor.serviceInterrupts(0);
    EXPECT_EQ(cost, 341u); // paper: 341 cycles for 8 entries

    // Mounted: eSID matches, cold window grants access.
    EXPECT_EQ(unit.mountedCold(), std::optional<DeviceId>(777));
    auto ok = unit.authorize(777, 0x9000'0000, 64, Perm::Read);
    EXPECT_EQ(ok.status, iopmp::AuthStatus::Allow);
    EXPECT_EQ(ok.sid, unit.coldSid());
}

TEST_F(MonitorTest, SecondColdDeviceEvictsFirst)
{
    for (DeviceId dev : {900ull, 901ull}) {
        iopmp::MountRecord record;
        record.esid = dev;
        record.md_bitmap = std::uint64_t{1} << 62;
        record.entries.push_back(iopmp::Entry::range(
            0x9000'0000 + dev * 0x10000, 0x1000, Perm::Read));
        monitor.registerColdDevice(record);
    }
    unit.authorize(900, 0x9000'0000 + 900 * 0x10000, 64, Perm::Read);
    monitor.serviceInterrupts(0);
    EXPECT_EQ(unit.mountedCold(), std::optional<DeviceId>(900));

    unit.authorize(901, 0x9000'0000 + 901 * 0x10000, 64, Perm::Read);
    monitor.serviceInterrupts(0);
    EXPECT_EQ(unit.mountedCold(), std::optional<DeviceId>(901));
    // 900 is cold again: next access misses.
    EXPECT_EQ(
        unit.authorize(900, 0x9000'0000 + 900 * 0x10000, 64, Perm::Read)
            .status,
        iopmp::AuthStatus::SidMiss);
}

TEST_F(MonitorTest, ImplicitPromotionAfterRepeatedMisses)
{
    iopmp::MountRecord record;
    record.esid = 555;
    record.md_bitmap = std::uint64_t{1} << 62;
    record.entries.push_back(
        iopmp::Entry::range(0x9000'0000, 0x1000, Perm::ReadWrite));
    monitor.registerColdDevice(record);

    // Interleave with another cold device to force repeated misses.
    iopmp::MountRecord other;
    other.esid = 556;
    other.md_bitmap = std::uint64_t{1} << 62;
    other.entries.push_back(
        iopmp::Entry::range(0x9100'0000, 0x1000, Perm::Read));
    monitor.registerColdDevice(other);

    for (int round = 0; round < 3; ++round) {
        unit.authorize(555, 0x9000'0000, 64, Perm::Read);
        monitor.serviceInterrupts(0);
        unit.authorize(556, 0x9100'0000, 64, Perm::Read);
        monitor.serviceInterrupts(0);
    }
    // After promote_threshold misses, 555 got a hot CAM row.
    EXPECT_TRUE(monitor.hotSid(555).has_value());
    EXPECT_EQ(unit.authorize(555, 0x9000'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);
}

TEST_F(MonitorTest, ExplicitPromoteAndDemote)
{
    iopmp::MountRecord record;
    record.esid = 321;
    record.md_bitmap = std::uint64_t{1} << 62;
    record.entries.push_back(
        iopmp::Entry::range(0x9200'0000, 0x1000, Perm::ReadWrite));
    monitor.registerColdDevice(record);

    auto promoted = monitor.promoteToHot(321);
    ASSERT_TRUE(promoted.ok);
    auto sid = monitor.hotSid(321);
    ASSERT_TRUE(sid.has_value());
    // Its extended-table rules moved into the hot window.
    EXPECT_FALSE(ext_table.contains(321));
    EXPECT_EQ(unit.authorize(321, 0x9200'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);

    auto demoted = monitor.demoteToCold(321);
    ASSERT_TRUE(demoted.ok);
    EXPECT_FALSE(monitor.hotSid(321).has_value());
    EXPECT_TRUE(ext_table.contains(321));
    EXPECT_EQ(unit.authorize(321, 0x9200'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::SidMiss);
}

TEST_F(MonitorTest, ViolationInterruptAcknowledged)
{
    unit.cam().set(0, 5);
    unit.authorize(5, 0xdead'0000, 64, Perm::Write, 7);
    EXPECT_TRUE(unit.violationRecord().has_value());
    monitor.serviceInterrupts(7);
    EXPECT_EQ(monitor.violationsHandled(), 1u);
    EXPECT_FALSE(unit.violationRecord().has_value()); // acked
}

TEST_F(MonitorTest, DestroyTeeRemovesMappingsAndCaps)
{
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    auto mapped = monitor.deviceMap(tee, 5, {0x8800'0000, 0x2000},
                                    Perm::ReadWrite);
    ASSERT_TRUE(mapped.ok);
    ASSERT_EQ(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);

    auto destroyed = monitor.destroyTee(tee);
    ASSERT_TRUE(destroyed.ok);
    EXPECT_EQ(monitor.tee(tee), nullptr);

    // The entry is gone and the device demoted out of the CAM.
    EXPECT_FALSE(unit.entryTable().get(mapped.entry_index).enabled());
    EXPECT_FALSE(monitor.hotSid(5).has_value());
    EXPECT_NE(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Allow);

    // Its capabilities are revoked through the chain.
    EXPECT_FALSE(monitor.caps().findDeviceCap(tee, 5).has_value());
    EXPECT_FALSE(monitor.caps()
                     .findMemoryCap(tee, 0x8800'0000, 0x1000,
                                    CapRights::Map)
                     .has_value());
}

TEST_F(MonitorTest, DestroyedTeeDeviceCannotRemount)
{
    // A destroyed TEE's device must not sneak back in through a cold
    // mount of stale extended-table rules.
    OwnerId tee = makeTee(5, {0x8800'0000, 0x0100'0000});
    monitor.deviceMap(tee, 5, {0x8800'0000, 0x2000}, Perm::ReadWrite);
    monitor.destroyTee(tee);

    auto miss = unit.authorize(5, 0x8800'0000, 64, Perm::Read);
    EXPECT_EQ(miss.status, iopmp::AuthStatus::SidMiss);
    monitor.serviceInterrupts(0); // mount attempt finds no record
    EXPECT_EQ(unit.authorize(5, 0x8800'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::SidMiss);
}

TEST_F(MonitorTest, DestroyUnknownTeeFails)
{
    EXPECT_FALSE(monitor.destroyTee(777).ok);
}

TEST_F(MonitorTest, SmodeDelegationWindowEnforced)
{
    monitor.delegateToSmode(8, 16);
    auto inside = monitor.smodeSetEntry(
        10, iopmp::Entry::range(0x8000'0000, 0x100, Perm::Read));
    EXPECT_TRUE(inside.ok);
    EXPECT_TRUE(unit.entryTable().get(10).enabled());

    auto outside = monitor.smodeSetEntry(
        4, iopmp::Entry::range(0x8000'0000, 0x100, Perm::ReadWrite));
    EXPECT_FALSE(outside.ok);
    EXPECT_FALSE(unit.entryTable().get(4).enabled());
}

TEST_F(MonitorTest, MonitorEntriesDominateSmodeEntries)
{
    // High-priority (low-index) monitor entry denies what a delegated
    // low-priority S-mode entry would allow.
    unit.cam().set(0, 5);
    monitor.delegateToSmode(4, 8);
    unit.entryTable().set(
        0, iopmp::Entry::range(0x880'0000, 0x1000, Perm::None));
    monitor.smodeSetEntry(
        5, iopmp::Entry::range(0x880'0000, 0x100'0000, Perm::ReadWrite));
    EXPECT_EQ(unit.authorize(5, 0x880'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
}

} // namespace
} // namespace fw
} // namespace siopmp
