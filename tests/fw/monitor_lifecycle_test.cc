/**
 * @file
 * Lifecycle regression tests for the secure monitor: TEE destruction
 * vs the mounted-cold (eSID) slot and in-flight blocking windows,
 * unmap of evicted/remounted devices, clean failure of demotion and
 * eviction saves on a full extended table, the implicit
 * hot-promotion policy (miss-counter hygiene, CAM-full eviction,
 * destroyed-TEE devices), and the order of a promotion's register
 * writes, read off a recording proxy in front of the unit.
 *
 * The destroy-path tests fail on the pre-fix monitor, which tore down
 * a TEE's hot CAM rows but left a mounted cold device's rules live in
 * the eSID register and MD62's entry window — a destroyed domain's
 * DMA kept authorizing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fw/monitor.hh"
#include "iopmp/siopmp.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"
#include "support/recording_mmio.hh"

namespace siopmp {
namespace fw {
namespace {

constexpr Addr kMmioBase = 0x1000'0000;
constexpr Addr kExtBase = 0x7000'0000;
constexpr mem::Range kDram{0x8000'0000, 0x4000'0000};

/** Small sIOPMP (3 CAM rows + cold SID) so CAM pressure is cheap to
 * create; window partition 3 * 8 + 8 fills the 32-entry table. */
iopmp::IopmpConfig
smallConfig()
{
    iopmp::IopmpConfig cfg;
    cfg.num_entries = 32;
    cfg.num_sids = 4;
    cfg.num_mds = 4;
    return cfg;
}

/**
 * The writes @p window recorded, each named by what it programs:
 * "block W" (block-bitmap word 0 written as W), "row S" (SID S's CAM
 * row), "set I" or "off I" (entry I committed on, or written off, by
 * its cfg word; the base and size words it commits are left out).
 */
std::vector<std::string>
registerWrites(const mem::RecordingMmio &window)
{
    using namespace iopmp::regmap;
    std::vector<std::string> names;
    for (const auto &write : window.writes()) {
        if (write.offset >= kEntryBase) {
            const Addr index = (write.offset - kEntryBase) / kEntryStride;
            if ((write.offset - kEntryBase) % kEntryStride != 16)
                continue;
            const bool off = ((write.value >> 2) & 0x3) ==
                             static_cast<std::uint64_t>(
                                 iopmp::EntryMode::Off);
            names.push_back((off ? "off " : "set ") +
                            std::to_string(index));
        } else if (write.offset >= kCamBase) {
            names.push_back("row " +
                            std::to_string((write.offset - kCamBase) / 8));
        } else if (write.offset == kBlockBitmap) {
            names.push_back("block " + std::to_string(write.value));
        } else {
            names.push_back("offset " + std::to_string(write.offset));
        }
    }
    return names;
}

class LifecycleTest : public ::testing::Test
{
  protected:
    /** @param ext_size extended-table region size (shrink to force
     * capacity-exhaustion failures: 0x200 holds two records). */
    explicit LifecycleTest(Addr ext_size = 0x10000)
        : unit(smallConfig(), iopmp::CheckerKind::Tree, 1),
          window(unit),
          ext_table(&backing, {kExtBase, ext_size}, 8),
          monitor(&unit, &mmio, kMmioBase, &ext_table, nullptr)
    {
        mmio.map("siopmp", {kMmioBase, iopmp::regmap::kWindowSize},
                 &window);
        monitor.init(kDram, {kExtBase, ext_size});
    }

    /** Window of DRAM private to @p device (1 MiB apart). */
    static mem::Range
    windowOf(DeviceId device)
    {
        return {kDram.base + device * 0x10'0000, 0x10'0000};
    }

    /** TEE owning @p device and its memory window. Device caps are
     * derived from the root so the root survives TEE destruction. */
    OwnerId
    makeTee(DeviceId device)
    {
        const CapId root = monitor.registerDevice(device);
        const CapId derived =
            monitor.caps().deriveDevice(root, CapRights::Full);
        return monitor.createTee("tee", windowOf(device), {derived});
    }

    /** TEE whose device lives cold in the extended table. */
    OwnerId
    makeColdTee(DeviceId device)
    {
        const OwnerId owner = makeTee(device);
        iopmp::MountRecord record;
        record.esid = device;
        record.md_bitmap = std::uint64_t{1}
                           << (unit.config().num_mds - 1);
        record.entries.push_back(iopmp::Entry::range(
            windowOf(device).base, 0x1000, Perm::ReadWrite));
        EXPECT_TRUE(monitor.registerColdDevice(record));
        return owner;
    }

    /** One SID-missing round trip: DMA probe + interrupt service. */
    void
    missAndService(DeviceId device)
    {
        const auto auth = unit.authorize(device, windowOf(device).base,
                                         64, Perm::Read);
        ASSERT_EQ(auth.status, iopmp::AuthStatus::SidMiss);
        monitor.serviceInterrupts(0);
    }

    iopmp::AuthStatus
    probe(DeviceId device)
    {
        return unit
            .authorize(device, windowOf(device).base, 64, Perm::Read)
            .status;
    }

    double
    scalar(const char *name)
    {
        return monitor.statsGroup().scalar(name).value();
    }

    /** Map a hot device into each of the three CAM rows. */
    void
    fillCam()
    {
        for (DeviceId d : {1, 2, 3}) {
            const OwnerId tee = makeTee(d);
            ASSERT_TRUE(monitor
                            .deviceMap(tee, d, {windowOf(d).base, 0x1000},
                                       Perm::ReadWrite)
                            .ok);
        }
    }

    iopmp::SIopmp unit;
    mem::RecordingMmio window; //!< the unit's register window
    mem::MmioBus mmio;
    mem::Backing backing;
    iopmp::ExtendedTable ext_table;
    SecureMonitor monitor;
};

TEST_F(LifecycleTest, DestroyWhileMountedColdFlushesEsidSlot)
{
    const OwnerId tee = makeColdTee(9);
    missAndService(9); // cold switch mounts the record
    ASSERT_EQ(unit.mountedCold(), std::optional<DeviceId>(9));
    ASSERT_EQ(probe(9), iopmp::AuthStatus::Allow);

    const auto result = monitor.destroyTee(tee);
    ASSERT_TRUE(result.ok);

    // The eSID register is clear, MD62's window is written off, the
    // record is gone — the destroyed TEE's device is a stranger again.
    EXPECT_FALSE(unit.mountedCold().has_value());
    EXPECT_FALSE(ext_table.contains(9));
    auto [lo, hi] = monitor.mdWindow(unit.coldSid());
    for (unsigned i = lo; i < hi; ++i)
        EXPECT_FALSE(unit.entryTable().get(i).enabled()) << i;
    EXPECT_EQ(probe(9), iopmp::AuthStatus::SidMiss);
    // The flush's own block bracket was closed.
    EXPECT_FALSE(unit.blockBitmap().blocked(unit.coldSid()));
    EXPECT_EQ(scalar("mounted_cold_flushes"), 1.0);
}

TEST_F(LifecycleTest, DestroyDuringBlockingWindowPreservesBlock)
{
    const OwnerId tee = makeColdTee(9);
    missAndService(9);
    ASSERT_EQ(unit.mountedCold(), std::optional<DeviceId>(9));

    // A blocking window is in flight on the cold SID (the CPU node
    // holds it across its interrupt-handler latency and has already
    // scheduled the unblock).
    unit.blockBitmap().block(unit.coldSid());

    ASSERT_TRUE(monitor.destroyTee(tee).ok);
    EXPECT_FALSE(unit.mountedCold().has_value());
    // The in-flight bracket must survive: closing it here would let
    // blocked traffic through before the scheduled unblock.
    EXPECT_TRUE(unit.blockBitmap().blocked(unit.coldSid()));

    unit.blockBitmap().unblock(unit.coldSid());
    EXPECT_EQ(probe(9), iopmp::AuthStatus::SidMiss);
}

TEST_F(LifecycleTest, DestroyEvictsHotDeviceCompletely)
{
    const OwnerId tee = makeTee(5);
    const auto mapped = monitor.deviceMap(tee, 5, {windowOf(5).base,
                                                   0x1000},
                                          Perm::ReadWrite);
    ASSERT_TRUE(mapped.ok);
    ASSERT_TRUE(monitor.hotSid(5).has_value());

    ASSERT_TRUE(monitor.destroyTee(tee).ok);
    EXPECT_FALSE(monitor.hotSid(5).has_value());
    EXPECT_FALSE(ext_table.contains(5)); // rules not remountable
    EXPECT_EQ(probe(5), iopmp::AuthStatus::SidMiss);
}

TEST_F(LifecycleTest, UnmapAfterDemotionEditsExtendedRecord)
{
    const OwnerId tee = makeTee(5);
    const auto a = monitor.deviceMap(tee, 5, {windowOf(5).base, 0x1000},
                                     Perm::ReadWrite);
    const auto b = monitor.deviceMap(tee, 5,
                                     {windowOf(5).base + 0x2000, 0x1000},
                                     Perm::Read);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_TRUE(monitor.demoteToCold(5).ok);
    ASSERT_TRUE(ext_table.contains(5));

    // The mapping's snapshot (hot SID + entry index) is stale; the
    // unmap must edit the extended-table record instead.
    ASSERT_TRUE(monitor.deviceUnmap(tee, 5, a.entry_index).ok);
    auto record = ext_table.find(5);
    ASSERT_TRUE(record.has_value());
    ASSERT_EQ(record->entries.size(), 1u);
    EXPECT_EQ(record->entries[0].base(), windowOf(5).base + 0x2000);
}

TEST_F(LifecycleTest, UnmapWhileMountedColdRemountsWindow)
{
    const OwnerId tee = makeTee(5);
    const auto a = monitor.deviceMap(tee, 5, {windowOf(5).base, 0x1000},
                                     Perm::ReadWrite);
    const auto b = monitor.deviceMap(tee, 5,
                                     {windowOf(5).base + 0x2000, 0x1000},
                                     Perm::ReadWrite);
    ASSERT_TRUE(a.ok && b.ok);
    ASSERT_TRUE(monitor.demoteToCold(5).ok);
    missAndService(5); // remount through the eSID slot
    ASSERT_EQ(unit.mountedCold(), std::optional<DeviceId>(5));
    ASSERT_EQ(probe(5), iopmp::AuthStatus::Allow);

    // Unmapping the first range must rewrite MD62's live window, not
    // just the in-memory record.
    ASSERT_TRUE(monitor.deviceUnmap(tee, 5, a.entry_index).ok);
    EXPECT_EQ(unit.mountedCold(), std::optional<DeviceId>(5));
    EXPECT_EQ(unit.authorize(5, windowOf(5).base, 64, Perm::Read).status,
              iopmp::AuthStatus::Deny);
    EXPECT_EQ(unit.authorize(5, windowOf(5).base + 0x2000, 64,
                             Perm::Read)
                  .status,
              iopmp::AuthStatus::Allow);
}

TEST_F(LifecycleTest, ImplicitPromotionAfterThresholdMisses)
{
    makeColdTee(9);
    makeColdTee(10);

    // Devices 9 and 10 ping-pong through the single eSID slot; each
    // mount of 9 is one miss. The third one crosses promote_threshold.
    missAndService(9);
    missAndService(10);
    missAndService(9);
    missAndService(10);
    ASSERT_FALSE(monitor.hotSid(9).has_value());
    missAndService(9);

    EXPECT_TRUE(monitor.hotSid(9).has_value());
    EXPECT_FALSE(ext_table.contains(9)); // record consumed by mount
    // The promoted device left the eSID slot: its cold copy would
    // otherwise outlive the hot rules.
    EXPECT_FALSE(unit.mountedCold().has_value());
    EXPECT_EQ(scalar("promotions"), 1.0);
    EXPECT_GE(scalar("mounted_cold_flushes"), 1.0);
    EXPECT_EQ(probe(9), iopmp::AuthStatus::Allow);
}

TEST_F(LifecycleTest, MissCounterResetsOnDemotion)
{
    makeColdTee(9);
    makeColdTee(10);
    makeColdTee(11);
    missAndService(9);
    missAndService(10);
    missAndService(9);
    missAndService(10);
    missAndService(9); // third miss: promoted
    ASSERT_TRUE(monitor.hotSid(9).has_value());
    ASSERT_TRUE(monitor.demoteToCold(9).ok);

    // A demoted device must re-earn its row with three fresh misses,
    // not ride pre-demotion ones straight back in. Device 11 (two
    // banked misses of 10 would promote it mid-test) is the partner
    // bouncing 9 out of the eSID slot.
    missAndService(9);
    missAndService(11);
    missAndService(9);
    EXPECT_FALSE(monitor.hotSid(9).has_value());
    missAndService(11);
    missAndService(9);
    EXPECT_TRUE(monitor.hotSid(9).has_value());
}

TEST_F(LifecycleTest, CamFullImplicitPromotionEvictsOneVictim)
{
    fillCam();
    makeColdTee(9);
    makeColdTee(10);
    missAndService(9);
    missAndService(10);
    missAndService(9);
    missAndService(10);
    missAndService(9); // implicit promotion with a full CAM

    ASSERT_TRUE(monitor.hotSid(9).has_value());
    EXPECT_EQ(scalar("cam_evictions"), 1.0);
    // Exactly one of the residents was demoted, its rules preserved.
    unsigned still_hot = 0;
    for (DeviceId d : {1, 2, 3}) {
        if (monitor.hotSid(d)) {
            ++still_hot;
            EXPECT_FALSE(ext_table.contains(d)) << d;
        } else {
            EXPECT_TRUE(ext_table.contains(d)) << d;
        }
    }
    EXPECT_EQ(still_hot, 2u);
}

/**
 * An evicting promotion hands the row over inside one bracket under
 * the victim's SID: block, write off the victim's entry, load the new
 * device's record, rewrite the row, unblock. No DMA can resolve either
 * device to a window that holds the other's rules.
 */
TEST_F(LifecycleTest, EvictingPromotionHandsRowOverUnderVictimBlock)
{
    fillCam();
    makeColdTee(9);
    window.clear();
    ASSERT_TRUE(monitor.promoteToHot(9).ok);

    // Every row's use bit was set: the sweep clears them all and
    // stops at row 0, device 1's.
    ASSERT_EQ(monitor.hotSid(9), std::optional<Sid>(0));
    EXPECT_TRUE(ext_table.contains(1));
    EXPECT_EQ(registerWrites(window),
              (std::vector<std::string>{"block 1", "off 0", "set 0",
                                        "row 0", "block 0"}));
    EXPECT_EQ(probe(9), iopmp::AuthStatus::Allow);
    EXPECT_EQ(probe(1), iopmp::AuthStatus::SidMiss);
}

/** A free-row promotion loads the window before the row write that
 * makes it reachable. */
TEST_F(LifecycleTest, FreeRowPromotionWritesRowLast)
{
    makeColdTee(9);
    window.clear();
    ASSERT_TRUE(monitor.promoteToHot(9).ok);
    ASSERT_EQ(monitor.hotSid(9), std::optional<Sid>(0));
    EXPECT_EQ(registerWrites(window),
              (std::vector<std::string>{"set 0", "row 0"}));
    EXPECT_EQ(probe(9), iopmp::AuthStatus::Allow);
}

/**
 * The row write is a free-row promotion's one bind: with no record to
 * load it moves the config epoch and the state version once each, and
 * leaves the row's use bit set.
 */
TEST_F(LifecycleTest, FreeRowPromotionMovesVersionsOnce)
{
    const std::uint64_t epoch = unit.configEpoch();
    const std::uint64_t version = unit.stateVersion();
    ASSERT_TRUE(monitor.promoteToHot(5).ok);
    const std::optional<Sid> sid = monitor.hotSid(5);
    ASSERT_TRUE(sid.has_value());
    EXPECT_EQ(unit.configEpoch(), epoch + 1);
    EXPECT_EQ(unit.stateVersion(), version + 1);
    EXPECT_TRUE(unit.cam().useBit(*sid));
}

TEST_F(LifecycleTest, NoImplicitPromotionForDestroyedTee)
{
    const OwnerId tee = makeColdTee(9);
    makeColdTee(10);
    missAndService(9);
    missAndService(10);
    missAndService(9); // two misses banked on device 9
    ASSERT_TRUE(monitor.destroyTee(tee).ok);

    // A fresh tenant reusing the device id starts from zero: the old
    // tenant's misses must not carry over.
    makeColdTee(9);
    missAndService(10);
    missAndService(9);
    EXPECT_FALSE(monitor.hotSid(9).has_value());
    EXPECT_EQ(scalar("promotions"), 0.0);
}

TEST_F(LifecycleTest, ColdSwitchForUnknownDeviceIsHarmless)
{
    makeColdTee(9);
    missAndService(9);
    ASSERT_EQ(unit.mountedCold(), std::optional<DeviceId>(9));

    // Device 33 has no record anywhere: the handler runs, mounts
    // nothing, and the mounted tenant is undisturbed.
    ASSERT_EQ(probe(33), iopmp::AuthStatus::SidMiss);
    monitor.serviceInterrupts(0);
    EXPECT_EQ(unit.mountedCold(), std::optional<DeviceId>(9));
    EXPECT_EQ(probe(33), iopmp::AuthStatus::SidMiss);
    EXPECT_EQ(probe(9), iopmp::AuthStatus::Allow);
}

/** Variant with a two-record extended table: capacity-exhaustion
 * failure paths. */
class FullTableTest : public LifecycleTest
{
  protected:
    FullTableTest() : LifecycleTest(/*ext_size=*/0x200) {}

    /** Consume every free slot with filler cold records. */
    void
    fillTable(unsigned first_device, unsigned count)
    {
        for (unsigned i = 0; i < count; ++i) {
            iopmp::MountRecord record;
            record.esid = first_device + i;
            ASSERT_TRUE(ext_table.add(record)) << i;
        }
        iopmp::MountRecord overflow;
        overflow.esid = 9999;
        ASSERT_FALSE(ext_table.add(overflow));
    }
};

TEST_F(FullTableTest, DemoteFailsCleanlyWhenTableFull)
{
    const OwnerId tee = makeTee(5);
    ASSERT_TRUE(monitor
                    .deviceMap(tee, 5, {windowOf(5).base, 0x1000},
                               Perm::ReadWrite)
                    .ok);
    fillTable(100, 2);

    // No slot for the rules: the demotion must fail without touching
    // the hardware (silently dropping them would make the device
    // permanently unmountable).
    EXPECT_FALSE(monitor.demoteToCold(5).ok);
    EXPECT_TRUE(monitor.hotSid(5).has_value());
    EXPECT_EQ(probe(5), iopmp::AuthStatus::Allow);
    EXPECT_EQ(scalar("demote_save_failures"), 1.0);
    EXPECT_EQ(scalar("demotions"), 0.0);
}

TEST_F(FullTableTest, PromotionRollsBackWhenEvictionSaveFails)
{
    fillCam();
    fillTable(100, 2);

    // Promoting a fourth device needs a CAM row, the victim's rules
    // need a table slot, and there is none: the whole promotion (and
    // the deviceMap driving it) must fail before any register write,
    // every row and window as it was.
    const double promotions_before = scalar("promotions");
    std::vector<std::optional<DeviceId>> rows;
    for (Sid sid = 0; sid < unit.cam().numRows(); ++sid)
        rows.push_back(unit.cam().deviceAt(sid));
    std::vector<iopmp::Entry> entries;
    for (unsigned i = 0; i < unit.config().num_entries; ++i)
        entries.push_back(unit.entryTable().get(i));
    const OwnerId tee = makeTee(4);
    window.clear();
    EXPECT_FALSE(monitor
                     .deviceMap(tee, 4, {windowOf(4).base, 0x1000},
                                Perm::ReadWrite)
                     .ok);
    EXPECT_EQ(registerWrites(window), std::vector<std::string>{});
    for (Sid sid = 0; sid < unit.cam().numRows(); ++sid)
        EXPECT_EQ(unit.cam().deviceAt(sid), rows[sid]) << sid;
    for (unsigned i = 0; i < unit.config().num_entries; ++i)
        EXPECT_EQ(unit.entryTable().get(i), entries[i]) << i;
    EXPECT_FALSE(monitor.hotSid(4).has_value());
    for (DeviceId d : {1, 2, 3}) {
        EXPECT_TRUE(monitor.hotSid(d).has_value()) << d;
        EXPECT_EQ(probe(d), iopmp::AuthStatus::Allow) << d;
    }
    EXPECT_EQ(scalar("evict_save_failures"), 1.0);
    EXPECT_EQ(scalar("cam_evictions"), 0.0);
    EXPECT_EQ(scalar("promotions"), promotions_before);
}

} // namespace
} // namespace fw
} // namespace siopmp
