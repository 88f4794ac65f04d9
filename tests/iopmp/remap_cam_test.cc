/**
 * @file
 * Unit tests for the DeviceID2SID CAM and its clock-algorithm LRU.
 */

#include <gtest/gtest.h>

#include <vector>

#include "iopmp/remap_cam.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

TEST(Cam, MissOnEmpty)
{
    DeviceId2SidCam cam(4);
    EXPECT_FALSE(cam.lookup(42).has_value());
    EXPECT_FALSE(cam.peek(42).has_value());
}

TEST(Cam, ExplicitSetAndLookup)
{
    DeviceId2SidCam cam(4);
    EXPECT_FALSE(cam.set(2, 0x1000).has_value());
    auto sid = cam.lookup(0x1000);
    ASSERT_TRUE(sid.has_value());
    EXPECT_EQ(*sid, 2u);
    EXPECT_EQ(cam.deviceAt(2), std::optional<DeviceId>(0x1000));
}

TEST(Cam, SetReturnsPreviousOccupant)
{
    DeviceId2SidCam cam(4);
    cam.set(1, 100);
    auto prev = cam.set(1, 200);
    ASSERT_TRUE(prev.has_value());
    EXPECT_EQ(*prev, 100u);
    EXPECT_FALSE(cam.peek(100).has_value());
}

TEST(Cam, DeviceMapsToAtMostOneSid)
{
    DeviceId2SidCam cam(4);
    cam.set(0, 7);
    cam.set(3, 7); // rebind to another row
    EXPECT_FALSE(cam.deviceAt(0).has_value());
    EXPECT_EQ(cam.peek(7), std::optional<Sid>(3));
}

TEST(Cam, InvalidateByDeviceAndRow)
{
    DeviceId2SidCam cam(4);
    cam.set(0, 5);
    cam.set(1, 6);
    // By device: look its row up, then invalidate the row.
    EXPECT_TRUE(cam.invalidateSid(*cam.peek(5)));
    EXPECT_FALSE(cam.peek(5).has_value());
    EXPECT_TRUE(cam.invalidateSid(1));
    EXPECT_FALSE(cam.invalidateSid(1));
    EXPECT_FALSE(cam.peek(6).has_value());
}

/**
 * A bound row starts with its use bit set: set() is the only bind, and
 * it sets the bit as a lookup does. This is the bit every promotion
 * has always left on its row (the monitor's row write); whether a row
 * should instead earn its bit by a lookup is left to the scalability
 * sweep, which can measure it.
 */
TEST(Cam, BoundRowStartsWithUseBitSet)
{
    DeviceId2SidCam cam(2);
    EXPECT_FALSE(cam.useBit(0));
    cam.set(0, 10);
    EXPECT_TRUE(cam.useBit(0));

    // The sweep clears the bit it passes; a lookup sets it again.
    cam.set(1, 11);
    EXPECT_EQ(cam.chooseVictim(), 0u);
    EXPECT_FALSE(cam.useBit(1));
    EXPECT_TRUE(cam.lookup(11).has_value());
    EXPECT_TRUE(cam.useBit(1));
}

TEST(Cam, InsertPrefersFreeRows)
{
    DeviceId2SidCam cam(3);
    for (Sid row = 0; row < 3; ++row) {
        EXPECT_EQ(cam.chooseVictim(), row);
        EXPECT_FALSE(cam.deviceAt(row).has_value());
        cam.set(row, 100 + row);
    }
    // A row freed behind the hand is taken before any sweep.
    cam.invalidateSid(1);
    EXPECT_EQ(cam.chooseVictim(), 1u);
    for (Sid row = 0; row < 3; ++row)
        EXPECT_EQ(cam.useBit(row), row != 1) << row;
}

/** Choosing binds nothing, so choosing again without a bind gives the
 * same free row, and rewriting a device's own row changes nothing. */
TEST(Cam, InsertExistingIsIdempotent)
{
    DeviceId2SidCam cam(3);
    const Sid first = cam.chooseVictim();
    EXPECT_EQ(cam.chooseVictim(), first);
    EXPECT_FALSE(cam.deviceAt(first).has_value());
    cam.set(first, 100);
    cam.set(first, 100);
    EXPECT_EQ(cam.peek(100), std::optional<Sid>(first));
    EXPECT_TRUE(cam.useBit(first));
    EXPECT_EQ(cam.chooseVictim(), first + 1);
}

TEST(Cam, ClockEvictsUnusedFirst)
{
    DeviceId2SidCam cam(3);
    cam.set(0, 100);
    cam.set(1, 101);
    cam.set(2, 102);
    // All use bits set; first sweep clears them all, then row 0 (the
    // hand's second pass start) is the victim. It stays bound until
    // its row is rewritten.
    EXPECT_EQ(cam.chooseVictim(), 0u);
    EXPECT_EQ(cam.deviceAt(0), std::optional<DeviceId>(100));
    EXPECT_EQ(cam.set(0, 103), std::optional<DeviceId>(100));

    // Touch 101 (sets its use bit); next eviction must skip it.
    EXPECT_TRUE(cam.lookup(101).has_value());
    const Sid victim = cam.chooseVictim();
    EXPECT_NE(cam.deviceAt(victim), std::optional<DeviceId>(101));
    cam.set(victim, 104);
    EXPECT_TRUE(cam.peek(101).has_value());
}

/**
 * What the bound row's set use bit does to the clock: a device looked
 * up before every insertion is still evicted once the rows bound after
 * it fill the CAM, because every fresh row holds its bit too and the
 * sweep clears them all before it returns to the device's row. (With
 * rows bound with a clear bit, the device would survive every
 * insertion.)
 */
TEST(Cam, FullSweepEvictsTouchedHotDevice)
{
    DeviceId2SidCam cam(4);
    cam.set(cam.chooseVictim(), 1);
    unsigned insertions = 0;
    for (DeviceId cold = 100; cold < 120 && cam.peek(1); ++cold) {
        EXPECT_TRUE(cam.lookup(1).has_value()); // keep device 1 hot
        cam.set(cam.chooseVictim(), cold);
        ++insertions;
    }
    EXPECT_FALSE(cam.peek(1).has_value());
    EXPECT_EQ(insertions, cam.numRows());
}

TEST(Cam, ResetInvalidatesAll)
{
    // There is no reset register: the monitor resets the CAM row by
    // row, as a CAM-row MMIO write with the valid bit clear does.
    DeviceId2SidCam cam(4);
    cam.set(0, 1);
    cam.set(1, 2);
    for (Sid sid = 0; sid < cam.numRows(); ++sid)
        cam.invalidateSid(sid);
    EXPECT_FALSE(cam.peek(1).has_value());
    EXPECT_FALSE(cam.peek(2).has_value());
    EXPECT_FALSE(cam.deviceAt(0).has_value());
}

TEST(Cam, PaperSizing63Rows)
{
    DeviceId2SidCam cam; // default 63 rows per the paper
    EXPECT_EQ(cam.numRows(), 63u);
    // Fill every row and verify each maps uniquely.
    for (DeviceId d = 0; d < 63; ++d)
        cam.set(cam.chooseVictim(), 1000 + d);
    for (DeviceId d = 0; d < 63; ++d)
        EXPECT_TRUE(cam.peek(1000 + d).has_value());
}

/**
 * The device index answers as a scan of the rows would, through every
 * mutator: random set, invalidateSid, chooseVictim-then-set and lookup
 * calls over device ids that collide in the index (small ids and ids
 * far apart), checked for every id after every call.
 */
TEST(Cam, IndexMatchesRowScan)
{
    Rng rng(24);
    for (unsigned rows : {1u, 3u, 7u, 63u}) {
        DeviceId2SidCam cam(rows);
        std::vector<DeviceId> ids;
        for (DeviceId d = 0; d < 2 * rows + 2; ++d) {
            ids.push_back(d);
            ids.push_back(d << 40 | 7);
        }
        for (unsigned step = 0; step < 4000; ++step) {
            const DeviceId device = ids[rng.below(ids.size())];
            const Sid row = static_cast<Sid>(rng.below(rows));
            switch (rng.below(4)) {
              case 0: cam.set(row, device); break;
              case 1: cam.invalidateSid(row); break;
              case 2: cam.set(cam.chooseVictim(), device); break;
              default: cam.lookup(device); break;
            }
            for (DeviceId id : ids) {
                std::optional<Sid> scanned;
                for (Sid sid = 0; sid < rows; ++sid) {
                    if (cam.deviceAt(sid) == std::optional<DeviceId>(id)) {
                        ASSERT_FALSE(scanned.has_value()) << "two rows";
                        scanned = sid;
                    }
                }
                ASSERT_EQ(cam.peek(id), scanned)
                    << "rows " << rows << ", step " << step << ", id "
                    << id;
            }
        }
    }
}

} // namespace
} // namespace iopmp
} // namespace siopmp
