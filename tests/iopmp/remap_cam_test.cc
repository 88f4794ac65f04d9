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

TEST(Cam, InsertStartsWithUseBitClearLookupSetsIt)
{
    // New rows start cold (use=0): a device must be looked up again to
    // prove it is hot, otherwise one-off devices would flush the CAM.
    DeviceId2SidCam cam(2);
    cam.insertLru(10, nullptr);
    EXPECT_FALSE(cam.useBit(0));
    EXPECT_TRUE(cam.lookup(10).has_value());
    EXPECT_TRUE(cam.useBit(0));
}

TEST(Cam, InsertPrefersFreeRows)
{
    DeviceId2SidCam cam(3);
    std::optional<DeviceId> evicted;
    EXPECT_EQ(cam.insertLru(100, &evicted), 0u);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(cam.insertLru(101, &evicted), 1u);
    EXPECT_EQ(cam.insertLru(102, &evicted), 2u);
    EXPECT_FALSE(evicted.has_value());
}

TEST(Cam, InsertExistingIsIdempotent)
{
    DeviceId2SidCam cam(3);
    Sid first = cam.insertLru(100, nullptr);
    Sid second = cam.insertLru(100, nullptr);
    EXPECT_EQ(first, second);
}

TEST(Cam, ClockEvictsUnusedFirst)
{
    DeviceId2SidCam cam(3);
    cam.insertLru(100, nullptr);
    cam.insertLru(101, nullptr);
    cam.insertLru(102, nullptr);
    // All use bits set; first sweep clears them all, then row 0 (the
    // hand's second pass start) is the victim.
    std::optional<DeviceId> evicted;
    cam.insertLru(103, &evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 100u);

    // Touch 101 (sets its use bit); next eviction must skip it.
    EXPECT_TRUE(cam.lookup(101).has_value());
    cam.insertLru(104, &evicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_NE(*evicted, 101u);
    EXPECT_TRUE(cam.peek(101).has_value());
}

TEST(Cam, HotDeviceSurvivesManyInsertions)
{
    DeviceId2SidCam cam(4);
    cam.insertLru(1, nullptr);
    for (DeviceId cold = 100; cold < 120; ++cold) {
        EXPECT_TRUE(cam.lookup(1).has_value()); // keep device 1 hot
        cam.insertLru(cold, nullptr);
    }
    EXPECT_TRUE(cam.peek(1).has_value());
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
        cam.insertLru(1000 + d, nullptr);
    for (DeviceId d = 0; d < 63; ++d)
        EXPECT_TRUE(cam.peek(1000 + d).has_value());
}

/**
 * The device index answers as a scan of the rows would, through every
 * mutator: random set, invalidateSid, insertLru and lookup calls over
 * device ids that collide in the index (small ids and ids far apart),
 * checked for every id after every call.
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
              case 2: cam.insertLru(device, nullptr); break;
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
