/**
 * @file
 * Unit tests for the extended IOPMP table (mountable entries).
 */

#include <gtest/gtest.h>

#include <vector>

#include "iopmp/mountable.hh"

namespace siopmp {
namespace iopmp {
namespace {

class ExtendedTableTest : public ::testing::Test
{
  protected:
    ExtendedTableTest()
        : table(&backing, {0x7000'0000, 0x10000}, /*max entries=*/8)
    {
    }

    MountRecord
    record(DeviceId dev, unsigned n_entries)
    {
        MountRecord r;
        r.esid = dev;
        r.md_bitmap = std::uint64_t{1} << 10;
        for (unsigned i = 0; i < n_entries; ++i) {
            r.entries.push_back(Entry::range(
                0x8000'0000 + dev * 0x10000 + i * 0x100, 0x100,
                i % 2 ? Perm::Read : Perm::ReadWrite));
        }
        return r;
    }

    mem::Backing backing;
    ExtendedTable table;
};

TEST_F(ExtendedTableTest, RoundTripThroughSimulatedMemory)
{
    ASSERT_TRUE(table.add(record(512, 4)));
    unsigned loads = 0;
    auto found = table.find(512, &loads);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->esid, 512u);
    EXPECT_EQ(found->md_bitmap, std::uint64_t{1} << 10);
    ASSERT_EQ(found->entries.size(), 4u);
    EXPECT_EQ(found->entries[0].base(), 0x8000'0000u + 512 * 0x10000);
    EXPECT_EQ(found->entries[0].perm(), Perm::ReadWrite);
    EXPECT_EQ(found->entries[1].perm(), Perm::Read);
    // 3 header words + 4 entries x 3 words.
    EXPECT_EQ(loads, 15u);
}

TEST_F(ExtendedTableTest, FindMissReturnsNothing)
{
    unsigned loads = 99;
    EXPECT_FALSE(table.find(7, &loads).has_value());
    EXPECT_EQ(loads, 0u);
}

TEST_F(ExtendedTableTest, ReplaceExistingRecord)
{
    table.add(record(100, 2));
    auto r = record(100, 5);
    r.md_bitmap = 0b11;
    ASSERT_TRUE(table.add(r));
    EXPECT_EQ(table.numRecords(), 1u);
    auto found = table.find(100);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->entries.size(), 5u);
    EXPECT_EQ(found->md_bitmap, 0b11u);
}

TEST_F(ExtendedTableTest, RejectsOversizedRecord)
{
    EXPECT_FALSE(table.add(record(1, 9))); // max is 8
}

TEST_F(ExtendedTableTest, RemoveFreesSlot)
{
    table.add(record(1, 1));
    EXPECT_TRUE(table.contains(1));
    EXPECT_TRUE(table.remove(1));
    EXPECT_FALSE(table.contains(1));
    EXPECT_FALSE(table.remove(1));
    EXPECT_FALSE(table.find(1).has_value());
}

TEST_F(ExtendedTableTest, SupportsManyDevices)
{
    // The design point: the extended table supports far more devices
    // than there are hardware SIDs.
    const unsigned n = 200;
    for (DeviceId d = 1000; d < 1000 + n; ++d)
        ASSERT_TRUE(table.add(record(d, 3)));
    EXPECT_EQ(table.numRecords(), n);
    for (DeviceId d = 1000; d < 1000 + n; ++d) {
        auto found = table.find(d);
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(found->esid, d);
    }
}

TEST_F(ExtendedTableTest, CapacityBounded)
{
    // Region 0x10000 bytes / record (3 + 8*3) * 8 = 216 bytes -> 303.
    unsigned added = 0;
    for (DeviceId d = 0; d < 1000; ++d) {
        if (!table.add(record(d, 1)))
            break;
        ++added;
    }
    EXPECT_EQ(added, 0x10000u / ((3 + 8 * 3) * 8));
    // Removing one slot lets another record in.
    EXPECT_TRUE(table.remove(0));
    EXPECT_TRUE(table.add(record(9999, 1)));
}

TEST_F(ExtendedTableTest, SlotReuseAfterRemove)
{
    table.add(record(1, 2));
    table.add(record(2, 2));
    table.remove(1);
    table.add(record(3, 2));
    EXPECT_TRUE(table.find(2).has_value());
    EXPECT_TRUE(table.find(3).has_value());
    EXPECT_EQ(table.find(3)->esid, 3u);
}

TEST_F(ExtendedTableTest, LoadsAccumulate)
{
    table.add(record(5, 2));
    const auto before = table.totalLoads();
    table.find(5);
    table.find(5);
    EXPECT_EQ(table.totalLoads() - before, 2 * (3 + 2 * 3));
}

TEST_F(ExtendedTableTest, ReplaceAtFullCapacitySucceeds)
{
    // Fill every slot, then replace an existing record: the replace
    // path reuses the record's own slot and must not be rejected by
    // (or consume) the exhausted free list.
    const std::size_t capacity = 0x10000u / ((3 + 8 * 3) * 8);
    for (DeviceId d = 0; d < capacity; ++d)
        ASSERT_TRUE(table.add(record(d, 1)));
    ASSERT_FALSE(table.add(record(9999, 1)));

    ASSERT_TRUE(table.add(record(7, 6)));
    EXPECT_EQ(table.numRecords(), capacity);
    auto found = table.find(7);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->entries.size(), 6u);
    // Still exactly full: the replace leaked no slot either way.
    EXPECT_FALSE(table.add(record(9999, 1)));
    EXPECT_TRUE(table.remove(7));
    EXPECT_TRUE(table.add(record(9999, 1)));
}

TEST_F(ExtendedTableTest, ReplaceChurnKeepsSlotAccountingExact)
{
    // A record rewritten many times (the unmap-while-cold edit path
    // does this once per unmap) must occupy one slot forever.
    for (unsigned round = 0; round < 100; ++round)
        ASSERT_TRUE(table.add(record(42, 1 + round % 8)));
    EXPECT_EQ(table.numRecords(), 1u);
    auto found = table.find(42);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->entries.size(), 1u + 99u % 8u);

    // Every other slot is still available.
    const std::size_t capacity = 0x10000u / ((3 + 8 * 3) * 8);
    for (DeviceId d = 1000; d < 1000 + capacity - 1; ++d)
        ASSERT_TRUE(table.add(record(d, 1))) << d;
    EXPECT_FALSE(table.add(record(9999, 1)));
}

TEST_F(ExtendedTableTest, RegionSizeFloorsToWholeRecords)
{
    // A region that is not a record multiple holds floor(size /
    // recordBytes) records; the partial tail slot must not be used.
    mem::Backing small_backing;
    ExtendedTable small(&small_backing, {0x7000'0000, 216 * 2 + 100}, 8);
    EXPECT_TRUE(small.add(record(1, 8)));
    EXPECT_TRUE(small.add(record(2, 8)));
    EXPECT_FALSE(small.add(record(3, 1)));
    EXPECT_EQ(small.find(2)->entries.size(), 8u);
}

TEST_F(ExtendedTableTest, NapotEntriesSurviveSerialization)
{
    MountRecord r;
    r.esid = 77;
    r.entries.push_back(Entry::napot(0x4000, 0x1000, Perm::Read));
    ASSERT_TRUE(table.add(r));
    auto found = table.find(77);
    ASSERT_TRUE(found.has_value());
    ASSERT_EQ(found->entries.size(), 1u);
    EXPECT_EQ(found->entries[0].mode(), EntryMode::Napot);
    EXPECT_EQ(found->entries[0].size(), 0x1000u);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
