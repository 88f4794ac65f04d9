/**
 * @file
 * Unit tests for the IOVA allocator and its contention model.
 */

#include <gtest/gtest.h>

#include "iommu/iova.hh"

namespace siopmp {
namespace iommu {
namespace {

TEST(Iova, AllocatesDistinctRanges)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    Addr b = alloc.alloc(1, 0, 1);
    EXPECT_NE(a, kNoAddr);
    EXPECT_NE(b, kNoAddr);
    EXPECT_NE(a, b);
    EXPECT_EQ(a % kPageSize, 0u);
}

TEST(Iova, FreeAndMagazineReuse)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, /*cpu=*/2, 1);
    EXPECT_EQ(alloc.free(a, 2), 1u);
    // Same CPU reuses the magazine entry: cheap path.
    Cycle cost = 0;
    Addr b = alloc.alloc(1, 2, 1, &cost);
    EXPECT_EQ(b, a);
    EXPECT_EQ(cost, IovaAllocator::kCachedAlloc);
    EXPECT_EQ(alloc.cacheHits(), 1u);
}

TEST(Iova, TreeAllocCostsMore)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Cycle cost = 0;
    alloc.alloc(1, 0, 1, &cost);
    EXPECT_EQ(cost, IovaAllocator::kTreeAlloc); // no magazine yet
}

TEST(Iova, ContentionGrowsWithCores)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Cycle c1 = 0, c4 = 0;
    alloc.alloc(1, 0, 1, &c1);
    alloc.alloc(1, 1, 4, &c4);
    EXPECT_EQ(c4 - c1, 3 * IovaAllocator::kContentionPerCore);
}

TEST(Iova, MultiPageAllocations)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(8, 0, 1);
    Addr b = alloc.alloc(8, 0, 1);
    EXPECT_NE(a, kNoAddr);
    // Ranges must not overlap.
    EXPECT_GE(b > a ? b - a : a - b, 8 * kPageSize);
    EXPECT_EQ(alloc.free(a, 0), 8u);
    // Multi-page frees go to the tree, not the magazine; they are
    // found again by first fit.
    Addr c = alloc.alloc(8, 0, 1);
    EXPECT_EQ(c, a);
}

TEST(Iova, DoubleFreeRejected)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    EXPECT_EQ(alloc.free(a, 0), 1u);
    EXPECT_EQ(alloc.free(a, 0), 0u);
    EXPECT_EQ(alloc.free(0xdead'0000, 0), 0u);
}

TEST(Iova, ExhaustionReturnsNoAddr)
{
    IovaAllocator alloc(0x10'0000, 4 * kPageSize);
    for (int i = 0; i < 4; ++i)
        EXPECT_NE(alloc.alloc(1, 0, 1), kNoAddr);
    EXPECT_EQ(alloc.alloc(1, 0, 1), kNoAddr);
}

TEST(Iova, PerCpuMagazinesIndependent)
{
    IovaAllocator alloc(0x10'0000, 1 << 24);
    Addr a = alloc.alloc(1, 0, 1);
    alloc.free(a, 0);
    // CPU 1 cannot see CPU 0's magazine: gets fresh space.
    Cycle cost = 0;
    Addr b = alloc.alloc(1, 1, 1, &cost);
    EXPECT_NE(b, a);
    EXPECT_EQ(cost, IovaAllocator::kTreeAlloc);
}

} // namespace
} // namespace iommu
} // namespace siopmp
