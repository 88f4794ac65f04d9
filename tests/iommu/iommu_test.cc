/**
 * @file
 * Tests for the IOMMU cost model: what dma_map and dma_unmap charge in
 * strict and deferred mode, and the deferred attack window the paper's
 * Table 1 calls out.
 */

#include <gtest/gtest.h>

#include <vector>

#include "iommu/iommu.hh"

namespace siopmp {
namespace iommu {
namespace {

TEST(Iommu, StrictUnmapExpensive)
{
    Iommu mmu(UnmapMode::Strict);
    auto map = mmu.dmaMap(1, 0, 1);
    ASSERT_NE(map.iova, kNoAddr);
    EXPECT_GT(map.cost, 0u);
    Cycle wait = 0;
    const Cycle cost = mmu.dmaUnmap(map.iova, 0, 0, &wait);
    // Strict: full synchronous invalidation wait.
    EXPECT_GT(cost, 400u);
    EXPECT_GT(wait, 0u);
    EXPECT_FALSE(mmu.attackWindowOpen());
}

TEST(Iommu, UnknownOrRepeatedUnmapCostsOnlySyncPoll)
{
    Iommu mmu(UnmapMode::Strict);
    Cycle wait = 0;
    // Nothing is mapped there: no page is charged, no invalidation is
    // posted, and the sync finds an empty queue at its first poll.
    EXPECT_EQ(mmu.dmaUnmap(0x7777'0000, 0, 0, &wait),
              CommandQueue::kSyncPoll);
    EXPECT_EQ(wait, CommandQueue::kSyncPoll);

    auto map = mmu.dmaMap(1, 0, 1);
    EXPECT_GT(mmu.dmaUnmap(map.iova, 0, 0), CommandQueue::kSyncPoll);
    EXPECT_EQ(mmu.dmaUnmap(map.iova, 0, 0), CommandQueue::kSyncPoll);

    // Deferred mode does not sync on an unmap: nothing at all.
    Iommu deferred(UnmapMode::Deferred);
    EXPECT_EQ(deferred.dmaUnmap(0x7777'0000, 0, 0), 0u);
    EXPECT_FALSE(deferred.attackWindowOpen());
}

TEST(Iommu, StrictUnmapChargesEveryPage)
{
    Iommu one(UnmapMode::Strict);
    Iommu four(UnmapMode::Strict);
    Cycle wait1 = 0;
    Cycle wait4 = 0;
    const Cycle cost1 = one.dmaUnmap(one.dmaMap(1, 0, 1).iova, 0, 0, &wait1);
    const Cycle cost4 =
        four.dmaUnmap(four.dmaMap(4, 0, 1).iova, 0, 0, &wait4);
    // Each page posts its own invalidation; the one sync then waits for
    // the last of them.
    EXPECT_EQ(cost4 - wait4, 4 * (cost1 - wait1));
    EXPECT_GT(wait4, 0u);
}

TEST(Iommu, DeferredUnmapCheapButWindowOpen)
{
    Iommu mmu(UnmapMode::Deferred);
    auto map = mmu.dmaMap(1, 0, 1);
    Cycle wait = 1;
    const Cycle cost = mmu.dmaUnmap(map.iova, 0, 0, &wait);
    EXPECT_LT(cost, 100u);
    EXPECT_EQ(wait, 0u);
    // THE ATTACK WINDOW: the page is unmapped but its invalidation has
    // not been posted, so a device can still reach it.
    EXPECT_TRUE(mmu.attackWindowOpen());
    EXPECT_EQ(mmu.staleMappings(), 1u);
}

TEST(Iommu, DeferredCountsEveryStalePage)
{
    Iommu mmu(UnmapMode::Deferred);
    mmu.dmaUnmap(mmu.dmaMap(4, 0, 1).iova, 0, 0);
    mmu.dmaUnmap(mmu.dmaMap(1, 0, 1).iova, 0, 0);
    EXPECT_EQ(mmu.staleMappings(), 5u);
}

TEST(Iommu, DeferredBatchFlushClosesWindow)
{
    Iommu mmu(UnmapMode::Deferred);
    std::vector<Addr> iovas;
    for (unsigned i = 0; i < Iommu::kDeferredBatch; ++i)
        iovas.push_back(mmu.dmaMap(1, 0, 1).iova);
    Cycle wait = 0;
    for (unsigned i = 0; i + 1 < iovas.size(); ++i) {
        mmu.dmaUnmap(iovas[i], 0, 0, &wait);
        EXPECT_EQ(wait, 0u) << i;
    }
    EXPECT_TRUE(mmu.attackWindowOpen());
    EXPECT_EQ(mmu.staleMappings(), Iommu::kDeferredBatch - 1);
    // The batch-th unmap triggers the global flush and waits for it.
    mmu.dmaUnmap(iovas.back(), 0, 0, &wait);
    EXPECT_GT(wait, 0u);
    EXPECT_FALSE(mmu.attackWindowOpen());
    EXPECT_EQ(mmu.statsGroup().scalar("deferred_flushes").value(), 1.0);
}

TEST(Iommu, StrictCostExceedsDeferred)
{
    Iommu strict(UnmapMode::Strict);
    Iommu deferred(UnmapMode::Deferred);
    auto ms = strict.dmaMap(1, 0, 1);
    auto md = deferred.dmaMap(1, 0, 1);
    EXPECT_GT(strict.dmaUnmap(ms.iova, 0, 0),
              5 * deferred.dmaUnmap(md.iova, 0, 0));
}

TEST(Iommu, IovaReuseOnlyAfterStrictUnmap)
{
    Iommu mmu(UnmapMode::Strict);
    const MapResult first = mmu.dmaMap(1, 0, 1);
    // A live IOVA is never handed out again.
    EXPECT_NE(mmu.dmaMap(1, 0, 1).iova, first.iova);
    mmu.dmaUnmap(first.iova, 0, 0);
    const MapResult again = mmu.dmaMap(1, 0, 1);
    EXPECT_EQ(again.iova, first.iova); // recycled through the magazine
    EXPECT_EQ(first.cost - again.cost,
              IovaAllocator::kTreeAlloc - IovaAllocator::kCachedAlloc);
}

} // namespace
} // namespace iommu
} // namespace siopmp
