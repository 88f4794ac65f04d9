/**
 * @file
 * Unit tests for the asynchronous invalidation command queue.
 */

#include <gtest/gtest.h>

#include "iommu/cmd_queue.hh"

namespace siopmp {
namespace iommu {
namespace {

TEST(CmdQueue, PostCostIsFixed)
{
    CommandQueue q;
    EXPECT_EQ(q.post(100), CommandQueue::kPost);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.posted(), 1u);
}

TEST(CmdQueue, SyncWaitsForServiceLatency)
{
    CommandQueue q;
    q.post(1000);
    // Sync right after posting: wait out the full service latency.
    const Cycle waited = q.sync(1000);
    EXPECT_GE(waited, CommandQueue::kServiceLatency);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.retired(), 1u);
}

TEST(CmdQueue, SyncCheapWhenAlreadyRetired)
{
    CommandQueue q;
    q.post(0);
    // Long after retirement, sync is a single poll.
    EXPECT_EQ(q.sync(100'000), CommandQueue::kSyncPoll);
}

TEST(CmdQueue, BurstsQueueBehindServiceInterval)
{
    CommandQueue q;
    for (int i = 0; i < 10; ++i)
        q.post(0);
    // The last command retires no earlier than 9 intervals after the
    // first's retirement.
    EXPECT_GE(q.lastRetireAt(), CommandQueue::kServiceLatency +
                                    9 * CommandQueue::kServiceInterval);
    const Cycle waited = q.sync(0);
    EXPECT_GE(waited,
              q.lastRetireAt() > 0 ? CommandQueue::kServiceLatency : 0);
    EXPECT_EQ(q.retired(), 10u);
}

TEST(CmdQueue, DrainRetiresDueCommands)
{
    CommandQueue q;
    q.post(0);
    q.drain(CommandQueue::kServiceLatency - 1);
    EXPECT_EQ(q.pending(), 1u);
    q.drain(CommandQueue::kServiceLatency + 1);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(CmdQueue, AsyncLatencyDwarfsSiopmpEntryWrite)
{
    // The paper's headline contrast: an IOPMP entry modification takes
    // 14 cycles, an IOTLB invalidation takes hundreds.
    CommandQueue q;
    q.post(0);
    EXPECT_GT(q.sync(0), 14u * 10);
}

} // namespace
} // namespace iommu
} // namespace siopmp
