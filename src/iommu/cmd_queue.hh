/**
 * @file
 * Asynchronous invalidation command queue. Real IOMMUs invalidate the
 * IOTLB by posting commands (invalidate page / invalidate all / sync)
 * to a ring and waiting for a completion wait-descriptor. The wait is
 * what makes strict unmapping so expensive: the driver cannot reuse
 * the IOVA until the sync retires, and retirement latency is hundreds
 * of cycles and grows under load. sIOPMP's contrast (§6.2) is its
 * synchronous, deterministic MMIO entry rewrite.
 */

#ifndef IOMMU_CMD_QUEUE_HH
#define IOMMU_CMD_QUEUE_HH

#include <cstdint>
#include <deque>

#include "sim/types.hh"

namespace siopmp {
namespace iommu {

class CommandQueue
{
  public:
    static constexpr Cycle kPost = 40; //!< write descriptor + doorbell
    //! Hardware dequeue-to-retire latency of one command.
    static constexpr Cycle kServiceLatency = 450;
    static constexpr Cycle kServiceInterval = 120; //!< min retire gap
    static constexpr Cycle kSyncPoll = 60; //!< one wait-descriptor poll

    /**
     * Post an invalidation command at time @p now. A page and a global
     * invalidation are timed alike.
     * @return the cycle cost of posting (CPU side).
     */
    Cycle post(Cycle now);

    /**
     * Block until every previously posted command has retired
     * (a sync/wait descriptor). @return CPU cycles spent waiting.
     */
    Cycle sync(Cycle now);

    /** Retire commands whose service time has passed. */
    void drain(Cycle now);

    std::size_t pending() const { return retire_at_.size(); }
    std::uint64_t posted() const { return posted_; }
    std::uint64_t retired() const { return retired_; }

    /** Cycle at which the most recently posted command retires. */
    Cycle lastRetireAt() const { return last_retire_at_; }

  private:
    //! Retire cycle of each pending command, in post order.
    std::deque<Cycle> retire_at_;
    Cycle last_retire_at_ = 0;
    std::uint64_t posted_ = 0;
    std::uint64_t retired_ = 0;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_CMD_QUEUE_HH
