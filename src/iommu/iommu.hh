/**
 * @file
 * Baseline IOMMU cost model (Table 1's IOMMU-strict / IOMMU-defer
 * rows, Fig 15, Fig 16). Composes the IOVA allocator and the
 * asynchronous invalidation command queue into the dma_map/dma_unmap
 * interface a kernel network stack uses per packet, and charges each
 * call its CPU cycles. No IOTLB or page-table contents are modelled:
 * the IOVA allocator's live map is the record of what is mapped.
 *
 * Unmap modes:
 *  - Strict: every unmapped page posts a page invalidation and the
 *    unmap synchronously waits for it to retire before the IOVA may be
 *    reused. Safe but expensive; this is the 20-38% throughput loss of
 *    Fig 15.
 *  - Deferred: unmaps batch; the IOVA is recycled immediately and one
 *    global flush follows every kDeferredBatch unmapped pages. Fast
 *    but leaves an attack window in which a device can still reach
 *    the unmapped pages through stale IOTLB entries — which the model
 *    counts (staleMappings()) and exposes via attackWindowOpen().
 */

#ifndef IOMMU_IOMMU_HH
#define IOMMU_IOMMU_HH

#include <cstdint>

#include "iommu/cmd_queue.hh"
#include "iommu/iova.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iommu {

enum class UnmapMode { Strict, Deferred };

/** Result of a dma_map call. */
struct MapResult {
    Addr iova = kNoAddr;
    Cycle cost = 0;
};

class Iommu
{
  public:
    //! Unmapped pages per deferred-mode global flush.
    static constexpr unsigned kDeferredBatch = 256;

    explicit Iommu(UnmapMode mode);

    /**
     * Kernel-side: map @p pages contiguous pages for device DMA.
     * @p cpu / @p contending_cores model multi-core IOVA contention.
     */
    MapResult dmaMap(unsigned pages, unsigned cpu,
                     unsigned contending_cores);

    /**
     * Kernel-side: unmap the mapping at @p iova, charging each of its
     * pages. Returns CPU cycle cost, which in strict mode includes the
     * synchronous invalidation wait. @p wait_out, when non-null,
     * receives the portion spent stalled on the command queue (other
     * cores can overlap useful work with it). An IOVA that is not
     * mapped costs no page, only strict mode's sync poll.
     */
    Cycle dmaUnmap(Addr iova, unsigned cpu, Cycle now,
                   Cycle *wait_out = nullptr);

    /** True while deferred mode has unflushed stale mappings. */
    bool attackWindowOpen() const { return stale_mappings_ > 0; }
    std::uint64_t staleMappings() const { return stale_mappings_; }

    stats::Group &statsGroup() { return stats_; }

  private:
    UnmapMode mode_;
    IovaAllocator iova_;
    CommandQueue cmdq_;
    std::uint64_t stale_mappings_ = 0;
    stats::Group stats_;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_IOMMU_HH
