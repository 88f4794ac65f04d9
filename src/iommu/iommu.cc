/**
 * @file
 * Iommu implementation.
 */

#include "iommu/iommu.hh"

namespace siopmp {
namespace iommu {

namespace {

constexpr Addr kIovaBase = 0x0010'0000;
constexpr Addr kIovaSize = Addr{1} << 36;
constexpr Cycle kMapSetup = 70; //!< per dma_map bookkeeping
//! One page-table memory access; a dma_map installs each page's PTE at
//! a quarter of it.
constexpr Cycle kPageTableAccess = 90;
//! Kernel CPU work per strictly unmapped page: invalidation
//! descriptor setup, per-page IOTLB flush bookkeeping, completion
//! handling.
constexpr Cycle kStrictUnmapCpu = 220;
//! Per deferred-unmapped page: queue entry + lazy bookkeeping.
constexpr Cycle kDeferredUnmapCpu = 30;

} // namespace

Iommu::Iommu(UnmapMode mode)
    : mode_(mode), iova_(kIovaBase, kIovaSize), stats_("iommu")
{
}

MapResult
Iommu::dmaMap(unsigned pages, unsigned cpu, unsigned contending_cores)
{
    MapResult result;
    Cycle iova_cost = 0;
    const Addr iova = iova_.alloc(pages, cpu, contending_cores, &iova_cost);
    if (iova == kNoAddr)
        return result;
    result.iova = iova;
    result.cost = iova_cost + kMapSetup + pages * kPageTableAccess / 4;
    ++stats_.scalar("maps");
    stats_.average("map_cost").sample(static_cast<double>(result.cost));
    return result;
}

Cycle
Iommu::dmaUnmap(Addr iova, unsigned cpu, Cycle now, Cycle *wait_out)
{
    const unsigned pages = iova_.free(iova, cpu);
    Cycle cost = 0;
    Cycle wait = 0;
    for (unsigned p = 0; p < pages; ++p) {
        if (mode_ == UnmapMode::Strict) {
            // Post the page's invalidation; the sync below waits for
            // its retirement before the IOVA may be reused.
            cost += kStrictUnmapCpu;
            cost += cmdq_.post(now + cost);
        } else {
            // Deferred: the page stays reachable through the IOTLB
            // until the batched flush.
            cost += kDeferredUnmapCpu;
            ++stale_mappings_;
        }
    }

    if (mode_ == UnmapMode::Strict) {
        wait = cmdq_.sync(now + cost);
        cost += wait;
    } else if (stale_mappings_ >= kDeferredBatch) {
        // Batched global invalidation: one command for the whole batch.
        cost += cmdq_.post(now + cost);
        wait = cmdq_.sync(now + cost);
        cost += wait;
        stale_mappings_ = 0;
        ++stats_.scalar("deferred_flushes");
    }

    ++stats_.scalar("unmaps");
    stats_.average("unmap_cost").sample(static_cast<double>(cost));
    if (wait_out)
        *wait_out = wait;
    return cost;
}

} // namespace iommu
} // namespace siopmp
