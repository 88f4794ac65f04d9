/**
 * @file
 * IovaAllocator implementation.
 */

#include "iommu/iova.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iommu {

IovaAllocator::IovaAllocator(Addr base, Addr size)
    : limit_(base + size),
      bump_(base),
      magazines_(kMaxCpus)
{
    SIOPMP_ASSERT((base & (kPageSize - 1)) == 0, "unaligned IOVA base");
}

Addr
IovaAllocator::alloc(unsigned pages, unsigned cpu, unsigned contending_cores,
                     Cycle *cost_out)
{
    SIOPMP_ASSERT(pages >= 1 && cpu < kMaxCpus, "bad alloc request");
    Cycle cost = 0;
    Addr iova = kNoAddr;

    // Fast path: single-page allocations come from the per-CPU
    // magazine without touching the global lock.
    if (pages == 1 && !magazines_[cpu].free_iovas.empty()) {
        iova = magazines_[cpu].free_iovas.back();
        magazines_[cpu].free_iovas.pop_back();
        cost = kCachedAlloc;
        ++cache_hits_;
    } else {
        // Global tree under the domain lock: serialized across cores.
        cost = kTreeAlloc;
        if (contending_cores > 1)
            cost += (contending_cores - 1) * kContentionPerCore;

        // First fit over recycled ranges, lowest IOVA first.
        for (auto it = tree_free_.begin(); it != tree_free_.end(); ++it) {
            if (it->second >= pages) {
                iova = it->first;
                const unsigned remaining = it->second - pages;
                tree_free_.erase(it);
                if (remaining > 0) {
                    tree_free_.emplace(
                        iova + static_cast<Addr>(pages) * kPageSize,
                        remaining);
                }
                break;
            }
        }
        if (iova == kNoAddr) {
            // Virgin space.
            const Addr bytes = static_cast<Addr>(pages) * kPageSize;
            if (bump_ + bytes > limit_) {
                if (cost_out)
                    *cost_out = cost;
                return kNoAddr;
            }
            iova = bump_;
            bump_ += bytes;
        }
    }

    live_.emplace(iova, pages);
    if (cost_out)
        *cost_out = cost;
    return iova;
}

unsigned
IovaAllocator::free(Addr iova, unsigned cpu)
{
    auto it = live_.find(iova);
    if (it == live_.end())
        return 0;
    const unsigned pages = it->second;
    live_.erase(it);

    if (pages == 1 &&
        magazines_[cpu].free_iovas.size() < kMagazineSize) {
        magazines_[cpu].free_iovas.push_back(iova);
    } else {
        tree_free_.emplace(iova, pages);
    }
    return pages;
}

} // namespace iommu
} // namespace siopmp
