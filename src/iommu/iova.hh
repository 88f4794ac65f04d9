/**
 * @file
 * IOVA (I/O virtual address) range allocator. Models the Linux
 * iova_domain: a lock-protected range tree plus per-CPU caches. The
 * scalability cost the paper cites — IOVA allocation contention with
 * multiple cores and devices — is modelled by a per-allocation cycle
 * cost that grows with the number of contending cores when the
 * per-CPU cache misses. Its live map is the IOMMU model's one record
 * of what is mapped.
 */

#ifndef IOMMU_IOVA_HH
#define IOMMU_IOVA_HH

#include <cstdint>
#include <map>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace iommu {

inline constexpr Addr kPageShift = 12;
inline constexpr Addr kPageSize = Addr{1} << kPageShift;

class IovaAllocator
{
  public:
    //! CPUs with a magazine of their own: valid @p cpu values are below.
    static constexpr unsigned kMaxCpus = 64;
    static constexpr Cycle kCachedAlloc = 30;  //!< per-CPU magazine hit
    static constexpr Cycle kTreeAlloc = 180;   //!< global tree under the lock
    //! Extra serialization per contending core on a tree allocation.
    static constexpr Cycle kContentionPerCore = 90;

    /**
     * @param base  first allocatable address (page aligned)
     * @param size  size of the IOVA space
     */
    IovaAllocator(Addr base, Addr size);

    /**
     * Allocate @p pages contiguous pages for @p cpu.
     * @param cost_out receives the modeled cycle cost
     * @return base IOVA, or kNoAddr on exhaustion
     */
    Addr alloc(unsigned pages, unsigned cpu, unsigned contending_cores,
               Cycle *cost_out = nullptr);

    /**
     * Free a previous allocation.
     * @return its page count, or 0 if @p iova is not a live allocation
     */
    unsigned free(Addr iova, unsigned cpu);

    std::uint64_t cacheHits() const { return cache_hits_; }

  private:
    static constexpr unsigned kMagazineSize = 32;

    struct Magazine {
        std::vector<Addr> free_iovas; //!< single-page entries only
    };

    Addr limit_;
    Addr bump_; //!< simple bump pointer over virgin space
    std::map<Addr, unsigned> live_; //!< iova -> pages
    std::map<Addr, unsigned> tree_free_; //!< recycled ranges
    std::vector<Magazine> magazines_;
    std::uint64_t cache_hits_ = 0;
};

} // namespace iommu
} // namespace siopmp

#endif // IOMMU_IOVA_HH
