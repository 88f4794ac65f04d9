/**
 * @file
 * Periphery (control) bus for MMIO configuration registers. The paper
 * stresses that sIOPMP is configured through synchronous MMIO writes
 * with a small, deterministic per-access cost — in contrast to the
 * IOMMU's asynchronous command queue. This model charges a fixed cycle
 * cost per register access and dispatches to registered devices.
 */

#ifndef MEM_MMIO_HH
#define MEM_MMIO_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/range.hh"
#include "sim/types.hh"

namespace siopmp {
namespace mem {

/** Result of an MMIO access: value (for reads) and cycle cost. */
struct MmioResult {
    bool ok = false;
    std::uint64_t value = 0;
    Cycle cost = 0;
};

/** A device-side register window. */
class MmioDevice
{
  public:
    virtual ~MmioDevice() = default;

    /** Read the 64-bit register at byte offset @p offset. */
    virtual std::uint64_t mmioRead(Addr offset) = 0;

    /** Write the 64-bit register at byte offset @p offset. */
    virtual void mmioWrite(Addr offset, std::uint64_t value) = 0;
};

/**
 * Control-bus dispatcher. Accumulates total cycles spent on MMIO so
 * callers (the secure monitor) can account configuration cost
 * deterministically.
 */
class MmioBus
{
  public:
    /** Cycles charged per register read/write. */
    static constexpr Cycle kAccessCost = 2;

    /** Map @p device at @p window. Returns false on overlap. */
    bool map(const std::string &name, Range window, MmioDevice *device);

    MmioResult read(Addr addr);
    MmioResult write(Addr addr, std::uint64_t value);

    Cycle totalCycles() const { return total_cycles_; }

  private:
    struct Mapping {
        std::string name;
        Range window;
        MmioDevice *device;
    };

    const Mapping *find(Addr addr) const;

    Cycle total_cycles_ = 0;
    std::vector<Mapping> mappings_;
};

} // namespace mem
} // namespace siopmp

#endif // MEM_MMIO_HH
