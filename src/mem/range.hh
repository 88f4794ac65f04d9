/**
 * @file
 * Half-open physical address ranges: MMIO windows, capability
 * regions and extended-table bounds.
 */

#ifndef MEM_RANGE_HH
#define MEM_RANGE_HH

#include "sim/types.hh"

namespace siopmp {
namespace mem {

/** A half-open address range [base, base + size). */
struct Range {
    Addr base = 0;
    Addr size = 0;

    Addr end() const { return base + size; }

    bool
    contains(Addr addr) const
    {
        return addr >= base && addr < end();
    }

    /** True iff [addr, addr+len) lies fully inside this range. */
    bool
    containsBlock(Addr addr, Addr len) const
    {
        return addr >= base && len <= size && addr - base <= size - len;
    }

    bool
    overlaps(const Range &other) const
    {
        return base < other.end() && other.base < end();
    }

    bool operator==(const Range &other) const = default;
};

} // namespace mem
} // namespace siopmp

#endif // MEM_RANGE_HH
