/**
 * @file
 * IOPMP entry: one priority-ordered rule consisting of a memory region
 * and the read/write permission granted within it (§2.2). Entries
 * inherit PMP's heritage, so both arbitrary ranges and NAPOT-encoded
 * power-of-two regions are supported.
 */

#ifndef IOPMP_ENTRY_HH
#define IOPMP_ENTRY_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** Addressing mode of an entry. */
enum class EntryMode : std::uint8_t {
    Off,   //!< entry disabled; never matches
    Range, //!< arbitrary byte-granular [base, base+size)
    Napot, //!< naturally-aligned power-of-two region
};

/**
 * One IOPMP rule. Lower entry index = higher priority; the first
 * matching entry decides the permission (§2.2).
 */
class Entry
{
  public:
    Entry() = default;

    /** Construct an arbitrary-range entry. */
    static Entry range(Addr base, Addr size, Perm perm);

    /** Construct a NAPOT entry; size must be a power of two >= 8 and
     * base must be size-aligned (fatal otherwise). */
    static Entry napot(Addr base, Addr size, Perm perm);

    /** Disabled entry. */
    static Entry off() { return Entry(); }

    /** True iff [addr, addr+len) lies entirely inside this entry's
     * region. Partial overlap does not match (a DMA burst must be
     * wholly covered by one rule). */
    bool
    matches(Addr addr, Addr len) const
    {
        if (mode_ == EntryMode::Off || len == 0)
            return false;
        // Both modes reduce to full containment in [base, base+size).
        return addr >= base_ && len <= size_ && addr - base_ <= size_ - len;
    }

    /** True iff the entry's region overlaps [addr, addr+len) at all. */
    bool
    overlaps(Addr addr, Addr len) const
    {
        if (mode_ == EntryMode::Off || len == 0)
            return false;
        // base_ + size_ and addr + len may both equal 2^64 (a region or
        // burst ending at the top of the address space) and would wrap,
        // so compare by subtraction like matches() does: when the burst
        // starts at or above the base it overlaps iff it starts inside
        // the region; otherwise iff the region's base is inside the
        // burst.
        return addr >= base_ ? addr - base_ < size_ : base_ - addr < len;
    }

    bool enabled() const { return mode_ != EntryMode::Off; }
    EntryMode mode() const { return mode_; }
    Addr base() const { return base_; }
    Addr size() const { return size_; }
    Perm perm() const { return perm_; }

    /** Sticky lock: a locked entry can only be changed by M-mode. */
    bool locked() const { return locked_; }
    void lock() { locked_ = true; }

    bool operator==(const Entry &other) const
    {
        return mode_ == other.mode_ && base_ == other.base_ &&
               size_ == other.size_ && perm_ == other.perm_ &&
               locked_ == other.locked_;
    }

    std::string toString() const;

  private:
    EntryMode mode_ = EntryMode::Off;
    Addr base_ = 0;
    Addr size_ = 0;
    Perm perm_ = Perm::None;
    bool locked_ = false;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_ENTRY_HH
