/**
 * @file
 * Mountable IOPMP: the extended IOPMP table (§4.2, Fig 4). The table
 * lives in a PMP-protected region of ordinary memory, so its size is
 * bounded only by physical memory — this is what lifts the limit on
 * the number of devices. Each record holds a cold device's extended
 * SID (eSID), the bitmap of memory domains it is associated with, and
 * its private IOPMP entries.
 *
 * On a DMA request whose device ID misses both the CAM and the eSID
 * register, the checker raises a SID-missing interrupt; the secure
 * monitor then performs "cold device switching": it loads the record
 * from this table into the eSID register, the cold SRC2MD row and the
 * cold memory domain's (MD62) hardware entry window.
 *
 * The table is genuinely serialized into the simulated memory: every
 * find() performs 64-bit loads against the backing store and reports
 * how many, so the mount-cost model is grounded in actual accesses.
 */

#ifndef IOPMP_MOUNTABLE_HH
#define IOPMP_MOUNTABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "iopmp/entry.hh"
#include "mem/memmap.hh"
#include "mem/memory.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** One extended-table record. */
struct MountRecord {
    DeviceId esid = 0;            //!< extended source ID (device ID)
    std::uint64_t md_bitmap = 0;  //!< associated memory domains [61:0]
    std::vector<Entry> entries;   //!< the device's IOPMP entries
};

class ExtendedTable
{
  public:
    /**
     * @param backing  simulated physical memory holding the table
     * @param region   protected region reserved for the table
     * @param max_entries_per_record hardware window size for MD62
     */
    ExtendedTable(mem::Backing *backing, mem::Range region,
                  unsigned max_entries_per_record = 16);

    /**
     * Add or replace the record for @p record.esid. Fails if the
     * record exceeds the per-record entry budget or the region is
     * full.
     */
    bool add(const MountRecord &record);

    /** Remove the record for @p device; false if absent. */
    bool remove(DeviceId device);

    /**
     * Load the record for @p device from memory. @p loads, when
     * non-null, receives the number of 64-bit memory reads performed
     * (drives the mount cost model).
     */
    std::optional<MountRecord> find(DeviceId device,
                                    unsigned *loads = nullptr) const;

    bool contains(DeviceId device) const;

    std::size_t numRecords() const { return index_.size(); }
    unsigned maxEntriesPerRecord() const { return max_entries_; }
    const mem::Range &region() const { return region_; }

    /** Total 64-bit loads served since construction. */
    std::uint64_t totalLoads() const { return total_loads_; }

  private:
    /** Serialized record layout (all fields 64-bit):
     *  [0] esid  [1] md_bitmap  [2] num_entries
     *  then per entry: base, size, cfg (perm | mode<<2). */
    static constexpr Addr kHeaderWords = 3;
    static constexpr Addr kWordsPerEntry = 3;

    Addr recordBytes() const
    {
        return (kHeaderWords + kWordsPerEntry * max_entries_) * 8;
    }

    Addr slotAddr(std::size_t slot) const
    {
        return region_.base + slot * recordBytes();
    }

    std::size_t capacitySlots() const
    {
        return region_.size / recordBytes();
    }

    void serialize(std::size_t slot, const MountRecord &record);

    mem::Backing *backing_;
    mem::Range region_;
    unsigned max_entries_;
    std::unordered_map<DeviceId, std::size_t> index_; //!< device -> slot
    std::vector<bool> slot_used_;
    //! Bumped from const find().
    mutable std::uint64_t total_loads_ = 0;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_MOUNTABLE_HH
