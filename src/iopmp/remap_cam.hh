/**
 * @file
 * DeviceID2SID content-addressable memory (§4.3, Fig 5). The SID is
 * the CAM address and the device ID is the stored content, so a DMA
 * request's device ID resolves to a hot SID in a single cycle. Each
 * row carries a use bit driving a clock-algorithm (second-chance) LRU:
 * chooseVictim() picks the row an implicit promotion takes, and the
 * row register's write (set) is the one way to bind a device, for
 * implicit and explicit switching alike. A bound row starts with its
 * use bit set.
 *
 * The content match is modelled by a device -> row index, an
 * open-addressed hash table of at least twice as many slots as rows,
 * allocated with the rows: lookup() and peek() probe it instead of
 * scanning the rows. Every mutator keeps it in step with the rows.
 */

#ifndef IOPMP_REMAP_CAM_HH
#define IOPMP_REMAP_CAM_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

class DeviceId2SidCam
{
  public:
    /** @param num_sids number of hot SIDs (rows); 63 in the paper. */
    explicit DeviceId2SidCam(unsigned num_sids = 63);

    unsigned numRows() const
    {
        return static_cast<unsigned>(rows_.size());
    }

    /**
     * Single-cycle content lookup. On a hit the row's use bit is set
     * (LRU touch) and the SID (row address) is returned.
     */
    std::optional<Sid> lookup(DeviceId device);

    /** Lookup without touching the use bit (diagnostics/tests). */
    std::optional<Sid> peek(DeviceId device) const;

    /**
     * The row register's write, and the only bind: bind @p device to
     * row @p sid with its use bit set, dropping any other row that
     * held @p device. Returns the device previously mapped there, if
     * any.
     */
    std::optional<DeviceId> set(Sid sid, DeviceId device);

    /** Remove the mapping in row @p sid if valid. */
    bool invalidateSid(Sid sid);

    /**
     * The row the next implicit promotion takes; binds nothing. The
     * first free row if there is one, else the clock algorithm's
     * victim: the hand sweeps the rows, clearing each use bit it
     * passes (second chance), and stops at the first row whose bit is
     * clear, which stays bound until the caller rewrites it (set).
     */
    Sid chooseVictim();

    /** Device currently bound to @p sid, if any. */
    std::optional<DeviceId> deviceAt(Sid sid) const;

    /** Use bit of row @p sid (tests). */
    bool useBit(Sid sid) const;

    /**
     * Install @p hook, called once after every call that can change
     * a device's SID (set, invalidateSid) and after a chooseVictim()
     * whose sweep cleared a use bit — not after lookup(), which only
     * sets use bits. The owning SIopmp wakes checker nodes parked on a
     * SID miss or a block bit through it: a mapping change decides
     * their stall, and a cleared use bit is one their next poll would
     * set again.
     */
    void setChangeHook(std::function<void()> hook)
    {
        on_change_ = std::move(hook);
    }

  private:
    void changed()
    {
        if (on_change_)
            on_change_();
    }

    /** Bind @p device to row @p sid: fill the row, its use bit set,
     * and index it. */
    void bind(Sid sid, DeviceId device);

    /** Clear row @p sid (valid) and drop its device from the index. */
    void unbind(Sid sid);

    /** Index slot holding @p device, or the empty slot ending its probe
     * sequence. */
    std::size_t slotOf(DeviceId device) const;

    std::size_t
    home(DeviceId device) const
    {
        // Fibonacci hashing: the top bits of the golden-ratio product.
        return static_cast<std::size_t>(
            (device * 0x9e3779b97f4a7c15ull) >> index_shift_);
    }

    struct Row {
        bool valid = false;
        bool use = false; //!< clock-algorithm reference bit
        DeviceId device = 0;
    };

    //! One index slot: a valid row's device and its row, or empty.
    struct Slot {
        DeviceId device = 0;
        Sid row = kNoSid; //!< kNoSid: empty
    };

    std::vector<Row> rows_;
    //! Device -> row: linear probing over a power-of-two table with
    //! at most half its slots used, so every probe ends at an empty
    //! slot; deletion shifts back the slots its hole would orphan.
    std::vector<Slot> index_;
    unsigned index_shift_ = 0; //!< 64 - log2(index_.size())
    unsigned hand_ = 0; //!< clock hand for the LRU sweep
    std::function<void()> on_change_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_REMAP_CAM_HH
