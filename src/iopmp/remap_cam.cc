/**
 * @file
 * DeviceId2SidCam implementation.
 */

#include "iopmp/remap_cam.hh"

#include <bit>

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

DeviceId2SidCam::DeviceId2SidCam(unsigned num_sids) : rows_(num_sids)
{
    SIOPMP_ASSERT(num_sids >= 1, "CAM needs at least one row");
    const std::size_t slots = std::bit_ceil(2 * std::size_t{num_sids});
    index_.resize(slots);
    index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

std::size_t
DeviceId2SidCam::slotOf(DeviceId device) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = home(device);
    while (index_[slot].row != kNoSid && index_[slot].device != device)
        slot = (slot + 1) & mask;
    return slot;
}

void
DeviceId2SidCam::bind(Sid sid, DeviceId device)
{
    rows_[sid] = Row{true, true, device};
    index_[slotOf(device)] = Slot{device, sid};
}

void
DeviceId2SidCam::unbind(Sid sid)
{
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = slotOf(rows_[sid].device);
    rows_[sid] = Row{};
    // Backward-shift deletion: a later slot of the probe run moves into
    // the hole when its home does not lie in (hole, slot], i.e. when
    // the hole is on its probe path.
    for (std::size_t slot = (hole + 1) & mask; index_[slot].row != kNoSid;
         slot = (slot + 1) & mask) {
        const std::size_t home_to_slot =
            (slot - home(index_[slot].device)) & mask;
        if (home_to_slot >= ((slot - hole) & mask)) {
            index_[hole] = index_[slot];
            hole = slot;
        }
    }
    index_[hole] = Slot{};
}

std::optional<Sid>
DeviceId2SidCam::lookup(DeviceId device)
{
    const Sid sid = index_[slotOf(device)].row;
    if (sid == kNoSid)
        return std::nullopt;
    rows_[sid].use = true;
    return sid;
}

std::optional<Sid>
DeviceId2SidCam::peek(DeviceId device) const
{
    const Sid sid = index_[slotOf(device)].row;
    if (sid == kNoSid)
        return std::nullopt;
    return sid;
}

std::optional<DeviceId>
DeviceId2SidCam::set(Sid sid, DeviceId device)
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    // A device must map to at most one SID; drop any stale binding.
    // The move is one change: the hook fires once, below.
    if (const std::optional<Sid> stale = peek(device))
        unbind(*stale);
    std::optional<DeviceId> previous;
    if (rows_[sid].valid) {
        previous = rows_[sid].device;
        unbind(sid);
    }
    bind(sid, device);
    changed();
    return previous;
}

bool
DeviceId2SidCam::invalidateSid(Sid sid)
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    if (!rows_[sid].valid)
        return false;
    unbind(sid);
    changed();
    return true;
}

Sid
DeviceId2SidCam::chooseVictim()
{
    for (unsigned sid = 0; sid < rows_.size(); ++sid) {
        if (!rows_[sid].valid)
            return sid;
    }

    // Clock sweep: clear use bits until a row without one is found.
    // Bounded by 2 * rows (first pass clears, second pass must hit).
    bool cleared = false;
    for (unsigned step = 0; step < 2 * rows_.size(); ++step) {
        Row &row = rows_[hand_];
        const unsigned sid = hand_;
        hand_ = (hand_ + 1) % rows_.size();
        if (!row.use) {
            if (cleared)
                changed();
            return sid;
        }
        row.use = false; // second chance
        cleared = true;
    }
    panic("clock algorithm failed to find a victim");
}

std::optional<DeviceId>
DeviceId2SidCam::deviceAt(Sid sid) const
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    if (!rows_[sid].valid)
        return std::nullopt;
    return rows_[sid].device;
}

bool
DeviceId2SidCam::useBit(Sid sid) const
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    return rows_[sid].use;
}

} // namespace iopmp
} // namespace siopmp
