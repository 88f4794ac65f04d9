/**
 * @file
 * DeviceId2SidCam implementation.
 */

#include "iopmp/remap_cam.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

DeviceId2SidCam::DeviceId2SidCam(unsigned num_sids) : rows_(num_sids)
{
    SIOPMP_ASSERT(num_sids >= 1, "CAM needs at least one row");
}

std::optional<Sid>
DeviceId2SidCam::lookup(DeviceId device)
{
    for (unsigned sid = 0; sid < rows_.size(); ++sid) {
        if (rows_[sid].valid && rows_[sid].device == device) {
            rows_[sid].use = true;
            return sid;
        }
    }
    return std::nullopt;
}

std::optional<Sid>
DeviceId2SidCam::peek(DeviceId device) const
{
    for (unsigned sid = 0; sid < rows_.size(); ++sid) {
        if (rows_[sid].valid && rows_[sid].device == device)
            return sid;
    }
    return std::nullopt;
}

std::optional<DeviceId>
DeviceId2SidCam::set(Sid sid, DeviceId device)
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    // A device must map to at most one SID; drop any stale binding.
    // The move is one change: the hook fires once, below.
    drop(device);
    std::optional<DeviceId> previous;
    if (rows_[sid].valid)
        previous = rows_[sid].device;
    rows_[sid] = Row{true, true, device};
    changed();
    return previous;
}

bool
DeviceId2SidCam::drop(DeviceId device)
{
    for (auto &row : rows_) {
        if (row.valid && row.device == device) {
            row = Row{};
            return true;
        }
    }
    return false;
}

bool
DeviceId2SidCam::invalidate(DeviceId device)
{
    if (!drop(device))
        return false;
    changed();
    return true;
}

bool
DeviceId2SidCam::invalidateSid(Sid sid)
{
    SIOPMP_ASSERT(sid < rows_.size(), "CAM row out of range");
    if (!rows_[sid].valid)
        return false;
    rows_[sid] = Row{};
    changed();
    return true;
}

Sid
DeviceId2SidCam::insertLru(DeviceId device, std::optional<DeviceId> *evicted)
{
    if (evicted)
        evicted->reset();

    // Re-binding an already-present device is a no-op hit.
    if (auto sid = peek(device)) {
        rows_[*sid].use = true;
        return *sid;
    }

    // Prefer an invalid (free) row. New rows start with the use bit
    // clear: a device must prove it is hot by being looked up again,
    // otherwise a burst of one-off cold devices would flush every
    // genuinely hot mapping (the clock would degenerate to FIFO).
    for (unsigned sid = 0; sid < rows_.size(); ++sid) {
        if (!rows_[sid].valid) {
            rows_[sid] = Row{true, false, device};
            changed();
            return sid;
        }
    }

    // Clock sweep: clear use bits until a row without one is found.
    // Bounded by 2 * rows (first pass clears, second pass must hit).
    for (unsigned step = 0; step < 2 * rows_.size(); ++step) {
        Row &row = rows_[hand_];
        const unsigned sid = hand_;
        hand_ = (hand_ + 1) % rows_.size();
        if (row.use) {
            row.use = false; // second chance
            continue;
        }
        if (evicted)
            *evicted = row.device;
        row = Row{true, false, device};
        changed(); // covers the use bits the sweep cleared too
        return sid;
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
