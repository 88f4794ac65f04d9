/**
 * @file
 * ExtendedTable implementation.
 */

#include "iopmp/mountable.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** Pack an entry's permission/mode into one 64-bit config word. */
std::uint64_t
packCfg(const Entry &entry)
{
    return static_cast<std::uint64_t>(entry.perm()) |
           (static_cast<std::uint64_t>(entry.mode()) << 2);
}

Entry
unpackEntry(std::uint64_t base, std::uint64_t size, std::uint64_t cfg)
{
    const auto perm = static_cast<Perm>(cfg & 0x3);
    const auto mode = static_cast<EntryMode>((cfg >> 2) & 0x3);
    if (mode == EntryMode::Off || size == 0)
        return Entry::off();
    if (mode == EntryMode::Napot)
        return Entry::napot(base, size, perm);
    return Entry::range(base, size, perm);
}

} // namespace

ExtendedTable::ExtendedTable(mem::Backing *backing, mem::Range region,
                             unsigned max_entries_per_record)
    : backing_(backing), region_(region), max_entries_(max_entries_per_record)
{
    SIOPMP_ASSERT(backing_ != nullptr, "extended table needs backing");
    SIOPMP_ASSERT(region_.size >= recordBytes(),
                  "extended table region too small for one record");
    slot_used_.assign(capacitySlots(), false);
}

void
ExtendedTable::serialize(std::size_t slot, const MountRecord &record)
{
    Addr addr = slotAddr(slot);
    backing_->write64(addr, record.esid);
    backing_->write64(addr + 8, record.md_bitmap);
    backing_->write64(addr + 16, record.entries.size());
    addr += kHeaderWords * 8;
    for (const Entry &entry : record.entries) {
        backing_->write64(addr, entry.base());
        backing_->write64(addr + 8, entry.size());
        backing_->write64(addr + 16, packCfg(entry));
        addr += kWordsPerEntry * 8;
    }
}

bool
ExtendedTable::add(const MountRecord &record)
{
    if (record.entries.size() > max_entries_)
        return false;

    auto it = index_.find(record.esid);
    if (it != index_.end()) {
        serialize(it->second, record);
        return true;
    }

    for (std::size_t slot = 0; slot < slot_used_.size(); ++slot) {
        if (!slot_used_[slot]) {
            slot_used_[slot] = true;
            index_.emplace(record.esid, slot);
            serialize(slot, record);
            return true;
        }
    }
    return false; // region full
}

bool
ExtendedTable::remove(DeviceId device)
{
    auto it = index_.find(device);
    if (it == index_.end())
        return false;
    slot_used_[it->second] = false;
    index_.erase(it);
    return true;
}

bool
ExtendedTable::contains(DeviceId device) const
{
    return index_.count(device) != 0;
}

std::optional<MountRecord>
ExtendedTable::find(DeviceId device, unsigned *loads) const
{
    unsigned nloads = 0;
    auto it = index_.find(device);
    if (it == index_.end()) {
        if (loads)
            *loads = 0;
        return std::nullopt;
    }

    Addr addr = slotAddr(it->second);
    MountRecord record;
    record.esid = backing_->read64(addr);
    record.md_bitmap = backing_->read64(addr + 8);
    const std::uint64_t count = backing_->read64(addr + 16);
    nloads += 3;
    SIOPMP_ASSERT(record.esid == device, "extended table index corrupt");
    SIOPMP_ASSERT(count <= max_entries_, "extended table record corrupt");

    addr += kHeaderWords * 8;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t base = backing_->read64(addr);
        const std::uint64_t size = backing_->read64(addr + 8);
        const std::uint64_t cfg = backing_->read64(addr + 16);
        nloads += 3;
        record.entries.push_back(unpackEntry(base, size, cfg));
        addr += kWordsPerEntry * 8;
    }

    total_loads_ += nloads;
    if (loads)
        *loads = nloads;
    return record;
}

} // namespace iopmp
} // namespace siopmp
