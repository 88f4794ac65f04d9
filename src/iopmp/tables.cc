/**
 * @file
 * Configuration table implementations.
 */

#include "iopmp/tables.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

const char *
IopmpConfig::validate() const
{
    if (num_sids < 2) {
        return "num_sids must be >= 2: the last SID is reserved for the "
               "mounted cold device, so at least one hot SID is required";
    }
    if (num_mds < 1 || num_mds > 63)
        return "num_mds must be in [1, 63] (SRC2MD bitmap is MD[62:0])";
    if (num_entries < 1)
        return "num_entries must be >= 1";
    return nullptr;
}

EntryTable::EntryTable(unsigned num_entries) : entries_(num_entries) {}

bool
EntryTable::set(unsigned idx, const Entry &entry, bool machine_mode)
{
    SIOPMP_ASSERT(idx < entries_.size(), "entry index out of range");
    if (entries_[idx].locked() && !machine_mode)
        return false;
    // A locked entry stays locked across rewrites by M-mode.
    const bool was_locked = entries_[idx].locked();
    entries_[idx] = entry;
    if (was_locked)
        entries_[idx].lock();
    ++writes_;
    changed();
    return true;
}

bool
EntryTable::clear(unsigned idx, bool machine_mode)
{
    return set(idx, Entry::off(), machine_mode);
}

void
EntryTable::lock(unsigned idx)
{
    SIOPMP_ASSERT(idx < entries_.size(), "entry index out of range");
    entries_[idx].lock();
    // No change hook: the lock bit never changes a verdict, only
    // future writability.
}

Src2MdTable::Src2MdTable(unsigned num_sids, unsigned num_mds)
    : rows_(num_sids), num_mds_(num_mds)
{
    SIOPMP_ASSERT(num_mds <= 63, "MD bitmap is limited to 63 bits");
}

bool
Src2MdTable::associate(Sid sid, MdIndex md)
{
    if (!validSid(sid) || md >= num_mds_ || rows_[sid].lock)
        return false;
    rows_[sid].md_bitmap |= std::uint64_t{1} << md;
    changed();
    return true;
}

bool
Src2MdTable::setBitmap(Sid sid, std::uint64_t bitmap)
{
    if (!validSid(sid) || rows_[sid].lock)
        return false;
    const std::uint64_t valid_mask =
        num_mds_ == 63 ? ((std::uint64_t{1} << 63) - 1)
                       : ((std::uint64_t{1} << num_mds_) - 1);
    if (bitmap & ~valid_mask)
        return false;
    rows_[sid].md_bitmap = bitmap;
    changed();
    return true;
}

std::uint64_t
Src2MdTable::bitmap(Sid sid) const
{
    SIOPMP_ASSERT(validSid(sid), "SID out of range");
    return rows_[sid].md_bitmap;
}

bool
Src2MdTable::associated(Sid sid, MdIndex md) const
{
    if (!validSid(sid) || md >= num_mds_)
        return false;
    return (rows_[sid].md_bitmap >> md) & 1;
}

bool
Src2MdTable::locked(Sid sid) const
{
    SIOPMP_ASSERT(validSid(sid), "SID out of range");
    return rows_[sid].lock;
}

void
Src2MdTable::lock(Sid sid)
{
    SIOPMP_ASSERT(validSid(sid), "SID out of range");
    rows_[sid].lock = true;
}

MdCfgTable::MdCfgTable(unsigned num_mds, unsigned num_entries)
    : tops_(num_mds, 0), num_entries_(num_entries)
{
}

bool
MdCfgTable::setTop(MdIndex md, unsigned top)
{
    if (md >= tops_.size() || top > num_entries_)
        return false;
    // Monotonic non-decreasing among programmed values. An MD whose T
    // is still 0 has not been programmed and imposes no constraint
    // (software fills the table in any order), but a new value must
    // respect EVERY programmed neighbour, not just the adjacent one —
    // otherwise out-of-order writes could make domain windows overlap.
    for (MdIndex lower = 0; lower < md; ++lower) {
        if (top < tops_[lower])
            return false;
    }
    for (MdIndex higher = md + 1; higher < tops_.size(); ++higher) {
        if (tops_[higher] != 0 && top > tops_[higher])
            return false;
    }
    if (top == tops_[md])
        return true; // accepted but a no-op: the hook stays quiet
    tops_[md] = top;
    changed();
    return true;
}

unsigned
MdCfgTable::top(MdIndex md) const
{
    SIOPMP_ASSERT(md < tops_.size(), "MD index out of range");
    return tops_[md];
}

int
MdCfgTable::mdOfEntry(unsigned idx) const
{
    // Every top before the first one above idx is <= idx, so idx is
    // never below that MD's window().lo.
    for (MdIndex md = 0; md < tops_.size(); ++md) {
        if (idx < tops_[md])
            return static_cast<int>(md);
    }
    return -1;
}

} // namespace iopmp
} // namespace siopmp
