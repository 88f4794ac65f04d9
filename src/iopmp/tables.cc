/**
 * @file
 * Configuration table implementations.
 */

#include "iopmp/tables.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

namespace {

void
registerListener(std::vector<TableListener *> &listeners,
                 TableListener *listener)
{
    SIOPMP_ASSERT(listener != nullptr, "null table listener");
    listeners.push_back(listener);
}

void
unregisterListener(std::vector<TableListener *> &listeners,
                   TableListener *listener)
{
    listeners.erase(
        std::remove(listeners.begin(), listeners.end(), listener),
        listeners.end());
}

} // namespace

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

void
EntryTable::addListener(TableListener *listener) const
{
    registerListener(listeners_, listener);
}

void
EntryTable::removeListener(TableListener *listener) const
{
    unregisterListener(listeners_, listener);
}

void
EntryTable::notifyChanged(unsigned lo, unsigned hi)
{
    for (TableListener *listener : listeners_)
        listener->onEntriesChanged(lo, hi);
}

void
EntryTable::notifyReset()
{
    for (TableListener *listener : listeners_)
        listener->onTableReset();
}

const Entry &
EntryTable::get(unsigned idx) const
{
    SIOPMP_ASSERT(idx < entries_.size(), "entry index out of range");
    return entries_[idx];
}

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
    notifyChanged(idx, idx + 1);
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
    // No listener callback: the lock bit never changes a verdict, only
    // future writability.
}

void
EntryTable::resetAll()
{
    for (auto &entry : entries_)
        entry = Entry::off();
    writes_ = 0;
    notifyReset();
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
Src2MdTable::deassociate(Sid sid, MdIndex md)
{
    if (!validSid(sid) || md >= num_mds_ || rows_[sid].lock)
        return false;
    rows_[sid].md_bitmap &= ~(std::uint64_t{1} << md);
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

void
Src2MdTable::resetAll()
{
    for (auto &row : rows_)
        row = Row{};
    changed();
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
    const unsigned old_top = tops_[md];
    if (top == old_top)
        return true; // accepted but a no-op: listeners stay quiet

    // Entries in [min, max) of the old/new top change owner. The MDs
    // affected are those whose effective window intersects that range
    // under the OLD tops (they lose entries) or the NEW tops (they
    // gain entries) — a post-state-only diff would miss the loser when
    // a window shrinks past another MD's boundary.
    const unsigned range_lo = std::min(old_top, top);
    const unsigned range_hi = std::max(old_top, top);
    std::uint64_t md_mask = ownersOf(range_lo, range_hi);
    tops_[md] = top;
    md_mask |= ownersOf(range_lo, range_hi);
    notifyWindows(md_mask, range_lo, range_hi);
    return true;
}

unsigned
MdCfgTable::top(MdIndex md) const
{
    SIOPMP_ASSERT(md < tops_.size(), "MD index out of range");
    return tops_[md];
}

unsigned
MdCfgTable::lo(MdIndex md) const
{
    SIOPMP_ASSERT(md < tops_.size(), "MD index out of range");
    return md == 0 ? 0 : tops_[md - 1];
}

int
MdCfgTable::mdOfEntry(unsigned idx) const
{
    for (MdIndex md = 0; md < tops_.size(); ++md) {
        if (idx < tops_[md])
            return idx >= lo(md) ? static_cast<int>(md) : -1;
    }
    return -1;
}

std::uint64_t
MdCfgTable::ownersOf(unsigned lo, unsigned hi) const
{
    if (lo >= hi)
        return 0; // empty range intersects nothing
    std::uint64_t mask = 0;
    unsigned covered = 0;
    for (MdIndex md = 0; md < tops_.size(); ++md) {
        const unsigned top = tops_[md];
        if (top <= covered)
            continue; // unprogrammed or shadowed: empty window
        // Effective window [covered, top).
        if (covered < hi && lo < top)
            mask |= std::uint64_t{1} << md;
        covered = top;
    }
    return mask;
}

void
MdCfgTable::addListener(TableListener *listener) const
{
    registerListener(listeners_, listener);
}

void
MdCfgTable::removeListener(TableListener *listener) const
{
    unregisterListener(listeners_, listener);
}

void
MdCfgTable::notifyWindows(std::uint64_t md_mask, unsigned lo, unsigned hi)
{
    for (TableListener *listener : listeners_)
        listener->onMdWindowsChanged(md_mask, lo, hi);
}

void
MdCfgTable::notifyReset()
{
    for (TableListener *listener : listeners_)
        listener->onTableReset();
}

void
MdCfgTable::resetAll()
{
    for (auto &top : tops_)
        top = 0;
    notifyReset();
}

} // namespace iopmp
} // namespace siopmp
