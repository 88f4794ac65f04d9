/**
 * @file
 * SecureMonitor implementation.
 */

#include "fw/monitor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace siopmp {
namespace fw {

using iopmp::regmap::kBlockBitmap;
using iopmp::regmap::kCamBase;
using iopmp::regmap::kEntryBase;
using iopmp::regmap::kEntryStride;
using iopmp::regmap::kErrAddr;
using iopmp::regmap::kErrDevice;
using iopmp::regmap::kErrInfo;
using iopmp::regmap::kEsid;
using iopmp::regmap::kMdCfgBase;
using iopmp::regmap::kSrc2MdBase;

namespace {

// Software costs on top of the MMIO accesses (2 cycles each), fitted
// to the paper's §6.3 numbers: blocking adds 35 cycles (block write +
// drain + unblock write), each entry 14 (three writes + overhead), and
// an 8-entry cold switch 341.

//! Per 64-bit load of an extended-table record.
constexpr Cycle kExtLoadCost = 4;
//! Per entry write, beyond its three MMIO writes.
constexpr Cycle kEntrySwOverhead = 8;
//! Pipeline drain and bookkeeping inside a per-SID block bracket.
constexpr Cycle kBlockOverhead = 31;
//! Cold-switch bookkeeping beyond its loads and writes.
constexpr Cycle kColdSwitchOverhead = 37;

} // namespace

SecureMonitor::SecureMonitor(iopmp::SIopmp *unit, mem::MmioBus *mmio,
                             Addr mmio_base,
                             iopmp::ExtendedTable *ext_table,
                             bus::BusMonitor *bus_monitor,
                             MonitorConfig cfg)
    : unit_(unit),
      mmio_(mmio),
      mmio_base_(mmio_base),
      ext_table_(ext_table),
      bus_monitor_(bus_monitor),
      cfg_(cfg)
{
    SIOPMP_ASSERT(unit_ && mmio_, "monitor needs hardware handles");
    entry_used_.assign(unit_->config().num_entries, false);

    st_cold_switch_cycles_ = &stats_.distribution("cold_switch_cycles");
    st_promotions_ = &stats_.scalar("promotions");
    st_demotions_ = &stats_.scalar("demotions");
    st_cam_evictions_ = &stats_.scalar("cam_evictions");
    st_evict_save_failures_ = &stats_.scalar("evict_save_failures");
    st_demote_save_failures_ = &stats_.scalar("demote_save_failures");
    st_mounted_cold_flushes_ = &stats_.scalar("mounted_cold_flushes");

    unit_->setIrqHandler(
        [this](const iopmp::Irq &irq) { irq_ctrl_.raise(irq); });
    irq_ctrl_.setHandler(iopmp::IrqKind::Violation,
                         [this](const iopmp::Irq &irq, Cycle now) {
                             return handleViolation(irq, now);
                         });
    irq_ctrl_.setHandler(iopmp::IrqKind::SidMissing,
                         [this](const iopmp::Irq &irq, Cycle now) {
                             return handleSidMissing(irq, now);
                         });
}

Cycle
SecureMonitor::mmioWrite(Addr offset, std::uint64_t value)
{
    auto result = mmio_->write(mmio_base_ + offset, value);
    SIOPMP_ASSERT(result.ok, "monitor MMIO write failed");
    return result.cost;
}

Cycle
SecureMonitor::mmioRead(Addr offset, std::uint64_t *value)
{
    auto result = mmio_->read(mmio_base_ + offset);
    SIOPMP_ASSERT(result.ok, "monitor MMIO read failed");
    if (value)
        *value = result.value;
    return result.cost;
}

std::pair<unsigned, unsigned>
SecureMonitor::mdWindow(Sid sid) const
{
    const auto &iopmp_cfg = unit_->config();
    const unsigned hot_mds = iopmp_cfg.num_mds - 1; // MD62 is cold
    if (sid < hot_mds) {
        const unsigned lo = sid * cfg_.entries_per_hot_md;
        return {lo, lo + cfg_.entries_per_hot_md};
    }
    // Cold window (MD62).
    const unsigned lo = hot_mds * cfg_.entries_per_hot_md;
    return {lo, lo + cfg_.cold_window_entries};
}

void
SecureMonitor::init(mem::Range dram, mem::Range protected_region)
{
    const auto &iopmp_cfg = unit_->config();
    const unsigned hot_mds = iopmp_cfg.num_mds - 1;
    SIOPMP_ASSERT(hot_mds * cfg_.entries_per_hot_md +
                          cfg_.cold_window_entries <=
                      iopmp_cfg.num_entries,
                  "entry table too small for the MD partition");

    // Program MDCFG: MD m owns entries [m*E, (m+1)*E); MD62 owns the
    // cold window. SIDs pair 1:1 with MDs.
    unsigned top = 0;
    for (MdIndex md = 0; md < iopmp_cfg.num_mds; ++md) {
        top += md < hot_mds ? cfg_.entries_per_hot_md
                            : cfg_.cold_window_entries;
        mmioWrite(kMdCfgBase + md * 8, top);
    }
    for (Sid sid = 0; sid < hot_mds; ++sid)
        mmioWrite(kSrc2MdBase + sid * 8, std::uint64_t{1} << sid);
    // Cold SID (last row) pairs with the cold MD.
    mmioWrite(kSrc2MdBase + unit_->coldSid() * 8,
              std::uint64_t{1} << (iopmp_cfg.num_mds - 1));

    // Protect the extended table region from S/U-mode CPU access.
    pmp_.set(0, protected_region.base, protected_region.size,
             /*r=*/false, /*w=*/false, /*x=*/false, /*lock=*/false);

    dram_root_ = caps_.mintMemory(dram);
}

CapId
SecureMonitor::registerDevice(DeviceId device)
{
    auto it = device_roots_.find(device);
    if (it != device_roots_.end())
        return it->second;
    const CapId cap = caps_.mintDevice(device);
    device_roots_.emplace(device, cap);
    return cap;
}

OwnerId
SecureMonitor::createTee(const std::string &name, mem::Range memory,
                         const std::vector<CapId> &devices)
{
    const OwnerId owner = next_owner_++;
    auto tee = std::make_unique<Tee>(owner, name);

    // Derive the TEE's memory from the DRAM root and hand it over.
    const CapId mem_cap =
        caps_.deriveMemory(dram_root_, memory, CapRights::Full);
    if (mem_cap == kNoCap)
        return 0;
    caps_.transfer(mem_cap, kMonitorOwner, owner);
    tee->addMemoryCap(mem_cap);

    for (CapId device_cap : devices) {
        if (!caps_.transfer(device_cap, kMonitorOwner, owner))
            return 0;
        tee->addDeviceCap(device_cap);
    }

    tees_.emplace(owner, std::move(tee));
    return owner;
}

Tee *
SecureMonitor::tee(OwnerId owner)
{
    auto it = tees_.find(owner);
    return it == tees_.end() ? nullptr : it->second.get();
}

FwResult
SecureMonitor::destroyTee(OwnerId owner, Cycle now)
{
    FwResult result;
    auto it = tees_.find(owner);
    if (it == tees_.end())
        return result;
    Tee &domain = *it->second;

    // Remove every live mapping (atomic per entry).
    while (!domain.mappings().empty()) {
        const DeviceMapping mapping = domain.mappings().back();
        const FwResult unmapped =
            deviceUnmap(owner, mapping.device, mapping.entry_index, now);
        SIOPMP_ASSERT(unmapped.ok, "teardown unmap failed");
        result.cost += unmapped.cost;
    }

    // Flush every trace of the TEE's devices out of the hardware and
    // the extended table: a destroyed domain's rules must never
    // service another DMA — not even one already in flight. Unlike
    // demoteToCold there is nothing to preserve, so the flushes cannot
    // fail on a full extended table.
    for (CapId cap_id : domain.deviceCaps()) {
        auto cap = caps_.get(cap_id);
        if (!cap)
            continue;
        if (auto sid = hotSid(cap->device))
            result.cost += evictHot(cap->device, *sid);
        if (unit_->mountedCold() == cap->device)
            result.cost += flushMountedCold(cap->device);
        if (ext_table_)
            ext_table_->remove(cap->device);
        miss_counts_.erase(cap->device);
    }

    // Revoke everything the TEE held (cascades down the chain).
    for (CapId cap_id : domain.memoryCaps())
        caps_.revoke(cap_id);
    for (CapId cap_id : domain.deviceCaps())
        caps_.revoke(cap_id);

    tees_.erase(it);
    result.ok = true;
    return result;
}

Cycle
SecureMonitor::writeEntry(unsigned index, const iopmp::Entry &entry)
{
    const Addr base = kEntryBase + index * kEntryStride;
    Cycle cost = 0;
    cost += mmioWrite(base + 0, entry.base());
    cost += mmioWrite(base + 8, entry.size());
    std::uint64_t cfg_word = static_cast<std::uint64_t>(entry.perm()) |
                             (static_cast<std::uint64_t>(entry.mode()) << 2);
    cost += mmioWrite(base + 16, cfg_word);
    return cost + kEntrySwOverhead;
}

Cycle
SecureMonitor::blockSid(Sid sid, DeviceId device)
{
    // The block bitmap is windowed: word sid/64 carries bit sid%64
    // (paper-scale configs have more than 64 SIDs).
    const unsigned word = sid / 64;
    Cycle cost =
        mmioWrite(kBlockBitmap + word * 8,
                  unit_->blockBitmap().word(word) |
                      (std::uint64_t{1} << (sid % 64)));
    // Wait for the checker pipeline and bus to drain this device's
    // transactions. With a live bus monitor we poll it; the polling
    // and bookkeeping cost is kBlockOverhead.
    if (bus_monitor_) {
        // In this functional call context the fabric cannot make
        // progress, so in-flight transactions are accounted by the
        // caller; the quiesce state is still validated.
        (void)bus_monitor_->quiesced(device);
    }
    cost += kBlockOverhead;
    return cost;
}

Cycle
SecureMonitor::unblockSid(Sid sid)
{
    const unsigned word = sid / 64;
    return mmioWrite(kBlockBitmap + word * 8,
                     unit_->blockBitmap().word(word) &
                         ~(std::uint64_t{1} << (sid % 64)));
}

FwResult
SecureMonitor::deviceMap(OwnerId owner, DeviceId device, mem::Range range,
                         Perm perm, Cycle now)
{
    return deviceMapSg(owner, device, {range}, perm, now);
}

FwResult
SecureMonitor::deviceUnmap(OwnerId owner, DeviceId device,
                           unsigned entry_index, Cycle now)
{
    (void)now;
    FwResult result;
    Tee *domain = tee(owner);
    if (!domain)
        return result;

    auto &mappings = domain->mappings();
    auto it = std::find_if(mappings.begin(), mappings.end(),
                           [&](const DeviceMapping &m) {
                               return m.device == device &&
                                      m.entry_index == entry_index;
                           });
    if (it == mappings.end())
        return result;

    // The mapping's recorded SID/entry are a snapshot from map time:
    // the device may since have been evicted to the extended table,
    // remounted cold, or re-promoted into a different CAM row.
    // Resolve the rule's *current* home before touching hardware —
    // blindly reusing the snapshot would block the wrong SID and
    // write off another tenant's entry.
    if (auto sid = hotSid(device)) {
        auto [lo, hi] = mdWindow(*sid);
        unsigned index = hi;
        for (unsigned i = lo; i < hi; ++i) {
            if (!entry_used_[i])
                continue;
            const iopmp::Entry &entry = unit_->entryTable().get(i);
            if (entry.base() == it->range.base &&
                entry.size() == it->range.size &&
                entry.perm() == it->perm) {
                index = i;
                break;
            }
        }
        if (index < hi) {
            result.cost += blockSid(*sid, device);
            result.cost += writeEntry(index, iopmp::Entry::off());
            result.cost += unblockSid(*sid);
            entry_used_[index] = false;
        }
    } else if (ext_table_) {
        // Evicted (or never-promoted) device: edit its extended-table
        // record instead, and rewrite MD62's window if that record is
        // currently mounted through the eSID slot.
        unsigned loads = 0;
        if (auto record = ext_table_->find(device, &loads)) {
            result.cost += loads * kExtLoadCost;
            auto &entries = record->entries;
            auto match = std::find_if(
                entries.begin(), entries.end(),
                [&](const iopmp::Entry &entry) {
                    return entry.base() == it->range.base &&
                           entry.size() == it->range.size &&
                           entry.perm() == it->perm;
                });
            if (match != entries.end())
                entries.erase(match);
            ext_table_->add(*record); // replace path: reuses the slot
            if (unit_->mountedCold() == device)
                result.cost += remountCold(*record);
        }
    }

    mappings.erase(it);
    result.ok = true;
    result.entry_index = entry_index;
    return result;
}

FwResult
SecureMonitor::deviceMapSg(OwnerId owner, DeviceId device,
                           const std::vector<mem::Range> &segments,
                           Perm perm, Cycle now)
{
    FwResult result;
    Tee *domain = tee(owner);
    if (!domain || segments.empty())
        return result;
    if (!caps_.findDeviceCap(owner, device))
        return result;
    for (const auto &segment : segments) {
        if (!caps_.findMemoryCap(owner, segment.base, segment.size,
                                 CapRights::Map)) {
            return result;
        }
    }

    auto sid = hotSid(device);
    if (!sid) {
        const FwResult promoted = promoteToHot(device, now);
        if (!promoted.ok)
            return result;
        result.cost += promoted.cost;
        sid = hotSid(device);
    }

    // All segments must fit in the device's window.
    auto [lo, hi] = mdWindow(*sid);
    std::vector<unsigned> free_slots;
    for (unsigned i = lo; i < hi && free_slots.size() < segments.size();
         ++i) {
        if (!entry_used_[i])
            free_slots.push_back(i);
    }
    if (free_slots.size() < segments.size())
        return result;

    // One blocking bracket for the whole list: atomic publication.
    result.cost += blockSid(*sid, device);
    for (std::size_t s = 0; s < segments.size(); ++s) {
        result.cost += writeEntry(
            free_slots[s], iopmp::Entry::range(segments[s].base,
                                               segments[s].size, perm));
        entry_used_[free_slots[s]] = true;
        domain->mappings().push_back(DeviceMapping{
            device, *sid, free_slots[s], segments[s], perm});
    }
    result.cost += unblockSid(*sid);
    result.ok = true;
    result.entry_index = free_slots.front();
    return result;
}

FwResult
SecureMonitor::modifyEntries(DeviceId device,
                             const std::vector<iopmp::Entry> &entries,
                             bool atomic, Cycle now)
{
    (void)now;
    FwResult result;
    auto sid = hotSid(device);
    if (!sid)
        return result;
    auto [lo, hi] = mdWindow(*sid);
    if (entries.size() > hi - lo)
        return result;

    if (atomic)
        result.cost += blockSid(*sid, device);
    for (unsigned i = 0; i < entries.size(); ++i)
        result.cost += writeEntry(lo + i, entries[i]);
    if (atomic)
        result.cost += unblockSid(*sid);
    result.ok = true;
    return result;
}

bool
SecureMonitor::registerColdDevice(const iopmp::MountRecord &record)
{
    SIOPMP_ASSERT(ext_table_, "no extended table configured");
    return ext_table_->add(record);
}

FwResult
SecureMonitor::promoteToHot(DeviceId device, Cycle now)
{
    (void)now;
    FwResult result;
    if (hotSid(device)) {
        result.ok = true;
        return result;
    }

    // The CAM's clock chooses the row: a free one, or a victim whose
    // rules demote to the extended table. Nothing is bound until the
    // row write below.
    const Sid sid = unit_->cam().chooseVictim();
    const std::optional<DeviceId> victim = unit_->cam().deviceAt(sid);
    if (victim) {
        // Save the victim's window before any register write: on a
        // full table the promotion fails with the victim's row and
        // window untouched — losing its rules would make it
        // permanently unmountable.
        if (!ext_table_ || !ext_table_->add(saveHotWindow(*victim, sid))) {
            ++*st_evict_save_failures_;
            return result;
        }
        // The whole handover sits under the victim SID's block: its
        // entries are written off so the new occupant cannot inherit
        // stale rules when its own record fills less of the window.
        result.cost += blockSid(sid, *victim);
        result.cost += clearHotWindow(sid);
        ++*st_cam_evictions_;
        ++result.cost; // bookkeeping marker; loads accounted on mount
    }

    // Install the device's extended-table record, if it has one, into
    // the window before the row resolves the device to it.
    if (ext_table_) {
        unsigned loads = 0;
        auto record = ext_table_->find(device, &loads);
        result.cost += loads * kExtLoadCost;
        if (record) {
            auto [lo, hi] = mdWindow(sid);
            unsigned i = lo;
            for (const auto &entry : record->entries) {
                if (i >= hi)
                    break;
                result.cost += writeEntry(i, entry);
                entry_used_[i] = true;
                ++i;
            }
            ext_table_->remove(device);
        }
    }

    // Program the CAM row over MMIO, then end the victim's bracket.
    result.cost += mmioWrite(kCamBase + sid * 8,
                             (std::uint64_t{1} << 63) | device);
    if (victim)
        result.cost += unblockSid(sid);

    // A device promoted out of the eSID slot leaves the slot and
    // MD62's window stale: the cold copy of its rules would outlive
    // the hot ones (a later unmap edits only the hot window). Flush
    // the slot so the CAM row is the rules' single home.
    if (unit_->mountedCold() == device)
        result.cost += flushMountedCold(device);

    miss_counts_.erase(device);
    ++*st_promotions_;
    result.ok = true;
    return result;
}

FwResult
SecureMonitor::demoteToCold(DeviceId device, Cycle now)
{
    (void)now;
    FwResult result;
    auto sid = hotSid(device);
    if (!sid)
        return result;

    // Preserve the device's rules in the extended table *before*
    // touching the hardware: if the table is full the demotion fails
    // cleanly instead of silently dropping the rules (which would
    // leave the device permanently unmountable).
    if (!ext_table_ || !ext_table_->add(saveHotWindow(device, *sid))) {
        ++*st_demote_save_failures_;
        return result;
    }

    result.cost += evictHot(device, *sid);
    // Reset the implicit-promotion counter: a demoted device must
    // re-earn its CAM row with fresh misses, not ride pre-demotion
    // ones straight back in.
    miss_counts_.erase(device);
    ++*st_demotions_;
    result.ok = true;
    return result;
}

iopmp::MountRecord
SecureMonitor::saveHotWindow(DeviceId device, Sid sid) const
{
    auto [lo, hi] = mdWindow(sid);
    iopmp::MountRecord record;
    record.esid = device;
    record.md_bitmap = std::uint64_t{1} << (unit_->config().num_mds - 1);
    for (unsigned i = lo; i < hi; ++i) {
        if (entry_used_[i])
            record.entries.push_back(unit_->entryTable().get(i));
    }
    return record;
}

Cycle
SecureMonitor::clearHotWindow(Sid sid)
{
    auto [lo, hi] = mdWindow(sid);
    Cycle cost = 0;
    for (unsigned i = lo; i < hi; ++i) {
        if (!entry_used_[i])
            continue;
        cost += writeEntry(i, iopmp::Entry::off());
        entry_used_[i] = false;
    }
    return cost;
}

Cycle
SecureMonitor::evictHot(DeviceId device, Sid sid)
{
    Cycle cost = blockSid(sid, device);
    cost += clearHotWindow(sid);
    cost += mmioWrite(kCamBase + sid * 8, 0); // invalidate the row
    cost += unblockSid(sid);
    return cost;
}

Cycle
SecureMonitor::loadColdWindow(const std::vector<iopmp::Entry> &entries)
{
    auto [lo, hi] = mdWindow(unit_->coldSid());
    Cycle cost = 0;
    unsigned i = lo;
    for (const auto &entry : entries) {
        if (i >= hi)
            break;
        cost += writeEntry(i, entry);
        ++i;
    }
    for (; i < hi; ++i)
        cost += writeEntry(i, iopmp::Entry::off());
    return cost;
}

Cycle
SecureMonitor::flushMountedCold(DeviceId device)
{
    const Sid cold_sid = unit_->coldSid();
    const bool was_blocked = unit_->blockBitmap().blocked(cold_sid);
    Cycle cost = 0;
    if (!was_blocked)
        cost += blockSid(cold_sid, device);
    cost += loadColdWindow({});
    cost += mmioWrite(kEsid, 0);
    if (!was_blocked)
        cost += unblockSid(cold_sid);
    ++*st_mounted_cold_flushes_;
    return cost;
}

Cycle
SecureMonitor::remountCold(const iopmp::MountRecord &record)
{
    const Sid cold_sid = unit_->coldSid();
    const bool was_blocked = unit_->blockBitmap().blocked(cold_sid);
    Cycle cost = 0;
    if (!was_blocked)
        cost += blockSid(cold_sid, record.esid);
    cost += loadColdWindow(record.entries);
    if (!was_blocked)
        cost += unblockSid(cold_sid);
    return cost;
}

Cycle
SecureMonitor::coldSwitch(DeviceId device, Cycle now)
{
    (void)now;
    SIOPMP_ASSERT(ext_table_, "cold switch without extended table");
    Cycle cost = 0;

    unsigned loads = 0;
    auto record = ext_table_->find(device, &loads);
    cost += loads * kExtLoadCost;
    if (!record)
        return cost; // unknown device: leave it blocked forever

    // A previously mounted cold device is evicted: its window is
    // overwritten below.
    if (unit_->mountedCold())
        ++cold_switches_;

    // Install the record: entries into MD62's window (the remainder
    // flushed), then the eSID register and the cold SRC2MD row.
    cost += loadColdWindow(record->entries);
    cost += mmioWrite(kEsid, (std::uint64_t{1} << 63) | device);
    cost += mmioWrite(kSrc2MdBase + unit_->coldSid() * 8,
                      std::uint64_t{1} << (unit_->config().num_mds - 1));
    cost += kColdSwitchOverhead;

    // Implicit switching: a device that keeps cold-missing becomes a
    // promotion candidate.
    if (++miss_counts_[device] >= cfg_.promote_threshold) {
        const FwResult promoted = promoteToHot(device, now);
        cost += promoted.cost;
    }
    st_cold_switch_cycles_->sample(static_cast<double>(cost));
    return cost;
}

Cycle
SecureMonitor::handleViolation(const iopmp::Irq &irq, Cycle now)
{
    (void)irq;
    (void)now;
    // Read the record and acknowledge it; the checker node has already
    // traced the violation, so only the MMIO cost matters here.
    Cycle cost = 0;
    cost += mmioRead(kErrAddr, nullptr);
    cost += mmioRead(kErrDevice, nullptr);
    cost += mmioRead(kErrInfo, nullptr);
    cost += mmioWrite(kErrInfo, 0); // acknowledge
    ++violations_;
    return cost;
}

Cycle
SecureMonitor::handleSidMissing(const iopmp::Irq &irq, Cycle now)
{
    return coldSwitch(irq.device, now);
}

Cycle
SecureMonitor::serviceInterrupts(Cycle now)
{
    return irq_ctrl_.service(now);
}

void
SecureMonitor::delegateToSmode(unsigned lo, unsigned hi)
{
    smode_lo_ = lo;
    smode_hi_ = hi;
}

FwResult
SecureMonitor::smodeSetEntry(unsigned index, const iopmp::Entry &entry,
                             Cycle now)
{
    (void)now;
    FwResult result;
    if (index < smode_lo_ || index >= smode_hi_)
        return result; // outside the delegated window: rejected
    result.cost = writeEntry(index, entry);
    result.ok = true;
    result.entry_index = index;
    return result;
}

std::optional<Sid>
SecureMonitor::hotSid(DeviceId device) const
{
    return unit_->cam().peek(device);
}

} // namespace fw
} // namespace siopmp
