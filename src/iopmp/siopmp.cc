/**
 * @file
 * SIopmp implementation.
 */

#include "iopmp/siopmp.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/tickable.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** Reject unusable sizings before any member is constructed (cfg_ is
 * the first member, so this runs ahead of the CAM/table ctors and
 * their opaque internal asserts). */
IopmpConfig
validated(IopmpConfig cfg)
{
    if (const char *error = cfg.validate()) {
        fatal("invalid IopmpConfig{entries=%u, sids=%u, mds=%u}: %s",
              cfg.num_entries, cfg.num_sids, cfg.num_mds, error);
    }
    return cfg;
}

/** Reject a checker the hardware could not build, the same way. */
CheckerGeometry
validated(CheckerGeometry geometry)
{
    if (const char *error = geometry.validate()) {
        fatal("invalid checker geometry{kind=%s, entries=%u, stages=%u}: %s",
              checkerKindName(geometry.kind), geometry.entries,
              geometry.stages, error);
    }
    return geometry;
}

} // namespace

EntryCommit
decodeEntryCommit(const EntryTable &entries, unsigned idx,
                  std::uint64_t base, std::uint64_t size, std::uint64_t cfg)
{
    using namespace regmap;
    const auto perm = static_cast<Perm>(cfg & 0x3);
    const unsigned mode_bits = (cfg >> 2) & 0x3;
    EntryCommit commit;
    commit.lock = (cfg >> 7) & 1;
    if (mode_bits == kModeRange && size > 0) {
        commit.entry = Entry::range(base, size, perm);
    } else if (mode_bits == kModeNapot) {
        // NAPOT needs a power-of-two size >= 8 and an aligned base.
        if (isPow2(size) && size >= 8 && (base & (size - 1)) == 0)
            commit.entry = Entry::napot(base, size, perm);
    } else if (mode_bits == kModeTor) {
        // PMP-heritage top-of-range encoding: the region runs from the
        // previous entry's end (0 for entry 0) up to this entry's
        // staged ADDR. Resolved to a plain range at commit time, as
        // hardware would.
        const Addr lo = idx == 0 ? 0
                                 : entries.get(idx - 1).base() +
                                       entries.get(idx - 1).size();
        if (base > lo)
            commit.entry = Entry::range(lo, base - lo, perm);
    }
    return commit;
}

SIopmp::SIopmp(IopmpConfig cfg, CheckerKind kind, unsigned stages)
    : cfg_(validated(cfg)),
      geometry_(validated(CheckerGeometry{kind, cfg.num_entries, stages})),
      entries_(cfg.num_entries),
      src2md_(cfg.num_sids, cfg.num_mds),
      mdcfg_(cfg.num_mds, cfg.num_entries),
      cam_(cfg.num_sids - 1), // hot SIDs 0 .. num_sids-2; last is cold
      blocks_(cfg.num_sids),
      stats_("siopmp"),
      entry_stage_(cfg_.num_entries)
{
    st_checks_ = &stats_.scalar("checks");
    st_sid_misses_ = &stats_.scalar("sid_misses");
    st_blocked_ = &stats_.scalar("blocked_stalls");
    st_allows_ = &stats_.scalar("allows");
    st_denies_ = &stats_.scalar("denies");
    st_write_rejects_ = &stats_.scalar("mmio_write_rejects");
    entries_.setChangeHook([this] { stateChanged(); });
    mdcfg_.setChangeHook([this] { stateChanged(); });
    cam_.setChangeHook([this] { stateChanged(); });
    src2md_.setChangeHook([this] { stateChanged(); });
    blocks_.setChangeHook([this] { stateChanged(); });
}

void
SIopmp::addStallWaiter(Tickable *node)
{
    stall_waiters_.push_back(node);
}

void
SIopmp::removeStallWaiter(Tickable *node)
{
    stall_waiters_.erase(
        std::remove(stall_waiters_.begin(), stall_waiters_.end(), node),
        stall_waiters_.end());
}

void
SIopmp::stateChanged()
{
    ++state_version_;
    // Active waiters are woken too: the wake keeps one that evaluated
    // earlier this cycle (and saw the old state) from parking on it.
    for (Tickable *node : stall_waiters_)
        node->wake();
}

std::optional<Sid>
SIopmp::resolveSid(DeviceId device) const
{
    if (auto sid = cam_.peek(device))
        return sid;
    if (esid_ && *esid_ == device)
        return coldSid();
    return std::nullopt;
}

void
SIopmp::raise(const Irq &irq)
{
    if (irq_)
        irq_(irq);
}

void
SIopmp::rejectWrite(Addr offset)
{
    ++write_rejects_;
    ++*st_write_rejects_;
    warn("siopmp: MMIO write to offset %#llx rejected (lock/validity)",
         static_cast<unsigned long long>(offset));
}

AuthResult
SIopmp::authorize(DeviceId device, Addr addr, Addr len, Perm perm,
                  Cycle now)
{
    ++*st_checks_;

    // Stage 1: device -> SID via the CAM (touches the use bit), then
    // the eSID register for the mounted cold device.
    Sid sid = kNoSid;
    if (const std::optional<Sid> hot = cam_.lookup(device)) {
        sid = *hot;
    } else if (esid_ && *esid_ == device) {
        sid = coldSid();
    } else {
        ++*st_sid_misses_;
        raise(Irq{IrqKind::SidMissing, device, addr, perm});
        return {AuthStatus::SidMiss, kNoSid, -1};
    }

    // Stage 2: per-SID block bit (atomic-modification primitive).
    if (blocks_.blocked(sid)) {
        ++*st_blocked_;
        return {AuthStatus::Blocked, sid, -1};
    }

    // Stage 3: permission check over the SID's memory domains.
    CheckRequest req;
    req.addr = addr;
    req.len = len;
    req.perm = perm;
    req.md_bitmap = src2md_.bitmap(sid);
    const CheckResult result = matchWindows(entries_, mdcfg_, req);

    if (result.allowed) {
        ++*st_allows_;
        return {AuthStatus::Allow, sid, result.entry};
    }

    ++*st_denies_;
    if (!violation_)
        violation_ = ViolationRecord{addr, device, perm, now};
    raise(Irq{IrqKind::Violation, device, addr, perm});
    return {AuthStatus::Deny, sid, result.entry};
}

std::optional<ViolationRecord>
SIopmp::violationRecord() const
{
    return violation_;
}

std::uint64_t
SIopmp::mmioRead(Addr offset)
{
    using namespace regmap;

    if (offset >= kSrc2MdBase && offset < kSrc2MdBase + cfg_.num_sids * 8) {
        const Sid sid = static_cast<Sid>((offset - kSrc2MdBase) / 8);
        return src2md_.bitmap(sid) |
               (src2md_.locked(sid) ? (std::uint64_t{1} << 63) : 0);
    }
    if (offset >= kMdCfgBase && offset < kMdCfgBase + cfg_.num_mds * 8) {
        const MdIndex md = static_cast<MdIndex>((offset - kMdCfgBase) / 8);
        return mdcfg_.top(md);
    }
    if (offset >= kBlockBitmap &&
        offset < kBlockBitmap + blocks_.numWords() * 8) {
        return blocks_.word(static_cast<unsigned>((offset - kBlockBitmap) /
                                                  8));
    }
    if (offset == kWriteRejects)
        return write_rejects_;
    if (offset == kEsid) {
        return esid_ ? ((std::uint64_t{1} << 63) | *esid_) : 0;
    }
    if (offset == kErrAddr)
        return violation_ ? violation_->addr : 0;
    if (offset == kErrDevice)
        return violation_ ? violation_->device : 0;
    if (offset == kErrInfo) {
        if (!violation_)
            return 0;
        return (std::uint64_t{1} << 63) |
               static_cast<std::uint64_t>(violation_->attempted);
    }
    if (offset >= kCamBase && offset < kCamBase + cam_.numRows() * 8) {
        const Sid sid = static_cast<Sid>((offset - kCamBase) / 8);
        auto device = cam_.deviceAt(sid);
        return device ? ((std::uint64_t{1} << 63) | *device) : 0;
    }
    if (offset >= kEntryBase &&
        offset < kEntryBase + cfg_.num_entries * kEntryStride) {
        const unsigned idx =
            static_cast<unsigned>((offset - kEntryBase) / kEntryStride);
        const unsigned word =
            static_cast<unsigned>((offset - kEntryBase) % kEntryStride) / 8;
        const Entry &entry = entries_.get(idx);
        switch (word) {
          case 0: return entry.base();
          case 1: return entry.size();
          case 2:
            return static_cast<std::uint64_t>(entry.perm()) |
                   (static_cast<std::uint64_t>(entry.mode()) << 2) |
                   (entry.locked() ? (std::uint64_t{1} << 7) : 0);
          default: return 0;
        }
    }
    warn("siopmp: MMIO read of unmapped offset %#llx",
         static_cast<unsigned long long>(offset));
    return 0;
}

void
SIopmp::mmioWrite(Addr offset, std::uint64_t value)
{
    using namespace regmap;
    // Each accepted write moves the state version once: through the
    // written structure's change hook, or else in bumpEpoch().
    const std::uint64_t version = state_version_;

    if (offset >= kSrc2MdBase && offset < kSrc2MdBase + cfg_.num_sids * 8) {
        const Sid sid = static_cast<Sid>((offset - kSrc2MdBase) / 8);
        const bool lock = (value >> 63) & 1;
        if (src2md_.setBitmap(sid, value & ~(std::uint64_t{1} << 63))) {
            // The lock bit takes effect only when the bitmap landed:
            // a rejected write must not freeze state it never set.
            if (lock)
                src2md_.lock(sid);
            bumpEpoch(version);
        } else {
            rejectWrite(offset);
        }
        return;
    }
    if (offset >= kMdCfgBase && offset < kMdCfgBase + cfg_.num_mds * 8) {
        const MdIndex md = static_cast<MdIndex>((offset - kMdCfgBase) / 8);
        if (mdcfg_.setTop(md, static_cast<unsigned>(value)))
            bumpEpoch(version);
        else
            rejectWrite(offset);
        return;
    }
    if (offset >= kBlockBitmap &&
        offset < kBlockBitmap + blocks_.numWords() * 8) {
        blocks_.setWord(static_cast<unsigned>((offset - kBlockBitmap) / 8),
                        value);
        bumpEpoch(version);
        return;
    }
    if (offset == kWriteRejects) {
        write_rejects_ = 0;
        return;
    }
    if (offset == kEsid) {
        if ((value >> 63) & 1)
            esid_ = value & ~(std::uint64_t{1} << 63);
        else
            esid_.reset();
        bumpEpoch(version);
        return;
    }
    if (offset == kErrInfo) {
        // Writing clears the latched record (interrupt acknowledge).
        violation_.reset();
        return;
    }
    if (offset >= kCamBase && offset < kCamBase + cam_.numRows() * 8) {
        const Sid sid = static_cast<Sid>((offset - kCamBase) / 8);
        if ((value >> 63) & 1)
            cam_.set(sid, value & ~(std::uint64_t{1} << 63));
        else
            cam_.invalidateSid(sid);
        bumpEpoch(version);
        return;
    }
    if (offset >= kEntryBase &&
        offset < kEntryBase + cfg_.num_entries * kEntryStride) {
        const unsigned idx =
            static_cast<unsigned>((offset - kEntryBase) / kEntryStride);
        const unsigned word =
            static_cast<unsigned>((offset - kEntryBase) % kEntryStride) / 8;
        switch (word) {
          case 0:
            entry_stage_[idx].base = value;
            return;
          case 1:
            entry_stage_[idx].size = value;
            return;
          case 2: {
            // cfg write commits the staged entry atomically.
            const EntryStage stage = entry_stage_[idx];
            const EntryCommit commit = decodeEntryCommit(
                entries_, idx, stage.base, stage.size, value);
            // The MMIO window is the S-mode-reachable path: it must
            // never override an entry lock, so the privilege flag is
            // explicit and false here (the monitor pins rules by
            // locking them and relies on exactly this).
            if (entries_.set(idx, commit.entry, /*machine_mode=*/false)) {
                if (commit.lock)
                    entries_.lock(idx);
                bumpEpoch(version);
            } else {
                rejectWrite(offset);
            }
            // The commit consumes the staged words, accepted or not.
            entry_stage_[idx] = EntryStage{};
            return;
          }
          default:
            return;
        }
    }
    warn("siopmp: MMIO write to unmapped offset %#llx",
         static_cast<unsigned long long>(offset));
}

} // namespace iopmp
} // namespace siopmp
