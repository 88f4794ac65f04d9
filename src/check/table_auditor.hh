/**
 * @file
 * TableAuditor: checks the TableListener dirty-set contract
 * (iopmp/tables.hh) against the live tables it listens to.
 *
 * The auditor keeps a mirror of every entry's verdict-relevant fields
 * and of every entry's owning MD, and collects the dirty ranges and
 * MD masks the callbacks report. auditAndSync() then diffs the live
 * tables against the mirror in one pass: a change the callbacks did
 * not cover means a consumer like CheckAccel would have kept stale
 * derived state, which is a divergence even if no check has tripped
 * over it yet. The replay loop of DifferentialFuzzer runs it after
 * every Write op.
 */

#ifndef CHECK_TABLE_AUDITOR_HH
#define CHECK_TABLE_AUDITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "iopmp/tables.hh"

namespace siopmp {
namespace check {

class TableAuditor final : public iopmp::TableListener
{
  public:
    TableAuditor(const iopmp::EntryTable &entries,
                 const iopmp::MdCfgTable &mdcfg)
        : entries_(entries), mdcfg_(mdcfg), entry_mirror_(entries.size()),
          owner_mirror_(entries.size()), owners_(entries.size())
    {
        for (unsigned j = 0; j < entries_.size(); ++j)
            entry_mirror_[j] = entries_.get(j);
        mdcfg_.mdOfEntries(owner_mirror_);
        entries_.addListener(this);
        mdcfg_.addListener(this);
    }

    ~TableAuditor() override
    {
        entries_.removeListener(this);
        mdcfg_.removeListener(this);
    }

    TableAuditor(const TableAuditor &) = delete;
    TableAuditor &operator=(const TableAuditor &) = delete;

    void
    onEntriesChanged(unsigned lo, unsigned hi) override
    {
        entry_ranges_.push_back({lo, hi});
    }

    void
    onMdWindowsChanged(std::uint64_t md_mask, unsigned lo,
                       unsigned hi) override
    {
        md_mask_ |= md_mask;
        window_ranges_.push_back({lo, hi});
    }

    /**
     * Diff every entry's value and owner against the mirror, writing
     * the mirror where they differ, then clear the collected dirty
     * sets. Returns a description of the lowest-indexed unreported
     * change (a value change before an owner move at the same index),
     * or an empty string when the contract held.
     */
    std::string
    auditAndSync()
    {
        std::string error;
        mdcfg_.mdOfEntries(owners_);
        const unsigned n = entries_.size();
        for (unsigned j = 0; j < n; ++j) {
            const iopmp::Entry &live = entries_.get(j);
            iopmp::Entry &old = entry_mirror_[j];
            // Lock-bit-only changes are deliberately unreported.
            if (live.mode() != old.mode() || live.base() != old.base() ||
                live.size() != old.size() || live.perm() != old.perm()) {
                if (error.empty() && !covered(entry_ranges_, j)) {
                    error = "listener audit: entry " + std::to_string(j) +
                            " changed without a covering onEntriesChanged";
                }
                old = live;
            }
            const int owner = owners_[j];
            const int was = owner_mirror_[j];
            if (owner != was) {
                if (error.empty() &&
                    (!covered(window_ranges_, j) || !mdReported(owner) ||
                     !mdReported(was))) {
                    error = "listener audit: entry " + std::to_string(j) +
                            " moved MD " + std::to_string(was) + " -> " +
                            std::to_string(owner) +
                            " without a covering onMdWindowsChanged";
                }
                owner_mirror_[j] = owner;
            }
        }
        entry_ranges_.clear();
        window_ranges_.clear();
        md_mask_ = 0;
        return error;
    }

  private:
    struct Range {
        unsigned lo, hi;
    };

    static bool
    covered(const std::vector<Range> &ranges, unsigned j)
    {
        for (const Range &r : ranges) {
            if (j >= r.lo && j < r.hi)
                return true;
        }
        return false;
    }

    /** -1 (unowned side of a move) needs no MD bit. */
    bool
    mdReported(int md) const
    {
        return md < 0 || ((md_mask_ >> md) & 1) != 0;
    }

    const iopmp::EntryTable &entries_;
    const iopmp::MdCfgTable &mdcfg_;
    std::vector<iopmp::Entry> entry_mirror_;
    std::vector<int> owner_mirror_;
    std::vector<int> owners_; //!< the live owners, swept each audit
    std::vector<Range> entry_ranges_;
    std::vector<Range> window_ranges_;
    std::uint64_t md_mask_ = 0;
};

} // namespace check
} // namespace siopmp

#endif // CHECK_TABLE_AUDITOR_HH
