/**
 * @file
 * The three IOPMP configuration tables of Fig 1:
 *
 *  - EntryTable:  priority-ordered IOPMP entries (rules).
 *  - Src2MdTable: per-SID register with a sticky lock bit and a bitmap
 *                 of associated memory domains (MD[62:0]).
 *  - MdCfgTable:  per-MD register MD_m.T giving the top entry index of
 *                 memory domain m; entry j belongs to MD m iff
 *                 MD_{m-1}.T <= j < MD_m.T (MD 0 owns j < MD_0.T).
 *
 * Mutation observability: each table reports every change that can
 * alter a verdict through one change hook, its owning SIopmp's, so
 * direct calls are covered as well as the MMIO window.
 */

#ifndef IOPMP_TABLES_HH
#define IOPMP_TABLES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "iopmp/entry.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

/** Architectural sizing (Table 2 defaults; all overridable). */
struct IopmpConfig {
    unsigned num_entries = 1024; //!< hardware IOPMP entries
    unsigned num_sids = 64;      //!< in-SoC source IDs
    unsigned num_mds = 63;       //!< memory domains (bitmap MD[62:0])

    /** MD index reserved for mounted cold devices (§4.2). */
    MdIndex coldMd() const { return num_mds - 1; }

    /**
     * Structural validity check. Returns nullptr when the sizing is
     * usable, or a human-readable description of the first problem —
     * e.g. num_sids == 1 leaves no hot SID beside the reserved cold
     * slot, which would otherwise surface as an obscure CAM assert
     * deep inside SIopmp's constructor.
     */
    const char *validate() const;
};

/**
 * Hardware entry register file.
 */
class EntryTable
{
  public:
    explicit EntryTable(unsigned num_entries);

    unsigned size() const { return static_cast<unsigned>(entries_.size()); }

    const Entry &
    get(unsigned idx) const
    {
        SIOPMP_ASSERT(idx < entries_.size(), "entry index out of range");
        return entries_[idx];
    }

    /**
     * Write entry @p idx. Fails (returns false) if the existing entry
     * is locked and @p machine_mode is false. The default is the
     * unprivileged path: callers acting as the machine-mode monitor
     * must ask for the override explicitly, so a forgotten flag can
     * never silently rewrite a locked rule.
     */
    bool set(unsigned idx, const Entry &entry, bool machine_mode = false);

    /** Clear (disable) entry @p idx; same lock rule as set(). */
    bool clear(unsigned idx, bool machine_mode = false);

    /** Lock entry @p idx (sticky for the life of the table). */
    void lock(unsigned idx);

    /** Number of writes since construction (drives Fig 13 costs). */
    std::uint64_t writeCount() const { return writes_; }

    /**
     * Install @p hook, called after every accepted set() or clear() —
     * not after a lock-rejected write or lock(), which never changes
     * a verdict. The owning SIopmp moves its state version through it,
     * so direct callers are covered too.
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

    std::vector<Entry> entries_;
    std::uint64_t writes_ = 0;
    std::function<void()> on_change_;
};

/**
 * SRC2MD table: SID -> memory-domain bitmap, with per-register sticky
 * lock (SRC_x MD.L).
 */
class Src2MdTable
{
  public:
    Src2MdTable(unsigned num_sids, unsigned num_mds);

    unsigned numSids() const { return static_cast<unsigned>(rows_.size()); }
    unsigned numMds() const { return num_mds_; }

    /** Associate MD @p md with @p sid. Respects the lock. */
    bool associate(Sid sid, MdIndex md);

    /** Replace the whole bitmap (used by cold-device mounting). */
    bool setBitmap(Sid sid, std::uint64_t bitmap);

    std::uint64_t bitmap(Sid sid) const;
    bool associated(Sid sid, MdIndex md) const;

    bool locked(Sid sid) const;
    void lock(Sid sid);

    /**
     * Install @p hook, called after every successful bitmap change
     * (associate, setBitmap) — not after lock(), which never changes
     * a verdict. The owning SIopmp moves its state version through it,
     * so direct callers are covered too.
     */
    void setChangeHook(std::function<void()> hook)
    {
        on_change_ = std::move(hook);
    }

  private:
    struct Row {
        std::uint64_t md_bitmap = 0;
        bool lock = false;
    };

    bool validSid(Sid sid) const { return sid < rows_.size(); }

    void changed()
    {
        if (on_change_)
            on_change_();
    }

    std::vector<Row> rows_;
    unsigned num_mds_;
    std::function<void()> on_change_;
};

/**
 * MDCFG table: memory domain -> contiguous slice of the entry table.
 * The T values must be monotonically non-decreasing; writes violating
 * that are rejected.
 */
class MdCfgTable
{
  public:
    MdCfgTable(unsigned num_mds, unsigned num_entries);

    unsigned numMds() const { return static_cast<unsigned>(tops_.size()); }

    /** Set MD_m.T. Rejected if it breaks monotonicity or exceeds the
     * entry count. */
    bool setTop(MdIndex md, unsigned top);

    unsigned top(MdIndex md) const;

    /** Entries [lo, hi) of one memory domain. */
    struct Window {
        unsigned lo = 0;
        unsigned hi = 0;
    };

    /**
     * The entries MD @p md owns: hi is MD_m.T, and lo the nearest
     * non-zero top below m (0 if none), so an unprogrammed MD_{m-1}
     * opens no gap — the rule mdOfEntry applies per entry. Non-zero
     * tops are monotone (setTop), so the windows of ascending MDs
     * ascend and never overlap. Empty (lo == hi) while MD_m.T is 0 or
     * equals lo.
     */
    Window
    window(MdIndex md) const
    {
        SIOPMP_ASSERT(md < tops_.size(), "MD index out of range");
        const unsigned hi = tops_[md];
        if (hi == 0)
            return {};
        for (MdIndex below = md; below-- > 0;) {
            if (tops_[below] != 0)
                return {tops_[below], hi};
        }
        return {0, hi};
    }

    /** Memory domain owning entry @p idx, or -1 if unassigned. */
    int mdOfEntry(unsigned idx) const;

    /**
     * Install @p hook, called after every accepted setTop() that moves
     * a top — not after a rejected or same-value write, which moves
     * no entry between windows. The owning SIopmp moves its state
     * version through it, so direct callers are covered too.
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

    std::vector<unsigned> tops_;
    unsigned num_entries_;
    std::function<void()> on_change_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_TABLES_HH
