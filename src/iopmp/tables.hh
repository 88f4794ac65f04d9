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
 * Mutation observability: EntryTable and MdCfgTable accept
 * TableListener registrations and report *which* entries / memory
 * domains every successful mutation touched — the dirty-set contract
 * consumers with derived state (compiled match plans, verdict caches)
 * build incremental invalidation on. Src2MdTable reports every bitmap
 * change through a single change hook (its owning SIopmp's).
 */

#ifndef IOPMP_TABLES_HH
#define IOPMP_TABLES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "iopmp/entry.hh"
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
 * Observer of table mutations. The tables call back on every
 * *successful*, *verdict-relevant* mutation — rejected writes (locks,
 * monotonicity) and lock-bit changes report nothing, so a listener
 * sees exactly the events that can change an authorization outcome.
 *
 * Delivery guarantees:
 *  - callbacks fire synchronously inside the mutating call, after the
 *    table state has been updated (a callback reading the table sees
 *    the post-mutation state);
 *  - every MMIO path and every direct call routes through the same
 *    table mutators, so listening is complete by construction;
 *  - a callback must not register or unregister listeners.
 */
class TableListener
{
  public:
    virtual ~TableListener() = default;

    /** Entries [lo, hi) of the EntryTable were successfully
     * (re)written. Lock-bit-only changes are not reported: a lock
     * never changes a verdict, only future writability. */
    virtual void onEntriesChanged(unsigned lo, unsigned hi) = 0;

    /**
     * MDCFG top writes moved entries [lo, hi) between memory-domain
     * windows. @p md_mask has a bit set for every MD whose effective
     * entry window intersected the moved range before *or* after the
     * write — i.e. every MD that may have gained or lost entries.
     */
    virtual void onMdWindowsChanged(std::uint64_t md_mask, unsigned lo,
                                    unsigned hi) = 0;

    /** The table was reset wholesale (resetAll): discard every piece
     * of derived state. */
    virtual void onTableReset() = 0;
};

/**
 * Hardware entry register file.
 */
class EntryTable
{
  public:
    explicit EntryTable(unsigned num_entries);

    unsigned size() const { return static_cast<unsigned>(entries_.size()); }

    const Entry &get(unsigned idx) const;

    /**
     * Register @p listener for mutation callbacks (see TableListener).
     * Const because observer membership is not logical table state —
     * read-only consumers (checkers, accelerators holding const refs)
     * must be able to subscribe.
     */
    void addListener(TableListener *listener) const;
    void removeListener(TableListener *listener) const;

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

    /** Lock entry @p idx (sticky until reset). */
    void lock(unsigned idx);

    /** Number of writes since construction (drives Fig 13 costs). */
    std::uint64_t writeCount() const { return writes_; }

    /** Full reset (simulation-only; real hardware resets on POR). */
    void resetAll();

  private:
    void notifyChanged(unsigned lo, unsigned hi);
    void notifyReset();

    std::vector<Entry> entries_;
    std::uint64_t writes_ = 0;
    mutable std::vector<TableListener *> listeners_;
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

    /** Associate/deassociate MD @p md with @p sid. Respects the lock. */
    bool associate(Sid sid, MdIndex md);
    bool deassociate(Sid sid, MdIndex md);

    /** Replace the whole bitmap (used by cold-device mounting). */
    bool setBitmap(Sid sid, std::uint64_t bitmap);

    std::uint64_t bitmap(Sid sid) const;
    bool associated(Sid sid, MdIndex md) const;

    bool locked(Sid sid) const;
    void lock(Sid sid);

    void resetAll();

    /**
     * Install @p hook, called after every successful bitmap change
     * (associate, deassociate, setBitmap, resetAll) — not after lock(),
     * which never changes a verdict. The owning SIopmp moves its state
     * version through it, so direct callers are covered too.
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

    /** First entry index belonging to @p md. */
    unsigned lo(MdIndex md) const;

    /** One past the last entry index belonging to @p md. */
    unsigned hi(MdIndex md) const { return top(md); }

    /** Memory domain owning entry @p idx, or -1 if unassigned. */
    int mdOfEntry(unsigned idx) const;

    /**
     * Bitmap of MDs whose *effective* entry window intersects
     * [lo, hi). The effective window accounts for unprogrammed (zero)
     * tops between programmed ones: MD m owns [covered, T_m) where
     * covered is the highest top below m — the same rule mdOfEntry
     * applies per entry, evaluated for a whole range in O(mds).
     */
    std::uint64_t ownersOf(unsigned lo, unsigned hi) const;

    /** Register a mutation listener (see TableListener and
     * EntryTable::addListener for the const rationale). */
    void addListener(TableListener *listener) const;
    void removeListener(TableListener *listener) const;

    void resetAll();

  private:
    void notifyWindows(std::uint64_t md_mask, unsigned lo, unsigned hi);
    void notifyReset();

    std::vector<unsigned> tops_;
    unsigned num_entries_;
    mutable std::vector<TableListener *> listeners_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_TABLES_HH
