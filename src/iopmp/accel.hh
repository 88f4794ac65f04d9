/**
 * @file
 * Check-path acceleration layer: compiled per-bitmap match plans plus
 * a direct-mapped verdict cache in front of them.
 *
 * The functional authorization semantics (checker.hh) boil down to one
 * question per request: *what is the lowest-index enabled entry whose
 * region overlaps [addr, addr+len)?* That entry decides — full
 * containment checks the permission bits, partial overlap denies, no
 * such entry denies by default. Every checker microarchitecture
 * (linear, tree, pipelined) computes exactly this, so one functional
 * accelerator serves all of them without changing any verdict.
 *
 * Level 1 — compiled match plan. On the first check against a given
 * MD bitmap after a configuration change, the live entry table is
 * lowered into a flat interval index: the enabled entries' boundary
 * addresses split the address space into segments, each segment knows
 * the minimum entry index covering it, and a sparse table provides
 * O(1) range-minimum over segments. A check is then two binary
 * searches plus one range-min — branch-light O(log entries) instead of
 * the O(entries x mds) linear scan with per-entry mode decoding.
 *
 * Level 2 — verdict cache. A small direct-mapped cache keyed by the
 * full request tuple (md_bitmap, addr, len, perm) sits in front of the
 * plan, mirroring the TLB-style lookup structure the paper's pipelined
 * checker implies (§4.1). The tag is the exact tuple — never a
 * superset — so a hit returns a verdict that is bit-identical to
 * recomputation by construction.
 *
 * Incremental invalidation. CheckAccel registers as a TableListener
 * on the EntryTable and MdCfgTable (tables.hh): every successful
 * mutation reports the entry range / MD set it touched, through the
 * MMIO window and direct calls alike — completeness by construction.
 * Each MD carries a salt; a plan's salt is the sum of its MDs' salts
 * (plus a global salt bumped only by whole-table resets), folded into
 * every verdict-cache line at fill time. A mutation bumps only the
 * affected MDs' salts and marks only the plans whose bitmap
 * intersects the dirty set — plans and cache lines for disjoint MD
 * bitmaps stay valid, and stale plans recompile lazily on their next
 * use, off the mutation path. Per-bitmap salts are monotone (every
 * term only grows) and lines compare the bitmap exactly, so a stale
 * line can never false-hit.
 *
 * What deliberately does NOT invalidate: SRC2MD changes (the MD
 * bitmap is part of the request and therefore of every cache key and
 * plan key), and CAM / eSID / block-bitmap state (all act before the
 * checker — SID resolution and §4.1 blocking — and never reach this
 * layer). The §4.1 blocking-window atomicity argument is untouched:
 * authorize() consults the block bit before the accelerated check,
 * and any entry/MDCFG write inside the window dirties the affected
 * plans before the first post-window check.
 *
 * Modes. AccelMode selects how much of the layer is active: Off (the
 * checker's own microarchitectural walk), Plans (compiled plans, no
 * verdict cache), PlansAndCache (both; the default). The process-wide
 * default comes from SIOPMP_ACCEL_MODE (off | plans | plans+cache)
 * and can be overridden programmatically (setDefaultMode) or per
 * instance (CheckerLogic::setAccelMode / SIopmp::setAccelMode). A unit
 * has one: all its CheckerNodes check through the SIopmp's checker.
 */

#ifndef IOPMP_ACCEL_HH
#define IOPMP_ACCEL_HH

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "iopmp/tables.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

struct CheckRequest;
struct CheckResult;

/**
 * How much of the check-path acceleration layer is active. One knob
 * instead of a boolean: all-or-nothing cannot express "plans without
 * the verdict cache", which is the interesting mid-point for area
 * studies.
 */
enum class AccelMode : std::uint8_t {
    Off,           //!< the checker's own microarchitectural walk
    Plans,         //!< compiled match plans, no verdict cache
    PlansAndCache, //!< plans fronted by the verdict cache (default)
};

/** Canonical spelling: "off", "plans", "plans+cache". */
const char *accelModeName(AccelMode mode);

/** Parse "off" / "plans" / "plans+cache" (alias "plans_and_cache").
 * Returns false (and leaves @p out alone) on anything else. */
bool parseAccelMode(const std::string &text, AccelMode *out);

class CheckAccel final : public TableListener
{
  public:
    //! Name of the stats group and of the trace track.
    static constexpr const char *kName = "check_accel";

    /** Registers as a mutation listener on both tables; @p mode must
     * not be Off (an owner models Off by not having a CheckAccel). */
    CheckAccel(const EntryTable &entries, const MdCfgTable &mdcfg,
               AccelMode mode = AccelMode::PlansAndCache);
    ~CheckAccel() override;

    CheckAccel(const CheckAccel &) = delete;
    CheckAccel &operator=(const CheckAccel &) = delete;

    /**
     * Authorize one access. Bit-identical to the reference
     * first-match semantics (CheckerLogic::firstMatch over the whole
     * table): same deciding entry index, same allowed/partial flags.
     */
    CheckResult check(const CheckRequest &req);

    AccelMode mode() const { return mode_; }

    /**
     * Account @p repeats check() calls that repeat an earlier one
     * verbatim with no table mutation since (a CheckerNode re-polling
     * a held Allow, see SIopmp::creditPolls): count one cache hit each
     * when the cache is on, and move the last-seen cycle to @p last,
     * the cycle of the last repeat, as check() does. A hit means
     * "answered without a plan walk": another node's fill may have
     * evicted the line, so a real re-check could miss.
     */
    void
    creditRepeat(std::uint64_t repeats, Cycle last)
    {
        last_seen_now_ = last;
        if (mode_ == AccelMode::PlansAndCache)
            *hits_ += static_cast<double>(repeats);
    }

    /** Switch between Plans and PlansAndCache (Off is modelled by
     * destroying the instance — see CheckerLogic::setAccelMode).
     * Compiled plans survive; cache lines revalidate via their salts. */
    void setMode(AccelMode mode);

    /**
     * Process-wide default mode, applied by makeChecker to every
     * factory-built checker. Resolution order: setDefaultMode
     * override, SIOPMP_ACCEL_MODE (off | plans | plans+cache), then
     * PlansAndCache. Re-read on every call so tests can toggle the
     * environment.
     */
    static AccelMode defaultMode();

    /** Programmatic override of defaultMode (CLIs); nullopt returns
     * resolution to the environment. */
    static void setDefaultMode(std::optional<AccelMode> mode);

    // ---- TableListener ---------------------------------------------------

    void onEntriesChanged(unsigned lo, unsigned hi) override;
    void onMdWindowsChanged(std::uint64_t md_mask, unsigned lo,
                            unsigned hi) override;
    void onTableReset() override;

    // ---- observability ---------------------------------------------------

    std::uint64_t cacheHits() const { return hits_->value(); }
    std::uint64_t cacheMisses() const { return misses_->value(); }
    //! Whole-layer invalidations (table resets): every line and plan.
    std::uint64_t fullFlushes() const { return full_flushes_->value(); }
    //! Targeted invalidations: only plans/lines whose bitmap
    //! intersects the mutation's dirty-MD set.
    std::uint64_t partialFlushes() const
    {
        return partial_flushes_->value();
    }
    //! First-time compiles of a new MD bitmap's plan.
    std::uint64_t planCompiles() const { return compiles_->value(); }
    //! Lazy rebuilds of plans dirtied by a mutation.
    std::uint64_t planRecompiles() const { return recompiles_->value(); }
    //! Plans currently dirty and awaiting lazy recompile (gauge).
    std::uint64_t stalePlans() const { return stale_plans_count_; }

    stats::Group &statsGroup() { return stats_; }

    /** Number of verdict-cache lines (power of two). */
    static constexpr std::size_t kCacheLines = 4096;

  private:
    //! Sentinel "no entry overlaps this segment".
    static constexpr std::int32_t kNoEntry =
        std::numeric_limits<std::int32_t>::max();

    //! Direct-mapped bitmap -> Plan* index slots (power of two). Keeps
    //! the per-check plan lookup off the unordered_map for workloads
    //! alternating between many SIDs' bitmaps.
    static constexpr std::size_t kPlanIndexSlots = 256;

    /**
     * Compiled interval index for one MD bitmap. Segment i spans
     * [starts[i], starts[i+1]) (the last segment extends to 2^64);
     * min_entry[i] is the lowest enabled entry index covering any part
     * of segment i, or kNoEntry. rmq is a level-major sparse table
     * over min_entry for O(1) range minimum. salt is the per-bitmap
     * validity token folded into cache lines (global salt + the sum of
     * the bitmap's MD salts at compile time); dirty marks the plan for
     * lazy recompilation on its next use.
     */
    struct Plan {
        std::uint64_t md_bitmap = 0;
        std::uint64_t salt = 0;
        bool compiled = false;
        bool dirty = true;
        std::vector<Addr> starts;
        std::vector<std::int32_t> min_entry;
        std::vector<std::int32_t> rmq; //!< levels * num_segments
        unsigned levels = 0;
    };

    /** One direct-mapped verdict-cache line. Valid iff salt matches
     * the current salt of the md_bitmap's plan: a mutation touching
     * any MD in the bitmap advances that salt, so only intersecting
     * lines die. */
    struct Line {
        std::uint64_t salt = 0;
        std::uint64_t md_bitmap = 0;
        Addr addr = 0;
        Addr len = 0;
        Perm perm = Perm::None;
        std::int32_t entry = -1;
        bool allowed = false;
        bool partial = false;
    };

    /** Bump the salts of @p md_mask's MDs and mark intersecting plans
     * dirty (one partial flush). */
    void invalidateMds(std::uint64_t md_mask);

    /** Whole-layer invalidation (table reset): one full flush. */
    void fullFlush();

    /** Current validity salt for @p md_bitmap. */
    std::uint64_t saltFor(std::uint64_t md_bitmap) const;

    Plan &planFor(std::uint64_t md_bitmap, Cycle now);
    void compile(Plan &plan, std::uint64_t md_bitmap) const;

    /** Lowest overlapping enabled entry for [addr, last] (inclusive
     * last byte), or kNoEntry. */
    std::int32_t lowestOverlap(const Plan &plan, Addr addr,
                               Addr last) const;

    CheckResult planCheck(const Plan &plan, const CheckRequest &req) const;

    const EntryTable &entries_;
    const MdCfgTable &mdcfg_;
    AccelMode mode_;

    std::uint64_t global_salt_ = 1;
    std::vector<std::uint64_t> md_salts_;

    std::unordered_map<std::uint64_t, Plan> plans_;
    //! Direct-mapped bitmap -> plan pointers (hashed); covers the
    //! common same-bitmap burst and round-robin SID streams alike.
    std::array<Plan *, kPlanIndexSlots> plan_index_{};

    std::vector<Line> lines_;

    std::uint64_t stale_plans_count_ = 0;
    //! Cycle of the most recent check; timestamps invalidation trace
    //! instants (mutations arrive without cycle context).
    Cycle last_seen_now_ = 0;

    stats::Group stats_;
    stats::Scalar *hits_;
    stats::Scalar *misses_;
    stats::Scalar *full_flushes_;
    stats::Scalar *partial_flushes_;
    stats::Scalar *compiles_;
    stats::Scalar *recompiles_;
    stats::Scalar *stale_gauge_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_ACCEL_HH
