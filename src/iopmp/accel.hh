/**
 * @file
 * Check-path acceleration layer: compiled per-bitmap match plans.
 *
 * The functional authorization semantics (checker.hh) boil down to one
 * question per request: *what is the lowest-index enabled entry whose
 * region overlaps [addr, addr+len)?* That entry decides — full
 * containment checks the permission bits, partial overlap denies, no
 * such entry denies by default. Every checker microarchitecture
 * (linear, tree, pipelined) computes exactly this, so one functional
 * accelerator serves all of them without changing any verdict.
 *
 * Compiled match plan. On the first check against a given MD bitmap
 * after a configuration change, the live entry table is lowered into
 * a flat interval index: the enabled entries' boundary addresses split
 * the address space into segments, each segment knows the minimum
 * entry index covering it, and a sparse table provides O(1)
 * range-minimum over segments. A check is then two binary searches
 * plus one range-min — branch-light O(log entries) instead of the
 * O(entries x mds) linear scan with per-entry mode decoding.
 *
 * Incremental invalidation. CheckAccel registers as a TableListener
 * on the EntryTable and MdCfgTable (tables.hh): every successful
 * mutation reports the entry range / MD set it touched, through the
 * MMIO window and direct calls alike — completeness by construction.
 * A mutation marks dirty only the plans whose bitmap intersects the
 * dirty MD set; plans for disjoint MD bitmaps stay valid, and stale
 * plans recompile lazily on their next use, off the mutation path.
 *
 * What deliberately does NOT invalidate: SRC2MD changes (the MD
 * bitmap is part of the request and therefore of every plan key), and
 * CAM / eSID / block-bitmap state (all act before the checker — SID
 * resolution and §4.1 blocking — and never reach this layer). The
 * §4.1 blocking-window atomicity argument is untouched: authorize()
 * consults the block bit before the accelerated check, and any
 * entry/MDCFG write inside the window dirties the affected plans
 * before the first post-window check.
 *
 * An SIopmp owns exactly one, built with the unit, and authorizes
 * through it; the unit's CheckerLogic is the microarchitecture model
 * whose walk the tests compare this layer against.
 */

#ifndef IOPMP_ACCEL_HH
#define IOPMP_ACCEL_HH

#include <array>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "iopmp/tables.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {
namespace iopmp {

struct CheckRequest;
struct CheckResult;

class CheckAccel final : public TableListener
{
  public:
    //! Name of the stats group and of the trace track.
    static constexpr const char *kName = "check_accel";

    /** Registers as a mutation listener on both tables. */
    CheckAccel(const EntryTable &entries, const MdCfgTable &mdcfg);
    ~CheckAccel() override;

    CheckAccel(const CheckAccel &) = delete;
    CheckAccel &operator=(const CheckAccel &) = delete;

    /**
     * Authorize one access. Bit-identical to the reference
     * first-match semantics (CheckerLogic::firstMatch over the whole
     * table): same deciding entry index, same allowed/partial flags.
     */
    CheckResult check(const CheckRequest &req);

    /**
     * Account check() calls that repeat an earlier one verbatim with
     * no table mutation since (a CheckerNode re-polling a held Allow,
     * see SIopmp::creditPolls): move the last-seen cycle to @p last,
     * the cycle of the last repeat, as check() does. That cycle
     * stamps the next invalidation instant.
     */
    void creditRepeat(Cycle last) { last_seen_now_ = last; }

    // ---- TableListener ---------------------------------------------------

    void onEntriesChanged(unsigned lo, unsigned hi) override;
    void onMdWindowsChanged(std::uint64_t md_mask, unsigned lo,
                            unsigned hi) override;

    // ---- observability ---------------------------------------------------

    //! Targeted invalidations: only plans whose bitmap intersects the
    //! mutation's dirty-MD set.
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
     * over min_entry for O(1) range minimum. dirty marks the plan for
     * lazy recompilation on its next use.
     */
    struct Plan {
        std::uint64_t md_bitmap = 0;
        bool compiled = false;
        bool dirty = true;
        std::vector<Addr> starts;
        std::vector<std::int32_t> min_entry;
        std::vector<std::int32_t> rmq; //!< levels * num_segments
        unsigned levels = 0;
    };

    /** Mark the plans intersecting @p md_mask dirty (one partial
     * flush). */
    void invalidateMds(std::uint64_t md_mask);

    Plan &planFor(std::uint64_t md_bitmap, Cycle now);
    void compile(Plan &plan, std::uint64_t md_bitmap) const;

    /** Lowest overlapping enabled entry for [addr, last] (inclusive
     * last byte), or kNoEntry. */
    std::int32_t lowestOverlap(const Plan &plan, Addr addr,
                               Addr last) const;

    CheckResult planCheck(const Plan &plan, const CheckRequest &req) const;

    const EntryTable &entries_;
    const MdCfgTable &mdcfg_;

    std::unordered_map<std::uint64_t, Plan> plans_;
    //! Direct-mapped bitmap -> plan pointers (hashed); covers the
    //! common same-bitmap burst and round-robin SID streams alike.
    std::array<Plan *, kPlanIndexSlots> plan_index_{};

    std::uint64_t stale_plans_count_ = 0;
    //! Cycle of the most recent check; timestamps invalidation trace
    //! instants (mutations arrive without cycle context).
    Cycle last_seen_now_ = 0;

    stats::Group stats_;
    stats::Scalar *partial_flushes_;
    stats::Scalar *compiles_;
    stats::Scalar *recompiles_;
    stats::Scalar *stale_gauge_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_ACCEL_HH
