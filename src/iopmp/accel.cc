/**
 * @file
 * CheckAccel implementation: plan compilation (boundary flattening +
 * sparse-table RMQ), the accelerated check path and the listener-
 * driven incremental invalidation logic.
 */

#include "iopmp/accel.hh"

#include <algorithm>
#include <set>

#include "iopmp/checker.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** 2^64 as an end coordinate: entry and request intervals are clamped
 * to the addressable space before flattening. Clamping preserves the
 * overlap relation exactly — both interval ends are >= every address
 * that exists — while the final containment/permission adjudication
 * reuses Entry::matches, which implements the unclamped semantics. */
using End = unsigned __int128;

inline constexpr End kTop = End{1} << 64;

/** splitmix-style finalizer for the plan index hash. */
inline std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

CheckAccel::CheckAccel(const EntryTable &entries, const MdCfgTable &mdcfg)
    : entries_(entries), mdcfg_(mdcfg), stats_(kName)
{
    // The counters sit on the per-check hot path: resolve the name ->
    // Scalar map lookups once here instead of per event.
    partial_flushes_ = &stats_.scalar("partial_flushes");
    compiles_ = &stats_.scalar("plan_compiles");
    recompiles_ = &stats_.scalar("plan_recompiles");
    stale_gauge_ = &stats_.scalar("stale_plans");
    entries_.addListener(this);
    mdcfg_.addListener(this);
}

CheckAccel::~CheckAccel()
{
    entries_.removeListener(this);
    mdcfg_.removeListener(this);
}

void
CheckAccel::onEntriesChanged(unsigned lo, unsigned hi)
{
    // Map the rewritten entry range to the MDs that currently own it;
    // entries outside every MD window are invisible to all plans.
    // (Past owners need no handling here: losing or gaining entries is
    // an MDCFG event, reported by onMdWindowsChanged at the time the
    // window moved.)
    invalidateMds(mdcfg_.ownersOf(lo, hi));
}

void
CheckAccel::onMdWindowsChanged(std::uint64_t md_mask, unsigned, unsigned)
{
    invalidateMds(md_mask);
}

void
CheckAccel::invalidateMds(std::uint64_t md_mask)
{
    if (md_mask == 0)
        return;
    for (auto &pair : plans_) {
        Plan &plan = pair.second;
        if ((plan.md_bitmap & md_mask) != 0 && !plan.dirty) {
            plan.dirty = true;
            // !dirty implies compiled (fresh plans start dirty), so
            // this is exactly the compiled-and-now-stale transition.
            ++stale_plans_count_;
        }
    }
    ++*partial_flushes_;
    stale_gauge_->set(static_cast<double>(stale_plans_count_));
    if (trace::on()) {
        trace::Event event;
        event.when = last_seen_now_;
        event.phase = trace::Phase::Instant;
        event.track = kName;
        event.category = "checker";
        event.name = "partial_flush";
        event.arg0 = md_mask;
        event.arg1 = stale_plans_count_;
        trace::emit(event);
    }
}

CheckResult
CheckAccel::check(const CheckRequest &req)
{
    last_seen_now_ = req.now;

    // A zero-length burst never matches nor overlaps any entry
    // (Entry::matches/overlaps both reject len == 0), so the reference
    // walk falls through to the default deny with no deciding entry.
    if (req.len == 0)
        return {};

    return planCheck(planFor(req.md_bitmap, req.now), req);
}

CheckAccel::Plan &
CheckAccel::planFor(std::uint64_t md_bitmap, Cycle now)
{
    Plan *&slot = plan_index_[mix(md_bitmap) & (kPlanIndexSlots - 1)];
    Plan *plan = slot;
    if (plan == nullptr || plan->md_bitmap != md_bitmap) {
        plan = &plans_[md_bitmap];
        plan->md_bitmap = md_bitmap;
        // unordered_map never moves values on rehash, so indexed
        // pointers stay valid while new bitmaps are inserted.
        slot = plan;
    }
    if (plan->dirty) {
        const bool recompile = plan->compiled;
        compile(*plan, md_bitmap);
        plan->compiled = true;
        plan->dirty = false;
        if (recompile) {
            ++*recompiles_;
            SIOPMP_ASSERT(stale_plans_count_ > 0,
                          "stale-plan accounting underflow");
            --stale_plans_count_;
            stale_gauge_->set(static_cast<double>(stale_plans_count_));
        } else {
            ++*compiles_;
        }
        if (trace::on()) {
            trace::Event event;
            event.when = now;
            event.phase = trace::Phase::Instant;
            event.track = kName;
            event.category = "checker";
            event.name = recompile ? "plan_recompile" : "plan_compile";
            event.id = md_bitmap;
            event.arg0 = plan->starts.size();
            event.arg1 = stale_plans_count_;
            trace::emit(event);
        }
    }
    return *plan;
}

void
CheckAccel::compile(Plan &plan, std::uint64_t md_bitmap) const
{
    plan.md_bitmap = md_bitmap;
    plan.starts.clear();
    plan.min_entry.clear();
    plan.rmq.clear();

    const unsigned num_entries = entries_.size();

    std::vector<int> md_of(num_entries);
    mdcfg_.mdOfEntries(md_of);

    // Enabled entries for this bitmap, as clamped [base, end) spans.
    struct Span {
        Addr base;
        End end;
        std::int32_t idx;
    };
    std::vector<Span> spans;
    spans.reserve(num_entries);
    for (unsigned j = 0; j < num_entries; ++j) {
        if (md_of[j] < 0 || !((md_bitmap >> md_of[j]) & 1))
            continue;
        const Entry &entry = entries_.get(j);
        if (!entry.enabled() || entry.size() == 0)
            continue;
        End end = End{entry.base()} + entry.size();
        if (end > kTop)
            end = kTop;
        spans.push_back({entry.base(), end, static_cast<std::int32_t>(j)});
    }

    // Boundary set: 0, every span base, every span end below 2^64.
    std::vector<Addr> &starts = plan.starts;
    starts.push_back(0);
    for (const Span &span : spans) {
        starts.push_back(span.base);
        if (span.end < kTop)
            starts.push_back(static_cast<Addr>(span.end));
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

    // Sweep: entries become active at their base boundary and inactive
    // at their end boundary; each segment records the minimum active
    // index. Entry bases/ends are always boundaries, so an entry
    // active anywhere in a segment covers all of it.
    std::vector<std::pair<Addr, std::int32_t>> adds, removes;
    adds.reserve(spans.size());
    removes.reserve(spans.size());
    for (const Span &span : spans) {
        adds.emplace_back(span.base, span.idx);
        if (span.end < kTop)
            removes.emplace_back(static_cast<Addr>(span.end), span.idx);
    }
    std::sort(adds.begin(), adds.end());
    std::sort(removes.begin(), removes.end());

    const std::size_t num_segments = starts.size();
    plan.min_entry.reserve(num_segments);
    std::multiset<std::int32_t> active;
    std::size_t ai = 0, ri = 0;
    for (std::size_t s = 0; s < num_segments; ++s) {
        const Addr boundary = starts[s];
        while (ri < removes.size() && removes[ri].first == boundary)
            active.erase(active.find(removes[ri++].second));
        while (ai < adds.size() && adds[ai].first == boundary)
            active.insert(adds[ai++].second);
        plan.min_entry.push_back(active.empty() ? kNoEntry
                                                : *active.begin());
    }

    // Sparse table for O(1) range-minimum over segments. Level l
    // holds minima of windows of 2^l segments; level 0 aliases
    // min_entry itself.
    unsigned levels = 1;
    while ((std::size_t{1} << levels) <= num_segments)
        ++levels;
    plan.levels = levels;
    plan.rmq.assign(static_cast<std::size_t>(levels) * num_segments,
                    kNoEntry);
    std::copy(plan.min_entry.begin(), plan.min_entry.end(),
              plan.rmq.begin());
    for (unsigned l = 1; l < levels; ++l) {
        const std::size_t half = std::size_t{1} << (l - 1);
        const std::int32_t *prev = &plan.rmq[(l - 1) * num_segments];
        std::int32_t *cur = &plan.rmq[l * num_segments];
        for (std::size_t i = 0; i + (half << 1) <= num_segments; ++i)
            cur[i] = std::min(prev[i], prev[i + half]);
    }
}

std::int32_t
CheckAccel::lowestOverlap(const Plan &plan, Addr addr, Addr last) const
{
    // Segment of an address: the last boundary at or below it.
    // starts[0] == 0, so the search never underflows.
    const auto begin = plan.starts.begin(), end = plan.starts.end();
    const std::size_t s0 =
        static_cast<std::size_t>(std::upper_bound(begin, end, addr) -
                                 begin) -
        1;
    const std::size_t s1 =
        static_cast<std::size_t>(std::upper_bound(begin, end, last) -
                                 begin) -
        1;
    if (s0 == s1)
        return plan.min_entry[s0];
    const std::size_t num_segments = plan.starts.size();
    const std::size_t span = s1 - s0 + 1;
    const unsigned level = 63 - __builtin_clzll(span);
    const std::int32_t *row = &plan.rmq[level * num_segments];
    return std::min(row[s0], row[s1 + 1 - (std::size_t{1} << level)]);
}

CheckResult
CheckAccel::planCheck(const Plan &plan, const CheckRequest &req) const
{
    // Inclusive last byte of the burst, clamped to the top of the
    // address space (a burst may mathematically extend past 2^64; no
    // address beyond 2^64 - 1 exists, and the clamp preserves the
    // overlap relation).
    Addr last = req.addr + (req.len - 1);
    if (last < req.addr)
        last = ~Addr{0};

    const std::int32_t idx = lowestOverlap(plan, req.addr, last);
    if (idx == kNoEntry)
        return {}; // no overlap anywhere: default deny, entry == -1

    // Adjudicate with the entry's own (unclamped, overflow-safe)
    // containment test so the verdict is bit-identical to firstMatch.
    const Entry &entry = entries_.get(static_cast<unsigned>(idx));
    CheckResult result;
    result.entry = idx;
    if (entry.matches(req.addr, req.len)) {
        result.allowed = permits(entry.perm(), req.perm);
    } else {
        result.allowed = false;
        result.partial = true;
    }
    return result;
}

} // namespace iopmp
} // namespace siopmp
