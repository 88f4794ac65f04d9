/**
 * @file
 * PipelinedChecker implementation.
 */

#include "iopmp/pipelined_checker.hh"

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

PipelinedChecker::PipelinedChecker(const EntryTable &entries,
                                   const MdCfgTable &mdcfg, unsigned stages,
                                   bool tree_units, unsigned arity)
    : CheckerLogic(entries, mdcfg),
      stages_(stages),
      tree_units_(tree_units),
      unit_(entries, mdcfg, arity)
{
    SIOPMP_ASSERT(stages >= 1, "pipeline needs at least one stage");
}

std::pair<unsigned, unsigned>
PipelinedChecker::stageWindow(unsigned s) const
{
    SIOPMP_ASSERT(s < stages_, "stage index out of range");
    const unsigned total = entries_.size();
    const unsigned per_stage = (total + stages_ - 1) / stages_;
    const unsigned lo = s * per_stage;
    const unsigned hi = lo + per_stage < total ? lo + per_stage : total;
    return {lo < total ? lo : total, hi};
}

CheckResult
PipelinedChecker::check(const CheckRequest &req) const
{
    // Stage order matches entry priority: stage 0 holds the
    // lowest-index (highest-priority) window, so the first stage that
    // produces a verdict wins; later stages only matter if all earlier
    // ones found no overlap. This mirrors the forwarded intermediate
    // result registers of the RTL.
    for (unsigned s = 0; s < stages_; ++s) {
        auto [lo, hi] = stageWindow(s);
        CheckResult stage_result =
            tree_units_ ? unit_.reduceWindow(req, lo, hi)
                        : firstMatch(req, lo, hi);
        if (stage_result.entry >= 0)
            return stage_result;
    }
    return {};
}

} // namespace iopmp
} // namespace siopmp
