/**
 * @file
 * Shared checker helpers, the factory and the unit's window walk.
 */

#include "iopmp/checker.hh"

#include "iopmp/linear_checker.hh"
#include "iopmp/pipelined_checker.hh"
#include "iopmp/tree_checker.hh"
#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

CheckResult
CheckerLogic::firstMatch(const CheckRequest &req, unsigned lo,
                         unsigned hi) const
{
    for (unsigned idx = lo; idx < hi && idx < entries_.size(); ++idx) {
        if (!entryEnabledFor(idx, req.md_bitmap))
            continue;
        const Entry &entry = entries_.get(idx);
        if (entry.matches(req.addr, req.len)) {
            CheckResult result;
            result.entry = static_cast<int>(idx);
            result.allowed = permits(entry.perm(), req.perm);
            return result;
        }
        if (entry.overlaps(req.addr, req.len)) {
            // Partial coverage: a burst straddling a rule boundary is
            // always rejected (PMP heritage).
            CheckResult result;
            result.entry = static_cast<int>(idx);
            result.allowed = false;
            result.partial = true;
            return result;
        }
    }
    return {}; // no overlap in this window
}

CheckResult
matchWindows(const EntryTable &entries, const MdCfgTable &mdcfg,
             const CheckRequest &req)
{
    for (std::uint64_t mds = req.md_bitmap; mds != 0; mds &= mds - 1) {
        const MdIndex md = static_cast<MdIndex>(__builtin_ctzll(mds));
        if (md >= mdcfg.numMds())
            break; // no entry belongs to an MD past the table
        const MdCfgTable::Window window = mdcfg.window(md);
        for (unsigned idx = window.lo; idx < window.hi; ++idx) {
            const Entry &entry = entries.get(idx);
            if (!entry.overlaps(req.addr, req.len))
                continue;
            CheckResult result;
            result.entry = static_cast<int>(idx);
            if (entry.matches(req.addr, req.len))
                result.allowed = permits(entry.perm(), req.perm);
            else
                result.partial = true; // straddles the rule: deny
            return result;
        }
    }
    return {}; // no overlap in any window
}

const char *
checkerKindName(CheckerKind kind)
{
    switch (kind) {
      case CheckerKind::Linear: return "linear";
      case CheckerKind::Tree: return "tree";
      case CheckerKind::PipelineLinear: return "pipe-linear";
      case CheckerKind::PipelineTree: return "pipe-tree";
    }
    return "?";
}

std::unique_ptr<CheckerLogic>
makeChecker(CheckerKind kind, unsigned stages, const EntryTable &entries,
            const MdCfgTable &mdcfg)
{
    std::unique_ptr<CheckerLogic> checker;
    switch (kind) {
      case CheckerKind::Linear:
        checker = std::make_unique<LinearChecker>(entries, mdcfg);
        break;
      case CheckerKind::Tree:
        checker = std::make_unique<TreeChecker>(entries, mdcfg);
        break;
      case CheckerKind::PipelineLinear:
        checker = std::make_unique<PipelinedChecker>(entries, mdcfg, stages,
                                                     /*tree_units=*/false);
        break;
      case CheckerKind::PipelineTree:
        checker = std::make_unique<PipelinedChecker>(entries, mdcfg, stages,
                                                     /*tree_units=*/true);
        break;
    }
    if (!checker)
        panic("unknown checker kind");
    return checker;
}

} // namespace iopmp
} // namespace siopmp
