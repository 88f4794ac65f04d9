/**
 * @file
 * The two walks and the checker geometry.
 */

#include "iopmp/checker.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

namespace {

/** The verdict of entry @p idx, which overlaps @p req: full
 * containment checks the permission, partial overlap denies. */
CheckResult
decide(const Entry &entry, unsigned idx, const CheckRequest &req)
{
    CheckResult result;
    result.entry = static_cast<int>(idx);
    if (entry.matches(req.addr, req.len))
        result.allowed = permits(entry.perm(), req.perm);
    else
        result.partial = true; // straddles the rule: deny (PMP heritage)
    return result;
}

} // namespace

CheckResult
firstMatch(const EntryTable &entries, const MdCfgTable &mdcfg,
           const CheckRequest &req)
{
    for (unsigned idx = 0; idx < entries.size(); ++idx) {
        const int md = mdcfg.mdOfEntry(idx);
        if (md < 0 || !((req.md_bitmap >> md) & 1))
            continue;
        const Entry &entry = entries.get(idx);
        if (entry.overlaps(req.addr, req.len))
            return decide(entry, idx, req);
    }
    return {}; // no overlap: default deny
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
            if (entry.overlaps(req.addr, req.len))
                return decide(entry, idx, req);
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

const char *
CheckerGeometry::validate() const
{
    if (stages < 1)
        return "stages must be >= 1";
    if (stages > 1 && kind != CheckerKind::PipelineLinear &&
        kind != CheckerKind::PipelineTree) {
        return "more than one stage requires a pipelined checker kind "
               "(PipelineLinear or PipelineTree)";
    }
    return nullptr;
}

unsigned
CheckerGeometry::widestStageWindow() const
{
    SIOPMP_ASSERT(stages >= 1, "checker geometry without a stage");
    return (entries + stages - 1) / stages;
}

unsigned
CheckerGeometry::treeNodeInputs() const
{
    return std::max(2u, std::min(arity, widestStageWindow()));
}

unsigned
CheckerGeometry::stageOf(unsigned entry) const
{
    SIOPMP_ASSERT(entry < entries, "entry outside the checker");
    return entry / widestStageWindow();
}

} // namespace iopmp
} // namespace siopmp
