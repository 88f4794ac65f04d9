/**
 * @file
 * TreeChecker implementation. The reduction is written as an explicit
 * level-by-level tree (not a linear scan with early exit) so that the
 * code mirrors the RTL structure it models and so that the property
 * tests exercise the actual merge operator.
 */

#include "iopmp/tree_checker.hh"

#include <vector>

#include "sim/logging.hh"

namespace siopmp {
namespace iopmp {

TreeChecker::TreeChecker(const EntryTable &entries, const MdCfgTable &mdcfg,
                         unsigned arity)
    : CheckerLogic(entries, mdcfg), arity_(arity)
{
    SIOPMP_ASSERT(arity >= 2, "tree arity must be >= 2");
}

TreeChecker::Verdict
TreeChecker::leafVerdict(unsigned idx, const CheckRequest &req) const
{
    Verdict v;
    if (!entryEnabledFor(idx, req.md_bitmap))
        return v;
    const Entry &entry = entries_.get(idx);
    if (entry.matches(req.addr, req.len)) {
        v.entry = static_cast<int>(idx);
        v.allowed = permits(entry.perm(), req.perm);
    } else if (entry.overlaps(req.addr, req.len)) {
        v.entry = static_cast<int>(idx);
        v.allowed = false;
        v.partial = true;
    }
    return v;
}

TreeChecker::Verdict
TreeChecker::merge(const Verdict &a, const Verdict &b)
{
    if (a.entry < 0)
        return b;
    if (b.entry < 0)
        return a;
    return a.entry < b.entry ? a : b;
}

CheckResult
TreeChecker::reduceWindow(const CheckRequest &req, unsigned lo,
                          unsigned hi) const
{
    if (hi > entries_.size())
        hi = entries_.size();
    if (lo >= hi)
        return {};

    // Level 0: all leaves evaluate in parallel. The level buffers are
    // reused scratch members (allocation-free after warm-up).
    std::vector<Verdict> &level = scratch_;
    level.clear();
    level.reserve(hi - lo);
    for (unsigned idx = lo; idx < hi; ++idx)
        level.push_back(leafVerdict(idx, req));

    // Reduce arity_ nodes at a time until one verdict remains.
    std::vector<Verdict> &next = scratch_next_;
    while (level.size() > 1) {
        next.clear();
        next.reserve((level.size() + arity_ - 1) / arity_);
        for (std::size_t i = 0; i < level.size(); i += arity_) {
            Verdict acc = level[i];
            for (std::size_t j = i + 1; j < i + arity_ && j < level.size();
                 ++j) {
                acc = merge(acc, level[j]);
            }
            next.push_back(acc);
        }
        level.swap(next);
    }

    const Verdict &v = level.front();
    CheckResult result;
    result.entry = v.entry;
    result.allowed = v.allowed;
    result.partial = v.partial;
    return result;
}

CheckResult
TreeChecker::check(const CheckRequest &req) const
{
    return reduceWindow(req, 0, entries_.size());
}

} // namespace iopmp
} // namespace siopmp
