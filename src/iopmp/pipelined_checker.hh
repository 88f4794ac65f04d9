/**
 * @file
 * Multi-stage pipelined checker (§4.1, Fig 3a). The entry table is
 * split across S pipeline stages; each stage checks its window with a
 * combinational unit (tree or linear) and forwards the intermediate
 * verdict in a register. Combining pipelining with tree units is the
 * paper's MT checker: the per-stage logic depth shrinks by the stage
 * count, and the tree shrinks it logarithmically on top of that.
 *
 * Functionally identical to the linear checker; microarchitecturally
 * it adds (stages - 1) cycles of latency per request beat without
 * reducing throughput (one beat can enter every cycle).
 */

#ifndef IOPMP_PIPELINED_CHECKER_HH
#define IOPMP_PIPELINED_CHECKER_HH

#include "iopmp/checker.hh"
#include "iopmp/tree_checker.hh"

namespace siopmp {
namespace iopmp {

class PipelinedChecker : public CheckerLogic
{
  public:
    PipelinedChecker(const EntryTable &entries, const MdCfgTable &mdcfg,
                     unsigned stages, bool tree_units, unsigned arity = 2);

    CheckResult check(const CheckRequest &req) const override;
    unsigned stages() const override { return stages_; }

    CheckerKind
    kind() const override
    {
        return tree_units_ ? CheckerKind::PipelineTree
                           : CheckerKind::PipelineLinear;
    }

    bool treeUnits() const { return tree_units_; }

    /** Entry window [lo, hi) assigned to pipeline stage @p s. */
    std::pair<unsigned, unsigned> stageWindow(unsigned s) const;

  private:
    unsigned stages_;
    bool tree_units_;
    TreeChecker unit_; //!< used when tree_units_; windows via reduceWindow
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_PIPELINED_CHECKER_HH
