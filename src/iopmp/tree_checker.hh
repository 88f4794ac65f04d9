/**
 * @file
 * Tree-based arbitration checker (§4.1, Fig 3b). Every entry produces
 * a local verdict in parallel; verdicts are then reduced pairwise in a
 * priority tree (lower index wins), giving log2(N) arbitration depth
 * instead of the linear chain's N. The functional result is identical
 * to the linear checker — a property the test suite verifies
 * exhaustively — but the shallower combinational depth is what lets
 * Fig 10 hold the clock frequency at large entry counts.
 */

#ifndef IOPMP_TREE_CHECKER_HH
#define IOPMP_TREE_CHECKER_HH

#include <vector>

#include "iopmp/checker.hh"

namespace siopmp {
namespace iopmp {

class TreeChecker : public CheckerLogic
{
  public:
    /**
     * @param arity reduction tree arity; 2 (binary) optimizes timing,
     *              larger arities trade depth for area (§4.1: "binary
     *              tree for timing, N-ary tree for area").
     */
    TreeChecker(const EntryTable &entries, const MdCfgTable &mdcfg,
                unsigned arity = 2);

    CheckResult check(const CheckRequest &req) const override;
    unsigned stages() const override { return 1; }
    CheckerKind kind() const override { return CheckerKind::Tree; }

    unsigned arity() const { return arity_; }

    /**
     * Tree reduction over the window [lo, hi); exposed so the
     * pipelined checker can use tree units per stage.
     */
    CheckResult reduceWindow(const CheckRequest &req, unsigned lo,
                             unsigned hi) const;

  private:
    /** Per-entry verdict produced by the parallel match logic. */
    struct Verdict {
        int entry = -1;       //!< -1 encodes "no overlap"
        bool allowed = false;
        bool partial = false;
    };

    Verdict leafVerdict(unsigned idx, const CheckRequest &req) const;

    /** Priority merge: lower entry index wins; -1 loses to anything. */
    static Verdict merge(const Verdict &a, const Verdict &b);

    unsigned arity_;

    //! Reusable level buffers for reduceWindow: the reduction is on the
    //! per-beat hot path, so per-check heap allocation would dominate.
    //! Consequence: check()/reduceWindow() are not thread-safe and not
    //! re-entrant (fine for the single-threaded simulator; the
    //! pipelined checker calls its stage units sequentially).
    mutable std::vector<Verdict> scratch_;
    mutable std::vector<Verdict> scratch_next_;
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_TREE_CHECKER_HH
