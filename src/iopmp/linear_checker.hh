/**
 * @file
 * Baseline checker ported from the CPU-side PMP: walks every entry
 * serially in priority order within one combinational cycle. Simple,
 * but its logic depth grows linearly with the entry count, which is
 * what kills the clock frequency beyond ~128 entries (Fig 10).
 */

#ifndef IOPMP_LINEAR_CHECKER_HH
#define IOPMP_LINEAR_CHECKER_HH

#include "iopmp/checker.hh"

namespace siopmp {
namespace iopmp {

class LinearChecker : public CheckerLogic
{
  public:
    using CheckerLogic::CheckerLogic;

    CheckResult check(const CheckRequest &req) const override;
    unsigned stages() const override { return 1; }
    CheckerKind kind() const override { return CheckerKind::Linear; }
};

} // namespace iopmp
} // namespace siopmp

#endif // IOPMP_LINEAR_CHECKER_HH
