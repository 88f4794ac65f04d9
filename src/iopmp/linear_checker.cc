/**
 * @file
 * LinearChecker implementation: one serial priority walk.
 */

#include "iopmp/linear_checker.hh"

namespace siopmp {
namespace iopmp {

CheckResult
LinearChecker::check(const CheckRequest &req) const
{
    return firstMatch(req, 0, entries_.size());
}

} // namespace iopmp
} // namespace siopmp
