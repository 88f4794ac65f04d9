/**
 * @file
 * ErrorNode implementation.
 */

#include "bus/error_node.hh"

#include <utility>

namespace siopmp {
namespace bus {

ErrorNode::ErrorNode(std::string name, Link *up)
    : Tickable(std::move(name)), up_(up), stats_(this->name())
{
    up_->a.bindWake(this);
}

bool
ErrorNode::quiescent(Cycle) const
{
    return up_->a.settled();
}

void
ErrorNode::evaluate(Cycle)
{
    // One beat per cycle: consume request beats; on the last beat of a
    // burst, emit the denied response (single beat, terminates burst).
    if (up_->a.empty())
        return;
    const Beat &req = up_->a.front();
    if (req.last) {
        if (!up_->d.canPush())
            return; // retry next cycle
        up_->d.push(makeDenied(req));
        ++errors_;
        ++stats_.scalar("bus_errors");
    }
    up_->a.pop();
}

} // namespace bus
} // namespace siopmp
