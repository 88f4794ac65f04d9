/**
 * @file
 * InterruptController implementation.
 */

#include "fw/interrupt_ctrl.hh"

#include "sim/tickable.hh"

namespace siopmp {
namespace fw {

void
InterruptController::setHandler(iopmp::IrqKind kind, Handler handler)
{
    if (kind == iopmp::IrqKind::Violation)
        violation_handler_ = std::move(handler);
    else
        sid_missing_handler_ = std::move(handler);
}

void
InterruptController::raise(const iopmp::Irq &irq)
{
    queue_.push_back(irq);
    ++raised_;
    if (wake_target_ != nullptr)
        wake_target_->wake();
}

Cycle
InterruptController::service(Cycle now)
{
    Cycle cost = 0;
    while (!queue_.empty()) {
        const iopmp::Irq irq = queue_.front();
        queue_.pop_front();
        cost += trap_cost_;
        const Handler &handler = irq.kind == iopmp::IrqKind::Violation
                                     ? violation_handler_
                                     : sid_missing_handler_;
        if (handler)
            cost += handler(irq, now + cost);
        ++serviced_;
    }
    return cost;
}

} // namespace fw
} // namespace siopmp
