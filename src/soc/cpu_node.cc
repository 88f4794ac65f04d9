/**
 * @file
 * CpuNode implementation.
 */

#include "soc/cpu_node.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace soc {

CpuNode::CpuNode(std::string name, fw::SecureMonitor *monitor,
                 iopmp::SIopmp *unit, Simulator *sim)
    : Tickable(std::move(name)), monitor_(monitor), unit_(unit), sim_(sim)
{
    SIOPMP_ASSERT(monitor_ && unit_ && sim_, "cpu node wiring incomplete");
    monitor_->irqController().bindWake(this);
}

bool
CpuNode::quiescent(Cycle now) const
{
    // Idle, or inside the previous handler: evaluate() armed a timed
    // wake at busy_until_, when a pending interrupt is serviced.
    return !monitor_->irqController().pending() || busy_until_ > now;
}

void
CpuNode::evaluate(Cycle now)
{
    if (now < busy_until_)
        return; // still inside the previous handler
    if (!monitor_->irqController().pending())
        return;
    const Cycle cost = monitor_->serviceInterrupts(now);
    ++serviced_;
    busy_until_ = now + cost;
    if (busy_until_ > now)
        sim_->events().scheduleWake(busy_until_, this);

    // Model handler latency: the cold path stays blocked until the
    // handler retires. Hot SIDs are untouched (per-SID blocking).
    const Sid cold = unit_->coldSid();
    if (!unit_->blockBitmap().blocked(cold)) {
        unit_->blockBitmap().block(cold);
        sim_->events().schedule(busy_until_, [this, cold] {
            unit_->blockBitmap().unblock(cold);
        });
    }
}

} // namespace soc
} // namespace siopmp
