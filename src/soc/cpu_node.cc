/**
 * @file
 * CpuNode implementation.
 */

#include "soc/cpu_node.hh"

#include <utility>

#include "sim/exec_context.hh"
#include "sim/logging.hh"

namespace siopmp {
namespace soc {

CpuNode::CpuNode(std::string name, fw::SecureMonitor *monitor,
                 iopmp::SIopmp *unit, Simulator *sim, Cycle irq_latency)
    : Tickable(std::move(name)), monitor_(monitor), unit_(unit), sim_(sim)
{
    SIOPMP_ASSERT(monitor_ && unit_ && sim_, "cpu node wiring incomplete");
    monitor_->irqController().bindWake(this);
    if (irq_latency > 0)
        monitor_->irqController().setDeliveryLatency(irq_latency,
                                                     &sim_->events());
    // The interrupt path crosses tick domains without a registered
    // fifo, so it must bound the parallel engine's lookahead itself:
    // while idle the epoch may not exceed the delivery latency (a
    // raise at the first sub-cycle lands exactly on the next epoch
    // boundary), and while an interrupt is pending every firmware
    // mutation must replay at single-cycle granularity.
    sim_->setEpochLimit([this](Cycle) {
        const auto &irq = monitor_->irqController();
        if (irq.pending())
            return Cycle{1};
        const Cycle d = irq.deliveryLatency();
        return d == 0 ? Cycle{1} : d;
    });
}

CpuNode::~CpuNode()
{
    sim_->setEpochLimit(nullptr);
}

bool
CpuNode::quiescent(Cycle now) const
{
    // Idle, or inside the previous handler: serviceNow() armed a timed
    // wake at busy_until_, when a pending interrupt is serviced.
    return !monitor_->irqController().pending() || busy_until_ > now;
}

void
CpuNode::evaluate(Cycle now)
{
    // Firmware service mutates shared IOPMP state (CAM mounts, MMIO
    // config writes, the block bitmap) that concurrent tick domains
    // are reading: under the parallel engine the whole body — the
    // pending-interrupt check included — runs in the end-of-cycle
    // main section instead. The check must move with the body: a
    // checker raising an interrupt this cycle does so as a deferred
    // op, and only the replay (sorted by registration order, checker
    // before CPU) reproduces the sequential same-cycle visibility.
    if (simctx::inParallelPhase()) {
        simctx::deferShared([this, now] {
            if (now >= busy_until_ && monitor_->irqController().pending())
                serviceNow(now);
        });
        return;
    }
    if (now < busy_until_)
        return; // still inside the previous handler
    if (!monitor_->irqController().pending())
        return;
    serviceNow(now);
}

void
CpuNode::serviceNow(Cycle now)
{
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

void
CpuNode::advance(Cycle)
{
}

} // namespace soc
} // namespace siopmp
