/**
 * @file
 * MaliciousDevice implementation.
 */

#include "devices/malicious.hh"

#include <utility>

#include "sim/logging.hh"

namespace siopmp {
namespace dev {

MaliciousDevice::MaliciousDevice(std::string name, DeviceId device,
                                 bus::Link *link)
    : DmaMaster(std::move(name), device, link)
{
}

void
MaliciousDevice::startAttack(const AttackPlan &plan, Cycle)
{
    plan_ = plan;
    queue_.clear();

    const Addr stride =
        plan.probes > 0
            ? std::max<Addr>(bus::kBeatBytes,
                             alignDown(plan.target_size /
                                           std::max(1u, plan.probes),
                                       bus::kBeatBytes))
            : bus::kBeatBytes;

    switch (plan.kind) {
      case AttackKind::ArbitraryScan:
        // Alternate read/write probes across the region.
        for (unsigned i = 0; i < plan.probes; ++i) {
            queue_.push_back(
                Probe{plan.target_base + i * stride, (i % 2) == 1});
        }
        break;
      case AttackKind::Replay:
        // Re-issue the same write to the same (stale) address.
        for (unsigned i = 0; i < plan.probes; ++i)
            queue_.push_back(Probe{plan.target_base, true});
        break;
      case AttackKind::RingTamper:
        // Overwrite consecutive descriptor slots.
        for (unsigned i = 0; i < plan.probes; ++i) {
            queue_.push_back(
                Probe{plan.target_base + i * 16, true});
        }
        break;
    }
    wake();
}

bool
MaliciousDevice::quiescent(Cycle) const
{
    // Outstanding probes are consumed only from the D channel, whose
    // wake-on-push re-arms the device; unissued probes keep it hot so
    // it polls through A-channel backpressure.
    return queue_.empty() && link_->d.settled();
}

bool
MaliciousDevice::done() const
{
    return queue_.empty() && outstanding_.empty();
}

void
MaliciousDevice::evaluate(Cycle)
{
    // Issue at most one probe per cycle.
    if (!queue_.empty()) {
        const Probe probe = queue_.front();
        if (probe.is_write) {
            const std::uint64_t txn = next_txn_;
            if (tryIssuePutBeat(probe.addr, 0, 1, plan_.payload, txn)) {
                ++next_txn_;
                outstanding_.emplace(txn, true);
                queue_.pop_front();
            }
        } else {
            if (tryIssueGet(probe.addr, 1)) {
                outstanding_.emplace(last_get_txn_, false);
                queue_.pop_front();
            }
        }
    }

    // Collect responses.
    if (link_->d.empty())
        return;
    const bus::Beat beat = link_->d.front();
    link_->d.pop();
    accountResponse(beat);

    auto it = outstanding_.find(beat.txn);
    if (it == outstanding_.end())
        return;
    const bool was_write = it->second;
    outstanding_.erase(it);

    if (beat.denied) {
        ++denied_attacks_;
        return;
    }
    if (was_write) {
        ++unflagged_writes_;
    } else if (beat.data != 0) {
        // Any non-zero data back from a probe is a potential leak.
        ++leaked_;
    }
}

} // namespace dev
} // namespace siopmp
