/**
 * @file
 * CommandQueue implementation.
 */

#include "iommu/cmd_queue.hh"

#include <algorithm>

namespace siopmp {
namespace iommu {

Cycle
CommandQueue::post(Cycle now)
{
    // Hardware services commands in order with a minimum gap; a burst
    // of invalidations queues up behind the service interval.
    const Cycle earliest =
        std::max(now + kServiceLatency, last_retire_at_ + kServiceInterval);
    retire_at_.push_back(earliest);
    last_retire_at_ = earliest;
    ++posted_;
    return kPost;
}

Cycle
CommandQueue::sync(Cycle now)
{
    drain(now);
    if (retire_at_.empty())
        return kSyncPoll; // one poll observes completion
    // Wait for the last command to retire, polling the wait
    // descriptor; the CPU burns the whole interval.
    const Cycle done_at = retire_at_.back();
    const Cycle waited = done_at > now ? done_at - now : 0;
    retired_ += retire_at_.size();
    retire_at_.clear();
    return waited + kSyncPoll;
}

void
CommandQueue::drain(Cycle now)
{
    while (!retire_at_.empty() && retire_at_.front() <= now) {
        retire_at_.pop_front();
        ++retired_;
    }
}

} // namespace iommu
} // namespace siopmp
