/**
 * @file
 * Block-state consistency monitor (§4.1). With a pipelined checker, a
 * DMA transaction may still be in flight inside the checker when
 * software asserts a per-SID block. The monitor tracks in-flight
 * transactions per device so the blocking primitive can wait until the
 * pipeline has drained before reporting the device as quiesced.
 *
 * The monitor also records blocking windows — the contiguous stretch of
 * cycles a device's head-of-line request stalls on its SID block bit —
 * into a histogram, so experiments can quantify how long the §4.1
 * atomic-modification primitive holds traffic (checker nodes report
 * window start/end; see CheckerNode::dispatchRequests).
 */

#ifndef BUS_MONITOR_HH
#define BUS_MONITOR_HH

#include <cstdint>
#include <map>

#include "bus/packet.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace siopmp {
namespace bus {

/**
 * Fabric-wide state: checker nodes report burst starts/ends and block
 * windows into it; the firmware reads it (quiesced, inflight...).
 */
class BusMonitor
{
  public:
    /** Record that a request burst from @p device entered the fabric. */
    void
    onRequestStart(DeviceId device)
    {
        ++inflight_[device];
        ++total_started_;
    }

    /** Record that the matching response burst fully returned. */
    void
    onResponseEnd(DeviceId device)
    {
        auto it = inflight_.find(device);
        if (it == inflight_.end() || it->second == 0)
            return; // response for a pre-monitor transaction; ignore
        if (--it->second == 0)
            inflight_.erase(it);
        ++total_completed_;
    }

    /** True iff no transaction from @p device is anywhere in flight. */
    bool
    quiesced(DeviceId device) const
    {
        auto it = inflight_.find(device);
        return it == inflight_.end() || it->second == 0;
    }

    /** True iff the whole fabric is idle. */
    bool allQuiesced() const { return inflight_.empty(); }

    std::uint64_t inflight(DeviceId device) const
    {
        auto it = inflight_.find(device);
        return it == inflight_.end() ? 0 : it->second;
    }

    std::uint64_t totalStarted() const { return total_started_; }
    std::uint64_t totalCompleted() const { return total_completed_; }

    /**
     * Record a completed blocking window: @p device's head request
     * stalled on its SID block bit for @p cycles before proceeding.
     */
    void recordBlockWindow(DeviceId device, Cycle cycles);

    /** Completed blocking windows observed so far. */
    std::uint64_t blockWindows() const { return block_windows_; }

    stats::Group &statsGroup() { return stats_; }

  private:
    std::map<DeviceId, std::uint64_t> inflight_;
    std::uint64_t total_started_ = 0;
    std::uint64_t total_completed_ = 0;
    std::uint64_t block_windows_ = 0;
    stats::Group stats_{"busmon"};
};

} // namespace bus
} // namespace siopmp

#endif // BUS_MONITOR_HH
