/**
 * @file
 * BusMonitor out-of-line pieces: blocking-window accounting.
 */

#include "bus/monitor.hh"

namespace siopmp {
namespace bus {

void
BusMonitor::recordBlockWindow(DeviceId device, Cycle cycles)
{
    ++block_windows_;
    ++stats_.scalar("block_windows");
    // Shape chosen for pipeline-drain windows: sub-cycle granularity is
    // meaningless, and anything past 128 cycles is pathological.
    stats_.histogram("block_window_cycles", 0.0, 8.0, 16)
        .sample(static_cast<double>(cycles));
    stats_.average("block_window_mean").sample(static_cast<double>(cycles));
    (void)device;
}

} // namespace bus
} // namespace siopmp
