/**
 * @file
 * Cold-device switching workload (Fig 17). Two devices share the SoC:
 * a long-running "hot" device streaming DMA bursts and an intermittent
 * "cold" device issuing one burst for every N hot bursts. Two
 * configurations are compared:
 *
 *  - matched (hot-cold): the hot device holds a CAM row (fixed SID)
 *    and the cold device lives in the extended table, mounted once via
 *    the eSID slot. Cold switching never touches the hot device.
 *
 *  - mismatched (cold-cold): both devices are registered as cold, so
 *    every alternation thrashes the single eSID slot — each switch
 *    costs a SID-missing interrupt plus the mount procedure, and the
 *    "hot" device stalls behind its own remounts.
 *
 * The result is the hot device's throughput as a percentage of a run
 * without any cold device at all.
 */

#ifndef WORKLOADS_HOTCOLD_HH
#define WORKLOADS_HOTCOLD_HH

#include "sim/types.hh"

namespace siopmp {
namespace wl {

struct HotColdConfig {
    unsigned ratio = 100;      //!< hot bursts per cold burst
    bool matched = true;       //!< hot device correctly marked hot
    unsigned hot_bursts = 2000; //!< total hot bursts to complete
};

struct HotColdResult {
    double hot_throughput_pct = 0.0; //!< vs. no-cold-device baseline
    Cycle hot_cycles = 0;            //!< hot job duration with cold dev
    Cycle baseline_cycles = 0;       //!< hot job duration alone
    std::uint64_t cold_switches = 0;
    std::uint64_t sid_misses = 0;
};

HotColdResult runHotCold(const HotColdConfig &cfg);

/** Cold-switch latency in CPU cycles for @p entries mounted entries
 * (the paper reports 341 cycles for 8 entries). */
Cycle coldSwitchCost(unsigned entries);

} // namespace wl
} // namespace siopmp

#endif // WORKLOADS_HOTCOLD_HH
