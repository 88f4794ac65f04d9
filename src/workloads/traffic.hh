/**
 * @file
 * Microbenchmark traffic runners shared by the test suite and the
 * bench harnesses:
 *
 *  - runBurstLatency: Fig 11's worst case. One DMA master issues 64
 *    consecutive 8-beat bursts with no outstanding transactions and
 *    the total latency (first request to last response) is measured,
 *    for reads/writes, legal and violating, across checker pipeline
 *    depths and violation policies.
 *
 *  - runBandwidth: Fig 12's peak throughput. Two DMA masters with
 *    outstanding/out-of-order transactions saturate the fabric in
 *    Read-Read / Read-Write / Write-Write scenarios; the result is
 *    aggregate payload bytes per cycle.
 */

#ifndef WORKLOADS_TRAFFIC_HH
#define WORKLOADS_TRAFFIC_HH

#include "iopmp/checker.hh"
#include "iopmp/violation.hh"
#include "sim/types.hh"

namespace siopmp {
namespace wl {

struct BurstLatencyConfig {
    unsigned stages = 1; //!< checker pipeline stages (1 = no-pipe)
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
    bool write = false;     //!< write bursts instead of reads
    bool violating = false; //!< target a forbidden region
    unsigned bursts = 64;
};

/** Total cycles for the configured burst train. */
Cycle runBurstLatency(const BurstLatencyConfig &cfg);

/** Fig 12 traffic scenario. */
enum class BandwidthScenario { ReadRead, ReadWrite, WriteWrite };

struct BandwidthConfig {
    BandwidthScenario scenario = BandwidthScenario::ReadRead;
    unsigned stages = 1;
    iopmp::ViolationPolicy policy = iopmp::ViolationPolicy::BusError;
    unsigned bursts_per_node = 64;
    unsigned max_outstanding = 8;
};

/** Aggregate payload bytes per cycle across both DMA nodes. */
double runBandwidth(const BandwidthConfig &cfg);

} // namespace wl
} // namespace siopmp

#endif // WORKLOADS_TRAFFIC_HH
