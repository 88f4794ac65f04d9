/**
 * @file
 * Achievable clock frequency for a checker configuration (drives the
 * Fig 10 sweep). Frequency is min(platform cap, 1/critical-path); a
 * configuration whose frequency falls below the routing floor is
 * reported as failing timing closure entirely (frequency 0), matching
 * the paper's "cannot pass the clock frequency analysis" outcome for
 * the 1024-entry baseline.
 */

#ifndef TIMING_FREQUENCY_HH
#define TIMING_FREQUENCY_HH

#include "timing/gate_model.hh"

namespace siopmp {
namespace timing {

struct FrequencyParams {
    double platform_cap_mhz = 60.0; //!< FPGA platform max (with NIC)
    double routing_floor_mhz = 8.0; //!< below this, routing fails
    GateModelParams gate;
};

/** Achievable frequency in MHz; 0.0 means timing closure failed. */
double achievableFrequencyMhz(const iopmp::CheckerGeometry &geometry,
                              const FrequencyParams &params = {});

/** True iff the configuration meets the platform cap exactly. */
bool meetsPlatformCap(const iopmp::CheckerGeometry &geometry,
                      const FrequencyParams &params = {});

} // namespace timing
} // namespace siopmp

#endif // TIMING_FREQUENCY_HH
