/**
 * @file
 * Frequency model implementation.
 */

#include "timing/frequency.hh"

namespace siopmp {
namespace timing {

double
achievableFrequencyMhz(const iopmp::CheckerGeometry &geometry,
                       const FrequencyParams &params)
{
    const double ns = criticalPathNs(geometry, params.gate);
    double mhz = 1000.0 / ns;
    if (mhz < params.routing_floor_mhz)
        return 0.0;
    if (mhz > params.platform_cap_mhz)
        mhz = params.platform_cap_mhz;
    return mhz;
}

bool
meetsPlatformCap(const iopmp::CheckerGeometry &geometry,
                 const FrequencyParams &params)
{
    return achievableFrequencyMhz(geometry, params) >=
           params.platform_cap_mhz;
}

} // namespace timing
} // namespace siopmp
