/**
 * @file
 * Resource model implementation.
 */

#include "timing/resource.hh"

#include <cmath>

namespace siopmp {
namespace timing {

ResourceUsage
estimateResources(const iopmp::CheckerGeometry &geometry,
                  const ResourceParams &params)
{
    const double entries = geometry.entries;
    const double window = geometry.widestStageWindow();

    ResourceUsage usage;

    // Common: match logic and entry storage.
    usage.luts = entries * params.match_luts_per_entry;
    usage.ffs = entries * params.storage_ffs_per_entry;

    if (geometry.tree()) {
        // A tree of k-input nodes over W leaves has ceil((W-1)/(k-1))
        // internal nodes; a k-ary merge costs about (k-1) binary
        // merges' logic but amortizes per-node overhead, which is why
        // wide trees save area ("N-ary tree for area").
        const double k = geometry.treeNodeInputs();
        const double nodes =
            geometry.stages *
            std::ceil(std::max(0.0, window - 1.0) / (k - 1.0));
        const double node_luts =
            k == 2 ? params.tree_luts_per_node
                   : params.tree_luts_per_node * (k - 1.0) * 0.85;
        usage.luts += nodes * node_luts;
        usage.ffs += nodes * params.tree_ffs_per_node;
    } else {
        usage.luts += entries * params.chain_luts_per_entry;
        // Buffer insertion on each stage's serial chain.
        usage.luts += geometry.stages *
                      params.buffer_lut_coeff *
                      std::pow(window, params.buffer_lut_exp);
        usage.ffs += entries * params.buffer_ffs_per_entry;
    }

    if (geometry.stages > 1) {
        usage.ffs += (geometry.stages - 1) * params.pipeline_ffs_per_stage;
        usage.luts +=
            (geometry.stages - 1) * params.pipeline_luts_per_stage;
    }

    usage.lut_pct = 100.0 * usage.luts / params.device_luts;
    usage.ff_pct = 100.0 * usage.ffs / params.device_ffs;
    return usage;
}

} // namespace timing
} // namespace siopmp
