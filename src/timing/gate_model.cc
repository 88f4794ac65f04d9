/**
 * @file
 * Gate-delay model implementation.
 *
 * Level model per pipeline stage (window = entries / stages):
 *  - match unit: fixed depth (parallel for all entries);
 *  - linear arbitration: synthesis packs an 8-entry priority mux into
 *    one LUT level, so the chain contributes window/8 levels;
 *  - tree arbitration: one reduction level per log_k step, where a
 *    node has k = min(arity, window) inputs (each level costs ~2 LUT
 *    levels for the verdict merge), plus a small fan-in/wiring term
 *    that grows with the window.
 *
 * Past ~40 levels the router must insert buffers and the chain leaves
 * the local region, so each additional level costs more. These
 * constants reproduce the paper's Fig 10 anchors; the calibration is
 * tabulated in EXPERIMENTS.md.
 */

#include "timing/gate_model.hh"

#include <cmath>

namespace siopmp {
namespace timing {

double
criticalPathLevels(const iopmp::CheckerGeometry &geometry)
{
    const GateModelParams params;
    const unsigned window = geometry.widestStageWindow();

    double levels = params.match_levels;
    if (window <= 1)
        return levels;

    if (geometry.tree()) {
        const unsigned k = geometry.treeNodeInputs();
        const double depth =
            std::ceil(std::log(static_cast<double>(window)) /
                      std::log(static_cast<double>(k)));
        // A k-ary priority merge still resolves priority among its k
        // inputs, so the per-node logic deepens with arity; binary
        // nodes minimize total delay ("binary tree for timing").
        const double node_levels =
            params.tree_levels_per_node * (1.0 + 0.6 * (k - 2));
        levels += depth * node_levels;
        // Wire/fan-in growth of the physical tree.
        levels += static_cast<double>(window) / 320.0;
    } else {
        levels += static_cast<double>(window) / 8.0;
    }
    return levels;
}

double
criticalPathNs(const iopmp::CheckerGeometry &geometry,
               const GateModelParams &params)
{
    const double levels = criticalPathLevels(geometry);
    double delay = params.setup_overhead_ns;
    if (levels <= params.buffer_threshold_levels) {
        delay += levels * params.ns_per_level;
    } else {
        delay += params.buffer_threshold_levels * params.ns_per_level;
        delay += (levels - params.buffer_threshold_levels) *
                 params.buffered_ns_per_level;
    }
    return delay;
}

} // namespace timing
} // namespace siopmp
