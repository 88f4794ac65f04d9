/**
 * @file
 * FPGA resource (LUT / FF) model for the sIOPMP module (drives the
 * Fig 14 sweep). Costs are reported as a percentage of a FireSim-class
 * device (Xilinx VU9P: ~1.18 M LUTs, ~2.36 M FFs).
 *
 * Composition:
 *  - every entry needs match logic (comparators) and storage FFs;
 *  - linear arbitration adds a priority-chain mux per entry, and —
 *    dominating everything at large entry counts — the backend must
 *    spend LUTs and FFs as buffers to meet timing/voltage on the long
 *    serial chain; buffer count grows superlinearly with the chain;
 *  - tree arbitration replaces the chain with (window - 1) small merge
 *    nodes and needs essentially no buffering;
 *  - each pipeline stage boundary adds one register slice.
 */

#ifndef TIMING_RESOURCE_HH
#define TIMING_RESOURCE_HH

#include "timing/gate_model.hh"

namespace siopmp {
namespace timing {

struct ResourceParams {
    double device_luts = 1'182'240.0; //!< VU9P
    double device_ffs = 2'364'480.0;

    double match_luts_per_entry = 22.0;  //!< two 64-bit comparators
    double storage_ffs_per_entry = 55.0; //!< entry registers
    double chain_luts_per_entry = 4.0;   //!< linear priority mux
    double tree_luts_per_node = 6.0;     //!< verdict merge node
    double tree_ffs_per_node = 0.5;

    //! Buffer LUTs inserted on a linear chain of W entries:
    //! buffer_lut_coeff * W^buffer_lut_exp (fit to the 17.3% anchor).
    double buffer_lut_coeff = 2.53;
    double buffer_lut_exp = 1.8;
    //! Buffer/duplication FFs per chained entry.
    double buffer_ffs_per_entry = 28.0;

    double pipeline_ffs_per_stage = 220.0; //!< request/verdict regs
    double pipeline_luts_per_stage = 40.0;
};

struct ResourceUsage {
    double luts = 0.0;
    double ffs = 0.0;
    double lut_pct = 0.0; //!< percentage of device LUTs
    double ff_pct = 0.0;  //!< percentage of device FFs
};

ResourceUsage estimateResources(const iopmp::CheckerGeometry &geometry,
                                const ResourceParams &params = {});

} // namespace timing
} // namespace siopmp

#endif // TIMING_RESOURCE_HH
