/**
 * @file
 * First-principles gate-level delay model for the IOPMP checkers.
 *
 * The achievable clock frequency of a combinational checker is set by
 * its critical path, measured in logic levels (LUT levels on FPGA):
 *
 *  - Every entry match unit (two 64-bit magnitude comparators plus the
 *    permission mux) contributes a fixed depth.
 *  - Linear priority arbitration chains one priority mux per entry:
 *    depth grows linearly in the window size.
 *  - Tree arbitration reduces verdicts pair-wise: depth grows with
 *    log_arity of the window size (a node has at most as many inputs
 *    as the window has entries).
 *  - Pipelining splits the entry table into S windows, shrinking the
 *    per-stage window by S.
 *
 * On top of the pure logic depth, long linear chains need buffer
 * insertion to meet slew/voltage constraints (§6.2: the EDA backend
 * spends LUTs as buffers), which adds further delay per level. The
 * model's constants are calibrated against the paper's anchor points
 * (60 MHz cap; linear dies past 128 entries; 2-pipe holds 256;
 * 2-pipe-tree holds 512; 3-pipe-tree holds >= 1024) and documented in
 * EXPERIMENTS.md.
 */

#ifndef TIMING_GATE_MODEL_HH
#define TIMING_GATE_MODEL_HH

#include "iopmp/checker.hh"

namespace siopmp {
namespace timing {

/** Delay-model constants (ns per level and fixed overheads). */
struct GateModelParams {
    double match_levels = 6.0;      //!< comparator + perm mux depth
    double tree_levels_per_node = 1.9; //!< one verdict-merge level
    double ns_per_level = 0.55;     //!< base LUT + local routing delay
    double setup_overhead_ns = 3.2; //!< clk-to-q, setup, global routing
    //! Extra routing/buffer delay once a chain exceeds this many
    //! levels (long chains must be buffered and routed further).
    double buffer_threshold_levels = 40.0;
    double buffered_ns_per_level = 1.8;
};

/** Logic levels on the critical path of one pipeline stage. */
double criticalPathLevels(const iopmp::CheckerGeometry &geometry);

/** Critical path delay in nanoseconds. */
double criticalPathNs(const iopmp::CheckerGeometry &geometry,
                      const GateModelParams &params = {});

} // namespace timing
} // namespace siopmp

#endif // TIMING_GATE_MODEL_HH
