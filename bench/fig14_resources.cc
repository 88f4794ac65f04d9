/**
 * @file
 * Fig 14 reproduction: extra LUT / FF cost of the sIOPMP module as a
 * percentage of the FPGA device, with and without tree-based
 * arbitration. Paper anchors: 512-entry linear needs ~17.3% LUTs and
 * ~1.8% FFs; the tree needs ~1.21%, a ~93% LUT reduction.
 */

#include <cstdio>

#include "timing/resource.hh"

using namespace siopmp;
using iopmp::CheckerGeometry;
using iopmp::CheckerKind;

int
main()
{
    const unsigned entry_counts[] = {32, 64, 128, 256, 512};

    std::printf("Figure 14: FPGA resource overhead (%% of device)\n");
    std::printf("%-10s %9s %9s %9s %9s\n", "entries", "LUT", "LUT-tree",
                "FF", "FF-tree");

    for (unsigned n : entry_counts) {
        const auto linear = timing::estimateResources(
            CheckerGeometry{CheckerKind::Linear, n, 1, 2});
        const auto tree = timing::estimateResources(
            CheckerGeometry{CheckerKind::Tree, n, 1, 2});
        std::printf("%-10u %8.2f%% %8.2f%% %8.2f%% %8.2f%%\n", n,
                    linear.lut_pct, tree.lut_pct, linear.ff_pct,
                    tree.ff_pct);
    }

    const auto lin512 = timing::estimateResources(
        CheckerGeometry{CheckerKind::Linear, 512, 1, 2});
    const auto tree512 = timing::estimateResources(
        CheckerGeometry{CheckerKind::Tree, 512, 1, 2});
    std::printf("\nLUT reduction from tree arbitration at 512 entries: "
                "%.0f%% (paper: ~93%%)\n",
                100.0 * (1.0 - tree512.luts / lin512.luts));

    const auto mt1024 = timing::estimateResources(
        CheckerGeometry{CheckerKind::PipelineTree, 1024, 3, 2});
    std::printf("MT checker at 1024 entries (3-pipe tree): %.2f%% LUTs, "
                "%.2f%% FFs (abstract: ~1.9%%)\n",
                mt1024.lut_pct, mt1024.ff_pct);
    return 0;
}
