/**
 * @file
 * Ablation (§4.1): reduction-tree arity. The paper notes the RTL-level
 * tree can be tuned — "binary tree for timing, N-ary tree for area".
 * This harness sweeps the arity at fixed entry counts and reports the
 * achievable frequency and LUT cost of each point, exposing the
 * timing/area Pareto frontier the designers navigated.
 */

#include <cstdio>

#include "timing/frequency.hh"
#include "timing/resource.hh"

using namespace siopmp;
using iopmp::CheckerGeometry;
using iopmp::CheckerKind;

int
main()
{
    std::printf("Ablation: tree arity (2-stage pipelined tree checker)\n");
    std::printf("%-8s %-6s %10s %10s %10s\n", "entries", "arity",
                "freq MHz", "LUT %", "levels");

    for (unsigned entries : {256u, 512u, 1024u}) {
        for (unsigned arity : {2u, 4u, 8u, 16u}) {
            CheckerGeometry g{CheckerKind::PipelineTree, entries, 2,
                              arity};
            const double mhz = timing::achievableFrequencyMhz(g);
            const auto usage = timing::estimateResources(g);
            std::printf("%-8u %-6u %10.1f %9.2f%% %10.1f\n", entries,
                        arity, mhz, usage.lut_pct,
                        timing::criticalPathLevels(g));
        }
        std::printf("\n");
    }

    std::printf("Reading: higher arity flattens the tree (fewer levels "
                "-> higher frequency headroom)\nbut each merge node is "
                "wider; the binary tree wins timing per LUT at the\n"
                "1024-entry design point the paper ships.\n");
    return 0;
}
