/**
 * @file
 * Fig 10 reproduction: achievable clock frequency for different IOPMP
 * checkers as the number of entries grows (paper's FPGA cap: 60 MHz).
 *
 * Series: IOPMP (baseline linear), 2pipe (pipeline only), 2pipe-tree
 * and 3pipe-tree (MT checker). "FAIL" marks configurations that do not
 * pass timing closure, matching the paper's 1024-entry baseline.
 */

#include <cstdio>

#include "timing/frequency.hh"

using namespace siopmp;
using iopmp::CheckerGeometry;
using iopmp::CheckerKind;

namespace {

void
printCell(double mhz)
{
    if (mhz <= 0.0)
        std::printf(" %9s", "FAIL");
    else
        std::printf(" %8.1fM", mhz);
}

} // namespace

int
main()
{
    const unsigned entry_counts[] = {16, 32, 64, 128, 256, 512, 1024};

    std::printf("Figure 10: achievable clock frequency (MHz), "
                "FPGA cap 60 MHz\n");
    std::printf("%-8s %9s %9s %9s %9s\n", "entries", "IOPMP", "2pipe",
                "2pipe-tr", "3pipe-tr");

    for (unsigned n : entry_counts) {
        std::printf("%-8u", n);
        printCell(timing::achievableFrequencyMhz(
            CheckerGeometry{CheckerKind::Linear, n, 1, 2}));
        printCell(timing::achievableFrequencyMhz(
            CheckerGeometry{CheckerKind::PipelineLinear, n, 2, 2}));
        printCell(timing::achievableFrequencyMhz(
            CheckerGeometry{CheckerKind::PipelineTree, n, 2, 2}));
        printCell(timing::achievableFrequencyMhz(
            CheckerGeometry{CheckerKind::PipelineTree, n, 3, 2}));
        std::printf("\n");
    }

    std::printf("\nPaper anchors: baseline holds 60MHz to 128 entries and "
                "fails at 1024;\n2pipe holds 256 and drops to ~10MHz at "
                "1024; 2pipe-tree holds 512 with a\nslight dip at 1024; "
                "3pipe-tree holds >= 1024.\n");
    return 0;
}
