/**
 * @file
 * Tests pinning the resource model to the paper's Fig 14 anchors.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "timing/resource.hh"

namespace siopmp {
namespace timing {
namespace {

using iopmp::CheckerKind;

ResourceUsage
linear(unsigned entries)
{
    return estimateResources({CheckerKind::Linear, entries, 1, 2});
}

ResourceUsage
tree(unsigned entries)
{
    return estimateResources({CheckerKind::Tree, entries, 1, 2});
}

TEST(Resource, Anchor512Linear)
{
    // Paper: 512-entry sIOPMP without tree arbitration needs an extra
    // ~17.3% of LUTs and ~1.8% of FFs.
    const auto u = linear(512);
    EXPECT_NEAR(u.lut_pct, 17.3, 1.5);
    EXPECT_NEAR(u.ff_pct, 1.8, 0.3);
}

TEST(Resource, Anchor512Tree)
{
    // Paper: tree arbitration needs only ~1.21% extra LUTs/FFs,
    // a ~93% reduction in LUT cost.
    const auto u = tree(512);
    EXPECT_NEAR(u.lut_pct, 1.21, 0.3);
    EXPECT_LT(u.ff_pct, 1.5);
    EXPECT_GT(1.0 - u.luts / linear(512).luts, 0.9);
}

TEST(Resource, LutGrowthSuperlinearForLinear)
{
    const double r64 = linear(128).luts / linear(64).luts;
    const double r256 = linear(512).luts / linear(256).luts;
    EXPECT_GT(r64, 2.0);
    EXPECT_GT(r256, 2.0);
}

TEST(Resource, TreeGrowthRoughlyLinear)
{
    const double ratio = tree(512).luts / tree(256).luts;
    EXPECT_NEAR(ratio, 2.0, 0.2);
}

TEST(Resource, TreeNeverWorseThanLinear)
{
    for (unsigned n : {32u, 64u, 128u, 256u, 512u, 1024u}) {
        EXPECT_LE(tree(n).luts, linear(n).luts) << n;
        EXPECT_LE(tree(n).ffs, linear(n).ffs) << n;
    }
}

TEST(Resource, AbstractAnchor1024Entries)
{
    // Abstract: sIOPMP consumes ~1.9% extra LUTs and FFs for >1024
    // entries (MT checker: pipelined tree).
    const auto u = estimateResources({CheckerKind::PipelineTree, 1024, 3, 2});
    EXPECT_NEAR(u.lut_pct, 1.9, 1.0);
    EXPECT_LT(u.ff_pct, 3.0);
}

TEST(Resource, PipeliningAddsRegisters)
{
    const auto s1 = estimateResources({CheckerKind::PipelineTree, 256, 1, 2});
    const auto s3 = estimateResources({CheckerKind::PipelineTree, 256, 3, 2});
    EXPECT_GT(s3.ffs, s1.ffs);
}

TEST(Resource, WiderArityTradesAreaForTiming)
{
    // §4.1: N-ary tree for area. Wider merges amortize per-node
    // overhead, so LUT cost falls as arity grows (while the gate model
    // shows timing worsening).
    const auto binary =
        estimateResources({CheckerKind::Tree, 512, 1, 2});
    const auto octal = estimateResources({CheckerKind::Tree, 512, 1, 8});
    EXPECT_LT(octal.luts, binary.luts);
}

TEST(Resource, ArityCappedAtStageWindow)
{
    // A node never has more inputs than its stage's window has
    // entries (342 at 1024 entries over 3 stages), so a wider arity
    // costs what the window-wide node does.
    const auto at_window =
        estimateResources({CheckerKind::PipelineTree, 1024, 3, 342});
    for (unsigned arity : {2048u, 4'000'000'000u}) {
        const auto wider =
            estimateResources({CheckerKind::PipelineTree, 1024, 3, arity});
        EXPECT_DOUBLE_EQ(wider.luts, at_window.luts) << arity;
        EXPECT_DOUBLE_EQ(wider.ffs, at_window.ffs) << arity;
    }
}

TEST(Resource, OneEntryWindowKeepsBinaryNodes)
{
    // A one-entry window has no merge; the node count must not divide
    // by an arity of 1.
    const auto u = estimateResources({CheckerKind::PipelineTree, 2, 2, 8});
    EXPECT_TRUE(std::isfinite(u.luts));
    EXPECT_DOUBLE_EQ(
        u.luts, estimateResources({CheckerKind::PipelineTree, 2, 2, 2}).luts);
}

TEST(Resource, PercentagesConsistentWithAbsolute)
{
    ResourceParams p;
    const auto u = tree(128);
    EXPECT_NEAR(u.lut_pct, 100.0 * u.luts / p.device_luts, 1e-9);
    EXPECT_NEAR(u.ff_pct, 100.0 * u.ffs / p.device_ffs, 1e-9);
}

} // namespace
} // namespace timing
} // namespace siopmp
