/**
 * @file
 * Unit tests for the gate-delay model.
 */

#include <gtest/gtest.h>

#include "timing/gate_model.hh"

namespace siopmp {
namespace timing {
namespace {

using iopmp::CheckerGeometry;
using iopmp::CheckerKind;

unsigned
widest(CheckerGeometry geometry)
{
    return geometry.widestStageWindow();
}

TEST(GateModel, WidestStagePartition)
{
    EXPECT_EQ(widest({CheckerKind::Linear, 64, 1, 2}), 64u);
    EXPECT_EQ(widest({CheckerKind::PipelineLinear, 64, 2, 2}), 32u);
    EXPECT_EQ(widest({CheckerKind::PipelineLinear, 65, 2, 2}), 33u);
    EXPECT_EQ(widest({CheckerKind::PipelineTree, 1024, 3, 2}), 342u);
}

TEST(GateModel, ArityCappedAtStageWindow)
{
    // A node never has more inputs than its stage's window has
    // entries: past 342 (1024 entries over 3 stages) a wider arity
    // builds the same one-node tree.
    const double at_window =
        criticalPathLevels({CheckerKind::PipelineTree, 1024, 3, 342});
    EXPECT_DOUBLE_EQ(
        criticalPathLevels({CheckerKind::PipelineTree, 1024, 3, 2048}),
        at_window);
    EXPECT_DOUBLE_EQ(criticalPathLevels({CheckerKind::PipelineTree, 1024,
                                         3, 4'000'000'000u}),
                     at_window);
}

TEST(GateModel, LinearLevelsGrowLinearly)
{
    const double l64 = criticalPathLevels({CheckerKind::Linear, 64, 1, 2});
    const double l128 =
        criticalPathLevels({CheckerKind::Linear, 128, 1, 2});
    const double l256 =
        criticalPathLevels({CheckerKind::Linear, 256, 1, 2});
    EXPECT_GT(l128, l64);
    // Doubling entries roughly doubles the variable part.
    EXPECT_NEAR((l256 - l128), 2.0 * (l128 - l64), 1.0);
}

TEST(GateModel, TreeLevelsGrowLogarithmically)
{
    const double t64 = criticalPathLevels({CheckerKind::Tree, 64, 1, 2});
    const double t128 = criticalPathLevels({CheckerKind::Tree, 128, 1, 2});
    const double t256 = criticalPathLevels({CheckerKind::Tree, 256, 1, 2});
    // Each doubling adds about one reduction level (constant delta).
    EXPECT_NEAR(t128 - t64, t256 - t128, 1.0);
    EXPECT_LT(t256 - t64, 10.0);
}

TEST(GateModel, TreeMuchShallowerThanLinearAtScale)
{
    const double lin =
        criticalPathLevels({CheckerKind::Linear, 1024, 1, 2});
    const double tree = criticalPathLevels({CheckerKind::Tree, 1024, 1, 2});
    EXPECT_GT(lin / tree, 3.0);
}

TEST(GateModel, PipeliningShrinksPerStageDepth)
{
    const double s1 = criticalPathLevels({CheckerKind::Linear, 256, 1, 2});
    const double s2 =
        criticalPathLevels({CheckerKind::PipelineLinear, 256, 2, 2});
    const double s4 =
        criticalPathLevels({CheckerKind::PipelineLinear, 256, 4, 2});
    EXPECT_GT(s1, s2);
    EXPECT_GT(s2, s4);
}

TEST(GateModel, BinaryArityOptimizesTiming)
{
    // §4.1: binary tree for timing. Wider nodes flatten the tree but
    // deepen each node more than the flattening saves.
    const double binary =
        criticalPathLevels({CheckerKind::Tree, 256, 1, 2});
    const double octal = criticalPathLevels({CheckerKind::Tree, 256, 1, 8});
    EXPECT_LT(binary, octal);
}

TEST(GateModel, DelayMonotoneInLevels)
{
    // Buffered region must never be cheaper than unbuffered.
    GateModelParams p;
    CheckerGeometry small{CheckerKind::Linear, 64, 1, 2};
    CheckerGeometry large{CheckerKind::Linear, 1024, 1, 2};
    EXPECT_LT(criticalPathNs(small, p), criticalPathNs(large, p));
}

TEST(GateModel, SingleEntryIsJustMatchDepth)
{
    GateModelParams p;
    const double levels =
        criticalPathLevels({CheckerKind::Linear, 1, 1, 2});
    EXPECT_DOUBLE_EQ(levels, p.match_levels);
}

} // namespace
} // namespace timing
} // namespace siopmp
