/**
 * @file
 * Unit tests for the two walks and the checker geometry: priority
 * semantics and memory-domain masking, decided by both walks, and the
 * stage windows, latency and validity the geometry derives.
 */

#include <gtest/gtest.h>

#include "iopmp/checker.hh"

namespace siopmp {
namespace iopmp {
namespace {

/** firstMatch's verdict on @p req, after checking that matchWindows
 * reaches the same one. */
CheckResult
bothWalks(const EntryTable &entries, const MdCfgTable &mdcfg,
          const CheckRequest &req)
{
    const CheckResult walk = firstMatch(entries, mdcfg, req);
    const CheckResult windows = matchWindows(entries, mdcfg, req);
    EXPECT_EQ(walk.allowed, windows.allowed) << "addr=" << req.addr;
    EXPECT_EQ(walk.entry, windows.entry) << "addr=" << req.addr;
    EXPECT_EQ(walk.partial, windows.partial) << "addr=" << req.addr;
    return walk;
}

/** Table fixture: 8 entries split across 3 memory domains. */
class CheckerFixture : public ::testing::Test
{
  protected:
    CheckerFixture() : entries(8), mdcfg(3, 8)
    {
        // MD0: entries 0..1, MD1: entries 2..3, MD2: entries 4..7.
        mdcfg.setTop(0, 2);
        mdcfg.setTop(1, 4);
        mdcfg.setTop(2, 8);

        // Priority pair within MD0: entry 0 denies a window that
        // entry 1 would otherwise allow (the paper's §2.2 example).
        entries.set(0, Entry::range(0x1000, 0x100, Perm::None));
        entries.set(1, Entry::range(0x1000, 0x1000, Perm::Read));
        // MD1: RW buffer.
        entries.set(2, Entry::range(0x2000, 0x800, Perm::ReadWrite));
        // MD2: disjoint regions.
        entries.set(4, Entry::range(0x3000, 0x100, Perm::Write));
        entries.set(5, Entry::range(0x3100, 0x100, Perm::Read));
    }

    CheckResult
    check(Addr addr, Addr len, Perm perm, std::uint64_t mds) const
    {
        return bothWalks(entries, mdcfg, CheckRequest{addr, len, perm, mds});
    }

    EntryTable entries;
    MdCfgTable mdcfg;
};

TEST_F(CheckerFixture, HigherPriorityEntryWins)
{
    // Entry 0 (None) shadows entry 1 (Read) inside [0x1000,0x1100).
    auto r = check(0x1000, 8, Perm::Read, 0b001);
    EXPECT_FALSE(r.allowed);
    EXPECT_EQ(r.entry, 0);
    // Outside entry 0's window, entry 1 grants read.
    r = check(0x1100, 8, Perm::Read, 0b001);
    EXPECT_TRUE(r.allowed);
    EXPECT_EQ(r.entry, 1);
}

TEST_F(CheckerFixture, MdBitmapMasksEntries)
{
    // MD1's buffer is invisible to a SID associated only with MD0.
    auto r = check(0x2000, 8, Perm::Read, 0b001);
    EXPECT_FALSE(r.allowed);
    EXPECT_EQ(r.entry, -1);
    // With MD1 selected it is visible.
    r = check(0x2000, 8, Perm::Read, 0b010);
    EXPECT_TRUE(r.allowed);
    EXPECT_EQ(r.entry, 2);
}

TEST_F(CheckerFixture, DefaultDenyWhenNothingMatches)
{
    auto r = check(0x9000, 8, Perm::Read, 0b111);
    EXPECT_FALSE(r.allowed);
    EXPECT_EQ(r.entry, -1);
}

TEST_F(CheckerFixture, PartialOverlapDenies)
{
    // Burst straddles the boundary of entry 2's region.
    auto r = check(0x27f8, 16, Perm::Read, 0b010);
    EXPECT_FALSE(r.allowed);
    EXPECT_TRUE(r.partial);
    EXPECT_EQ(r.entry, 2);
}

TEST_F(CheckerFixture, WritePermissionEnforced)
{
    EXPECT_TRUE(check(0x3000, 8, Perm::Write, 0b100).allowed);
    EXPECT_FALSE(check(0x3000, 8, Perm::Read, 0b100).allowed);
    EXPECT_TRUE(check(0x3100, 8, Perm::Read, 0b100).allowed);
    EXPECT_FALSE(check(0x3100, 8, Perm::Write, 0b100).allowed);
}

TEST_F(CheckerFixture, StageWindowsPartitionTable)
{
    // Three stages over 8 entries: windows of 3, 3 and 2, in priority
    // order, covering every entry once.
    const CheckerGeometry pipe{CheckerKind::PipelineTree, entries.size(), 3};
    EXPECT_EQ(pipe.widestStageWindow(), 3u);
    unsigned held[3] = {};
    unsigned prev = 0;
    for (unsigned idx = 0; idx < entries.size(); ++idx) {
        const unsigned stage = pipe.stageOf(idx);
        ASSERT_LT(stage, 3u);
        EXPECT_TRUE(stage == prev || stage == prev + 1) << "entry " << idx;
        prev = stage;
        ++held[stage];
    }
    EXPECT_EQ(held[0], 3u);
    EXPECT_EQ(held[1], 3u);
    EXPECT_EQ(held[2], 2u);
}

TEST_F(CheckerFixture, ExtraLatencyFollowsStages)
{
    const unsigned n = entries.size();
    EXPECT_EQ((CheckerGeometry{CheckerKind::Linear, n, 1}.extraLatency()),
              0u);
    EXPECT_EQ((CheckerGeometry{CheckerKind::Tree, n, 1}.extraLatency()), 0u);
    EXPECT_EQ(
        (CheckerGeometry{CheckerKind::PipelineTree, n, 2}.extraLatency()),
        1u);
    EXPECT_EQ(
        (CheckerGeometry{CheckerKind::PipelineLinear, n, 3}.extraLatency()),
        2u);
}

TEST(CheckerGeometryTest, ValidateNeedsPipelinedKindForStages)
{
    for (CheckerKind kind : {CheckerKind::Linear, CheckerKind::Tree}) {
        EXPECT_EQ((CheckerGeometry{kind, 8, 1}.validate()), nullptr);
        EXPECT_NE((CheckerGeometry{kind, 8, 2}.validate()), nullptr);
        EXPECT_NE((CheckerGeometry{kind, 8, 0}.validate()), nullptr);
    }
    for (CheckerKind kind :
         {CheckerKind::PipelineLinear, CheckerKind::PipelineTree}) {
        EXPECT_EQ((CheckerGeometry{kind, 8, 1}.validate()), nullptr);
        EXPECT_EQ((CheckerGeometry{kind, 8, 4}.validate()), nullptr);
        EXPECT_NE((CheckerGeometry{kind, 8, 0}.validate()), nullptr);
    }
}

TEST(Checker, EmptyTableDeniesEverything)
{
    EntryTable entries(4);
    MdCfgTable mdcfg(1, 4);
    mdcfg.setTop(0, 4);
    EXPECT_FALSE(
        bothWalks(entries, mdcfg, {0x1000, 8, Perm::Read, 0b1}).allowed);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
