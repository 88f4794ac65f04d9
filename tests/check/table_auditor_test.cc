/**
 * @file
 * TableAuditor fire tests: a change made while the auditor is
 * detached from a table (removeListener, then addListener) reaches
 * the live table without a callback, and the next audit must name it
 * — the lowest index first — while lock-bit-only changes, reported
 * changes and a reset of both tables through their register writes
 * audit clean. Without these, an audit that never
 * fires would look the same as one that cannot.
 */

#include <gtest/gtest.h>

#include "check/table_auditor.hh"

namespace siopmp {
namespace check {
namespace {

using iopmp::Entry;

class TableAuditorTest : public ::testing::Test
{
  protected:
    TableAuditorTest() : entries(16), mdcfg(4, 16), auditor(entries, mdcfg)
    {
        // MD 0 owns [0, 4), MD 1 owns [4, 8), MD 2 and MD 3 nothing.
        mdcfg.setTop(0, 4);
        mdcfg.setTop(1, 8);
        EXPECT_EQ(auditor.auditAndSync(), "");
    }

    /** Set entry @p idx behind the auditor's back. */
    void
    detachedSet(unsigned idx, const Entry &entry)
    {
        entries.removeListener(&auditor);
        entries.set(idx, entry);
        entries.addListener(&auditor);
    }

    /** Move MD @p md's top behind the auditor's back. */
    void
    detachedSetTop(MdIndex md, unsigned top)
    {
        mdcfg.removeListener(&auditor);
        EXPECT_TRUE(mdcfg.setTop(md, top));
        mdcfg.addListener(&auditor);
    }

    iopmp::EntryTable entries;
    iopmp::MdCfgTable mdcfg;
    TableAuditor auditor;
};

TEST_F(TableAuditorTest, DetachedEntrySetIsFlagged)
{
    detachedSet(5, Entry::range(0x1000, 0x100, Perm::Read));
    EXPECT_EQ(auditor.auditAndSync(),
              "listener audit: entry 5 changed without a covering "
              "onEntriesChanged");
    // The audit resynced its mirror: the same state is clean now.
    EXPECT_EQ(auditor.auditAndSync(), "");
}

TEST_F(TableAuditorTest, DetachedSetTopIsFlagged)
{
    // Shrinking MD 0 to [0, 2) hands entries 2 and 3 to MD 1.
    detachedSetTop(0, 2);
    EXPECT_EQ(auditor.auditAndSync(),
              "listener audit: entry 2 moved MD 0 -> 1 without a covering "
              "onMdWindowsChanged");
    EXPECT_EQ(auditor.auditAndSync(), "");
}

TEST_F(TableAuditorTest, ReportMissingTheLosingMdIsFlagged)
{
    // The report's range covers the move, but its mask names only the
    // gaining MD 1, not the losing MD 0.
    detachedSetTop(0, 2);
    auditor.onMdWindowsChanged(0x2, 2, 4);
    EXPECT_EQ(auditor.auditAndSync(),
              "listener audit: entry 2 moved MD 0 -> 1 without a covering "
              "onMdWindowsChanged");

    // The same move reported with both MDs is clean.
    detachedSetTop(0, 1);
    auditor.onMdWindowsChanged(0x3, 1, 2);
    EXPECT_EQ(auditor.auditAndSync(), "");
}

TEST_F(TableAuditorTest, LowerUnreportedIndexIsReportedFirst)
{
    detachedSet(9, Entry::range(0x9000, 0x100, Perm::Write));
    detachedSet(3, Entry::range(0x3000, 0x100, Perm::Read));
    EXPECT_EQ(auditor.auditAndSync(),
              "listener audit: entry 3 changed without a covering "
              "onEntriesChanged");

    // An owner move at a lower index comes before a value change at a
    // higher one: growing MD 1 to 10 moves entries 8 and 9 into it.
    detachedSet(12, Entry::range(0xc000, 0x100, Perm::Read));
    detachedSetTop(1, 10);
    EXPECT_EQ(auditor.auditAndSync(),
              "listener audit: entry 8 moved MD -1 -> 1 without a "
              "covering onMdWindowsChanged");
}

TEST_F(TableAuditorTest, LockReportedChangesAndResetAuditClean)
{
    entries.set(2, Entry::range(0x2000, 0x100, Perm::Read));
    EXPECT_EQ(auditor.auditAndSync(), "");

    // A lock never changes a verdict and is not reported.
    entries.lock(2);
    EXPECT_EQ(auditor.auditAndSync(), "");

    // Reported changes: an entry write and an MDCFG top move.
    entries.set(6, Entry::range(0x6000, 0x100, Perm::ReadWrite));
    EXPECT_TRUE(mdcfg.setTop(0, 6));
    EXPECT_EQ(auditor.auditAndSync(), "");

    // A reset of both tables through the per-register writes: every
    // entry cleared (the locked one in machine mode), then every top
    // zeroed, lowest MD first.
    for (unsigned j = 0; j < entries.size(); ++j)
        EXPECT_TRUE(entries.clear(j, /*machine_mode=*/true));
    for (MdIndex md = 0; md < mdcfg.numMds(); ++md)
        EXPECT_TRUE(mdcfg.setTop(md, 0));
    EXPECT_EQ(auditor.auditAndSync(), "");
}

} // namespace
} // namespace check
} // namespace siopmp
