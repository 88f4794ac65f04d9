/**
 * @file
 * Unit tests for the SRC2MD, MDCFG and entry tables.
 */

#include <gtest/gtest.h>

#include <vector>

#include "iopmp/tables.hh"
#include "sim/random.hh"

namespace siopmp {
namespace iopmp {
namespace {

TEST(EntryTable, SetGetClear)
{
    EntryTable t(8);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_FALSE(t.get(0).enabled());
    EXPECT_TRUE(t.set(3, Entry::range(0x1000, 0x10, Perm::Read)));
    EXPECT_TRUE(t.get(3).enabled());
    EXPECT_TRUE(t.clear(3));
    EXPECT_FALSE(t.get(3).enabled());
    EXPECT_EQ(t.writeCount(), 2u);
}

TEST(EntryTable, LockBlocksNonMachineMode)
{
    EntryTable t(4);
    t.set(0, Entry::range(0x0, 0x10, Perm::Read));
    t.lock(0);
    EXPECT_FALSE(t.set(0, Entry::off(), /*machine_mode=*/false));
    EXPECT_TRUE(t.get(0).enabled());
    // The unprivileged path is the default: an implicit set() must
    // also bounce off the lock.
    EXPECT_FALSE(t.set(0, Entry::off()));
    EXPECT_TRUE(t.get(0).enabled());
    // M-mode may still rewrite explicitly, and the lock stays sticky.
    EXPECT_TRUE(t.set(0, Entry::range(0x0, 0x20, Perm::Write),
                      /*machine_mode=*/true));
    EXPECT_TRUE(t.get(0).locked());
}

TEST(EntryTable, ResetDisablesEverything)
{
    // There is no reset register: a machine-mode clear of every entry
    // resets the table, a locked entry included (its lock stays).
    EntryTable t(4);
    t.set(1, Entry::range(0x0, 8, Perm::Read));
    t.set(2, Entry::range(0x8, 8, Perm::Write));
    t.lock(2);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(t.clear(i, /*machine_mode=*/true));
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_FALSE(t.get(i).enabled());
    EXPECT_TRUE(t.get(2).locked());
}

TEST(Src2Md, AssociateBitmap)
{
    Src2MdTable t(64, 63);
    EXPECT_TRUE(t.associate(5, 0));
    EXPECT_TRUE(t.associate(5, 62));
    EXPECT_TRUE(t.associated(5, 0));
    EXPECT_TRUE(t.associated(5, 62));
    EXPECT_FALSE(t.associated(5, 1));
    EXPECT_EQ(t.bitmap(5),
              (std::uint64_t{1} << 0) | (std::uint64_t{1} << 62));
    // Dropping one MD rewrites the row without it.
    EXPECT_TRUE(t.setBitmap(5, t.bitmap(5) & ~std::uint64_t{1}));
    EXPECT_FALSE(t.associated(5, 0));
    EXPECT_TRUE(t.associated(5, 62));
}

TEST(Src2Md, RejectsOutOfRange)
{
    Src2MdTable t(64, 63);
    EXPECT_FALSE(t.associate(64, 0));  // bad SID
    EXPECT_FALSE(t.associate(0, 63));  // bad MD
    EXPECT_FALSE(t.setBitmap(0, std::uint64_t{1} << 63)); // bit 63 invalid
}

TEST(Src2Md, StickyLockFreezesRow)
{
    Src2MdTable t(64, 63);
    t.associate(3, 1);
    t.lock(3);
    EXPECT_TRUE(t.locked(3));
    EXPECT_FALSE(t.associate(3, 2));
    EXPECT_FALSE(t.setBitmap(3, 0)); // nor may MD 1 be dropped
    EXPECT_TRUE(t.associated(3, 1));
    // Lock is per-row.
    EXPECT_TRUE(t.associate(4, 2));
}

TEST(Src2Md, SetBitmapWholeRow)
{
    Src2MdTable t(64, 63);
    EXPECT_TRUE(t.setBitmap(7, 0b1011));
    EXPECT_TRUE(t.associated(7, 0));
    EXPECT_TRUE(t.associated(7, 1));
    EXPECT_FALSE(t.associated(7, 2));
    EXPECT_TRUE(t.associated(7, 3));
}

TEST(MdCfg, PartitionSemantics)
{
    // Paper semantics: entry j belongs to MD m iff
    // MD_{m-1}.T <= j < MD_m.T; MD 0 owns j < MD_0.T.
    MdCfgTable t(4, 64);
    EXPECT_TRUE(t.setTop(0, 4));
    EXPECT_TRUE(t.setTop(1, 10));
    EXPECT_TRUE(t.setTop(2, 10)); // empty MD
    EXPECT_TRUE(t.setTop(3, 16));

    EXPECT_EQ(t.window(0).lo, 0u);
    EXPECT_EQ(t.window(0).hi, 4u);
    EXPECT_EQ(t.window(1).lo, 4u);
    EXPECT_EQ(t.window(1).hi, 10u);
    EXPECT_EQ(t.window(2).lo, 10u);
    EXPECT_EQ(t.window(2).hi, 10u);

    EXPECT_EQ(t.mdOfEntry(0), 0);
    EXPECT_EQ(t.mdOfEntry(3), 0);
    EXPECT_EQ(t.mdOfEntry(4), 1);
    EXPECT_EQ(t.mdOfEntry(9), 1);
    EXPECT_EQ(t.mdOfEntry(10), 3); // MD2 is empty
    EXPECT_EQ(t.mdOfEntry(15), 3);
    EXPECT_EQ(t.mdOfEntry(16), -1);
}

TEST(MdCfg, RejectsNonMonotonic)
{
    MdCfgTable t(3, 64);
    EXPECT_TRUE(t.setTop(0, 8));
    EXPECT_TRUE(t.setTop(1, 16));
    EXPECT_FALSE(t.setTop(0, 20)); // would exceed MD1's top
    EXPECT_FALSE(t.setTop(2, 12)); // below MD1's top
    EXPECT_FALSE(t.setTop(1, 4));  // below MD0's top
    EXPECT_TRUE(t.setTop(2, 64));
    EXPECT_FALSE(t.setTop(2, 65)); // beyond entry count
}

TEST(MdCfg, ResetZeroesTops)
{
    // There is no reset register: software resets the table with
    // setTop(md, 0), lowest MD first, since a zero top may not sit
    // below a programmed one.
    MdCfgTable t(3, 64);
    ASSERT_TRUE(t.setTop(0, 8));
    ASSERT_TRUE(t.setTop(1, 16));
    ASSERT_TRUE(t.setTop(2, 32));
    EXPECT_FALSE(t.setTop(2, 0));
    EXPECT_EQ(t.top(2), 32u);
    for (MdIndex md = 0; md < 3; ++md)
        EXPECT_TRUE(t.setTop(md, 0)) << md;
    for (MdIndex md = 0; md < 3; ++md)
        EXPECT_EQ(t.top(md), 0u) << md;
    EXPECT_EQ(t.mdOfEntry(0), -1);
    EXPECT_EQ(t.mdOfEntry(31), -1);
}

/** First index whose owner disagrees with the MD windows, or -1:
 * entry j must lie in window(m) exactly when mdOfEntry(j) == m. */
int
firstWindowMismatch(const MdCfgTable &t, unsigned num_entries)
{
    std::vector<MdCfgTable::Window> windows;
    for (MdIndex md = 0; md < t.numMds(); ++md) {
        windows.push_back(t.window(md));
        EXPECT_LE(windows.back().lo, windows.back().hi) << "MD " << md;
    }
    for (unsigned j = 0; j < num_entries; ++j) {
        const int owner = t.mdOfEntry(j);
        for (MdIndex md = 0; md < t.numMds(); ++md) {
            const bool inside = windows[md].lo <= j && j < windows[md].hi;
            if (inside != (owner == static_cast<int>(md)))
                return static_cast<int>(j);
        }
    }
    return -1;
}

TEST(MdCfg, WindowMatchesMdOfEntry)
{
    // An unprogrammed MD between programmed ones owns nothing, and the
    // next MD's window starts at the nearest programmed top below it.
    MdCfgTable gap(4, 64);
    ASSERT_TRUE(gap.setTop(0, 4));
    ASSERT_TRUE(gap.setTop(2, 10));
    EXPECT_EQ(gap.window(1).lo, gap.window(1).hi);
    EXPECT_EQ(gap.window(2).lo, 4u);
    EXPECT_EQ(gap.window(2).hi, 10u);
    EXPECT_EQ(gap.window(3).lo, gap.window(3).hi);
    EXPECT_EQ(firstWindowMismatch(gap, 64), -1);

    // Seeded setTop sequences at 1, 8 and 63 MDs: accepted tops,
    // rejected (non-monotone or oversized) ones, zero tops left
    // between programmed ones, and whole-table clears (every top
    // written to 0, lowest MD first). After every write the windows
    // must agree with mdOfEntry at every index, one past the table's
    // end included.
    constexpr unsigned kEntries = 96;
    for (const unsigned mds : {1u, 8u, 63u}) {
        MdCfgTable t(mds, kEntries);
        Rng rng(0x5eed + mds);
        unsigned accepted = 0, rejected = 0, clears = 0, gaps = 0;
        for (unsigned step = 0; step < 3000; ++step) {
            if (rng.chance(0.01)) {
                for (MdIndex md = 0; md < mds; ++md)
                    ASSERT_TRUE(t.setTop(md, 0));
                ++clears;
            } else {
                const MdIndex md = static_cast<MdIndex>(rng.below(mds));
                const unsigned top =
                    rng.chance(0.1)
                        ? 0
                        : static_cast<unsigned>(rng.below(kEntries + 2));
                if (t.setTop(md, top))
                    ++accepted;
                else
                    ++rejected;
            }
            for (MdIndex md = 1; md + 1 < mds; ++md) {
                if (t.top(md) == 0 && t.top(md - 1) != 0 &&
                    t.top(mds - 1) != 0) {
                    ++gaps;
                    break;
                }
            }
            ASSERT_EQ(firstWindowMismatch(t, kEntries + 1), -1)
                << mds << " MDs, step " << step;
        }
        EXPECT_GT(accepted, 100u) << mds << " MDs";
        EXPECT_GT(rejected, 10u) << mds << " MDs";
        EXPECT_GT(clears, 10u) << mds << " MDs";
        if (mds >= 3) {
            EXPECT_GT(gaps, 100u) << mds << " MDs";
        }
    }
}

TEST(TableChangeHook, EntrySetAndClearFireOnce)
{
    EntryTable t(8);
    std::vector<bool> seen; // entry 3 enabled, read inside the hook
    t.setChangeHook([&] { seen.push_back(t.get(3).enabled()); });

    EXPECT_TRUE(t.set(3, Entry::range(0x1000, 0x10, Perm::Read)));
    EXPECT_EQ(seen, (std::vector<bool>{true})); // after the write

    // clear() is a write of Entry::off() and fires too.
    EXPECT_TRUE(t.clear(3));
    EXPECT_EQ(seen, (std::vector<bool>{true, false}));

    // A machine-mode rewrite of a locked entry is accepted and fires.
    t.lock(3);
    EXPECT_TRUE(t.set(3, Entry::range(0x2000, 0x10, Perm::Write),
                      /*machine_mode=*/true));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(TableChangeHook, EntryLockAndRejectedWritesAreSilent)
{
    EntryTable t(4);
    t.set(0, Entry::range(0x0, 0x10, Perm::Read));
    unsigned fired = 0;
    t.setChangeHook([&] { ++fired; });

    // Lock-bit changes never alter a verdict.
    t.lock(0);
    EXPECT_EQ(fired, 0u);

    // Rejected unprivileged writes to the locked entry change nothing.
    EXPECT_FALSE(t.set(0, Entry::range(0x2000, 0x10, Perm::ReadWrite)));
    EXPECT_FALSE(t.clear(0));
    EXPECT_EQ(fired, 0u);
    EXPECT_TRUE(t.get(0).enabled());
}

TEST(TableChangeHook, MdcfgTopMoveFiresOnce)
{
    MdCfgTable t(3, 64);
    std::vector<unsigned> seen; // MD 1's top, read inside the hook
    t.setChangeHook([&] { seen.push_back(t.top(1)); });

    EXPECT_TRUE(t.setTop(0, 8));
    EXPECT_TRUE(t.setTop(1, 16)); // grow
    EXPECT_TRUE(t.setTop(1, 12)); // shrink
    EXPECT_TRUE(t.setTop(0, 0));  // MD 0 back to unprogrammed
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 16, 12, 12}));
}

TEST(TableChangeHook, MdcfgRejectedAndNoOpWritesAreSilent)
{
    MdCfgTable t(3, 64);
    t.setTop(0, 8);
    t.setTop(1, 16);
    unsigned fired = 0;
    t.setChangeHook([&] { ++fired; });

    // Rejected writes (non-monotone, past the entry count, no such
    // MD) change nothing.
    EXPECT_FALSE(t.setTop(1, 4));
    EXPECT_FALSE(t.setTop(2, 12));
    EXPECT_FALSE(t.setTop(2, 65));
    EXPECT_FALSE(t.setTop(3, 20));
    EXPECT_EQ(fired, 0u);

    // An accepted same-value write moves no entry between windows.
    EXPECT_TRUE(t.setTop(1, 16));
    EXPECT_EQ(fired, 0u);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
