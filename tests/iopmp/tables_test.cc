/**
 * @file
 * Unit tests for the SRC2MD, MDCFG and entry tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
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
    EXPECT_TRUE(t.deassociate(5, 0));
    EXPECT_FALSE(t.associated(5, 0));
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
    EXPECT_FALSE(t.deassociate(3, 1));
    EXPECT_FALSE(t.setBitmap(3, 0));
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

    EXPECT_EQ(t.lo(0), 0u);
    EXPECT_EQ(t.hi(0), 4u);
    EXPECT_EQ(t.lo(1), 4u);
    EXPECT_EQ(t.hi(1), 10u);
    EXPECT_EQ(t.lo(2), 10u);
    EXPECT_EQ(t.hi(2), 10u);

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

TEST(MdCfg, OwnersOfUsesEffectiveWindows)
{
    MdCfgTable t(4, 64);
    t.setTop(0, 4);
    t.setTop(1, 10);
    t.setTop(2, 10); // empty MD
    t.setTop(3, 16);

    EXPECT_EQ(t.ownersOf(0, 4), 0x1u);
    EXPECT_EQ(t.ownersOf(3, 5), 0x3u);
    EXPECT_EQ(t.ownersOf(10, 16), 0x8u); // MD2's window is empty
    EXPECT_EQ(t.ownersOf(0, 16), 0xbu);
    EXPECT_EQ(t.ownersOf(16, 64), 0x0u); // past every programmed top
    EXPECT_EQ(t.ownersOf(5, 5), 0x0u);   // empty query range
}

/** First index where the sweep disagrees with mdOfEntry, or -1. */
int
firstOwnerMismatch(const MdCfgTable &t, std::vector<int> &owners)
{
    std::fill(owners.begin(), owners.end(), 1000); // every slot rewritten
    t.mdOfEntries(owners);
    for (unsigned j = 0; j < owners.size(); ++j) {
        if (owners[j] != t.mdOfEntry(j))
            return static_cast<int>(j);
    }
    return -1;
}

TEST(MdCfg, MdOfEntriesMatchesMdOfEntry)
{
    // Seeded setTop sequences at 1, 8 and 63 MDs: accepted tops,
    // rejected (non-monotone or oversized) ones, zero tops left
    // between programmed ones, and whole-table clears (every top
    // written to 0, lowest MD first). After every write the
    // sweep must equal mdOfEntry at every index, for an owners
    // vector shorter than the table and one running past its end.
    constexpr unsigned kEntries = 96;
    for (const unsigned mds : {1u, 8u, 63u}) {
        MdCfgTable t(mds, kEntries);
        Rng rng(0x5eed + mds);
        std::vector<int> part(kEntries / 3), past(kEntries + 4);
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
            ASSERT_EQ(firstOwnerMismatch(t, part), -1)
                << mds << " MDs, step " << step;
            ASSERT_EQ(firstOwnerMismatch(t, past), -1)
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

/** Records every TableListener callback for event-by-event assertions. */
struct RecordingListener final : public TableListener {
    struct Event {
        enum class Kind { Entries, Windows } kind;
        std::uint64_t md_mask = 0;
        unsigned lo = 0;
        unsigned hi = 0;
    };

    void
    onEntriesChanged(unsigned lo, unsigned hi) override
    {
        events.push_back({Event::Kind::Entries, 0, lo, hi});
    }

    void
    onMdWindowsChanged(std::uint64_t md_mask, unsigned lo,
                       unsigned hi) override
    {
        events.push_back({Event::Kind::Windows, md_mask, lo, hi});
    }

    std::vector<Event> events;
};

TEST(TableListenerTest, EntrySetReportsExactRange)
{
    EntryTable t(8);
    RecordingListener listener;
    t.addListener(&listener);

    EXPECT_TRUE(t.set(3, Entry::range(0x1000, 0x10, Perm::Read)));
    ASSERT_EQ(listener.events.size(), 1u);
    EXPECT_EQ(listener.events[0].kind,
              RecordingListener::Event::Kind::Entries);
    EXPECT_EQ(listener.events[0].lo, 3u);
    EXPECT_EQ(listener.events[0].hi, 4u);

    // clear() is a write of Entry::off() and must report too.
    EXPECT_TRUE(t.clear(5));
    ASSERT_EQ(listener.events.size(), 2u);
    EXPECT_EQ(listener.events[1].lo, 5u);
    EXPECT_EQ(listener.events[1].hi, 6u);

    t.removeListener(&listener);
}

TEST(TableListenerTest, EntryLockAndRejectedWritesAreSilent)
{
    EntryTable t(4);
    t.set(0, Entry::range(0x0, 0x10, Perm::Read));

    RecordingListener listener;
    t.addListener(&listener);

    // Lock-bit changes never alter a verdict: no callback.
    t.lock(0);
    EXPECT_TRUE(listener.events.empty());

    // A rejected unprivileged write to the locked entry changes
    // nothing and must not report.
    EXPECT_FALSE(t.set(0, Entry::range(0x2000, 0x10, Perm::ReadWrite)));
    EXPECT_TRUE(listener.events.empty());

    // The machine-mode override succeeds and reports.
    EXPECT_TRUE(t.set(0, Entry::range(0x2000, 0x10, Perm::ReadWrite),
                      /*machine_mode=*/true));
    ASSERT_EQ(listener.events.size(), 1u);
    EXPECT_EQ(listener.events[0].lo, 0u);

    t.removeListener(&listener);
}

TEST(TableListenerTest, EntryResetAndRemoveListener)
{
    EntryTable t(4);
    RecordingListener listener;
    t.addListener(&listener);

    // A reset is a machine-mode clear of every entry: one report each.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(t.clear(i, /*machine_mode=*/true));
    ASSERT_EQ(listener.events.size(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(listener.events[i].kind,
                  RecordingListener::Event::Kind::Entries);
        EXPECT_EQ(listener.events[i].lo, i);
        EXPECT_EQ(listener.events[i].hi, i + 1);
    }

    // After removal, mutations no longer reach the listener.
    t.removeListener(&listener);
    t.set(1, Entry::range(0x0, 0x8, Perm::Read));
    t.clear(2);
    EXPECT_EQ(listener.events.size(), 4u);
}

TEST(TableListenerTest, EntryMultipleListenersAllNotified)
{
    EntryTable t(4);
    RecordingListener a, b;
    t.addListener(&a);
    t.addListener(&b);
    t.set(2, Entry::range(0x0, 0x8, Perm::Read));
    EXPECT_EQ(a.events.size(), 1u);
    EXPECT_EQ(b.events.size(), 1u);
    t.removeListener(&a);
    t.removeListener(&b);
}

TEST(TableListenerTest, MdcfgTopWriteReportsMovedRangeAndOwners)
{
    MdCfgTable t(4, 64);
    t.setTop(0, 4);
    t.setTop(1, 10);

    RecordingListener listener;
    t.addListener(&listener);

    // Growing MD1's window 10 -> 12 moves entries [10, 12) from
    // unowned into MD1: only MD1 is affected.
    EXPECT_TRUE(t.setTop(1, 12));
    ASSERT_EQ(listener.events.size(), 1u);
    EXPECT_EQ(listener.events[0].kind,
              RecordingListener::Event::Kind::Windows);
    EXPECT_EQ(listener.events[0].md_mask, 0x2u);
    EXPECT_EQ(listener.events[0].lo, 10u);
    EXPECT_EQ(listener.events[0].hi, 12u);

    // Shrinking MD0 4 -> 2 hands entries [2, 4) from MD0 to MD1: the
    // mask must include the loser AND the gainer (before∪after).
    EXPECT_TRUE(t.setTop(0, 2));
    ASSERT_EQ(listener.events.size(), 2u);
    EXPECT_EQ(listener.events[1].md_mask, 0x3u);
    EXPECT_EQ(listener.events[1].lo, 2u);
    EXPECT_EQ(listener.events[1].hi, 4u);

    t.removeListener(&listener);
}

TEST(TableListenerTest, MdcfgRejectedAndNoOpWritesAreSilent)
{
    MdCfgTable t(3, 64);
    t.setTop(0, 8);
    t.setTop(1, 16);

    RecordingListener listener;
    t.addListener(&listener);

    // Rejected (non-monotonic / out-of-range) writes change nothing.
    EXPECT_FALSE(t.setTop(1, 4));
    EXPECT_FALSE(t.setTop(2, 12));
    EXPECT_FALSE(t.setTop(2, 65));
    EXPECT_TRUE(listener.events.empty());

    // An accepted same-value write moves no entries between windows.
    EXPECT_TRUE(t.setTop(1, 16));
    EXPECT_TRUE(listener.events.empty());

    t.removeListener(&listener);
}

TEST(TableListenerTest, MdcfgResetReports)
{
    MdCfgTable t(3, 64);
    t.setTop(0, 8);
    t.setTop(1, 16);

    RecordingListener listener;
    t.addListener(&listener);

    // A reset zeroes the tops lowest MD first. Zeroing MD0 hands
    // [0, 8) to MD1, whose window then starts at 0.
    EXPECT_TRUE(t.setTop(0, 0));
    // Zeroing MD1 leaves [0, 16) unowned.
    EXPECT_TRUE(t.setTop(1, 0));
    ASSERT_EQ(listener.events.size(), 2u);
    EXPECT_EQ(listener.events[0].kind,
              RecordingListener::Event::Kind::Windows);
    EXPECT_EQ(listener.events[0].md_mask, 0x3u);
    EXPECT_EQ(listener.events[0].lo, 0u);
    EXPECT_EQ(listener.events[0].hi, 8u);
    EXPECT_EQ(listener.events[1].md_mask, 0x2u);
    EXPECT_EQ(listener.events[1].lo, 0u);
    EXPECT_EQ(listener.events[1].hi, 16u);
    t.removeListener(&listener);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
