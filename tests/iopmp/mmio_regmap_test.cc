/**
 * @file
 * Unit tests for the sIOPMP MMIO register window: the interface the
 * secure monitor uses over the periphery bus.
 */

#include <gtest/gtest.h>

#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"

namespace siopmp {
namespace iopmp {
namespace {

class RegmapTest : public ::testing::Test
{
  protected:
    RegmapTest()
        : unit(IopmpConfig{64, 64, 63}, CheckerKind::Tree, 1)
    {
        bus.map("siopmp", {0x1000'0000, regmap::kWindowSize}, &unit);
    }

    std::uint64_t
    rd(Addr offset)
    {
        auto r = bus.read(0x1000'0000 + offset);
        EXPECT_TRUE(r.ok);
        return r.value;
    }

    void
    wr(Addr offset, std::uint64_t value)
    {
        EXPECT_TRUE(bus.write(0x1000'0000 + offset, value).ok);
    }

    SIopmp unit;
    mem::MmioBus bus;
};

TEST_F(RegmapTest, Src2MdRoundTrip)
{
    wr(regmap::kSrc2MdBase + 5 * 8, 0b1010);
    EXPECT_EQ(unit.src2md().bitmap(5), 0b1010u);
    EXPECT_EQ(rd(regmap::kSrc2MdBase + 5 * 8), 0b1010u);
}

TEST_F(RegmapTest, Src2MdLockBitSticky)
{
    wr(regmap::kSrc2MdBase + 2 * 8, (std::uint64_t{1} << 63) | 0b1);
    EXPECT_TRUE(unit.src2md().locked(2));
    EXPECT_TRUE(rd(regmap::kSrc2MdBase + 2 * 8) >> 63);
    // Further writes to a locked row are ignored.
    wr(regmap::kSrc2MdBase + 2 * 8, 0b1111);
    EXPECT_EQ(unit.src2md().bitmap(2), 0b1u);
}

TEST_F(RegmapTest, MdCfgRoundTrip)
{
    wr(regmap::kMdCfgBase + 0 * 8, 4);
    wr(regmap::kMdCfgBase + 1 * 8, 12);
    EXPECT_EQ(unit.mdcfg().top(0), 4u);
    EXPECT_EQ(rd(regmap::kMdCfgBase + 1 * 8), 12u);
}

TEST_F(RegmapTest, EntryWriteCommitsOnCfg)
{
    const Addr e5 = regmap::kEntryBase + 5 * regmap::kEntryStride;
    wr(e5 + 0, 0x8000'0000);            // base
    wr(e5 + 8, 0x1000);                 // size
    EXPECT_FALSE(unit.entryTable().get(5).enabled()); // not yet
    wr(e5 + 16, static_cast<std::uint64_t>(Perm::ReadWrite) |
                    (static_cast<std::uint64_t>(EntryMode::Range) << 2));
    const Entry &entry = unit.entryTable().get(5);
    EXPECT_TRUE(entry.enabled());
    EXPECT_EQ(entry.base(), 0x8000'0000u);
    EXPECT_EQ(entry.size(), 0x1000u);
    EXPECT_EQ(entry.perm(), Perm::ReadWrite);

    // Read back all three words.
    EXPECT_EQ(rd(e5 + 0), 0x8000'0000u);
    EXPECT_EQ(rd(e5 + 8), 0x1000u);
    EXPECT_EQ(rd(e5 + 16) & 0x3, static_cast<std::uint64_t>(Perm::ReadWrite));
}

TEST_F(RegmapTest, EntryStagingIsPerEntryAndConsumedByCommit)
{
    const Addr e3 = regmap::kEntryBase + 3 * regmap::kEntryStride;
    const Addr e5 = regmap::kEntryBase + 5 * regmap::kEntryStride;
    const std::uint64_t range_rw =
        static_cast<std::uint64_t>(Perm::ReadWrite) |
        (regmap::kModeRange << 2);
    const std::uint64_t lock = std::uint64_t{1} << 7;

    // Base and size staged for entries 3 and 5, interleaved: each cfg
    // write commits its own entry's words.
    wr(e3 + 0, 0x3000);
    wr(e5 + 0, 0x5000);
    wr(e5 + 8, 0x500);
    wr(e3 + 8, 0x300);
    wr(e5 + 16, range_rw);
    wr(e3 + 16, range_rw | lock);
    const EntryTable &table = unit.entryTable();
    EXPECT_EQ(table.get(3).base(), 0x3000u);
    EXPECT_EQ(table.get(3).size(), 0x300u);
    EXPECT_TRUE(table.get(3).locked());
    EXPECT_EQ(table.get(5).base(), 0x5000u);
    EXPECT_EQ(table.get(5).size(), 0x500u);

    // An accepted commit consumed entry 5's words: a bare cfg write
    // commits from zeroed words, and a Range of size 0 is Off.
    wr(e5 + 16, range_rw);
    EXPECT_FALSE(table.get(5).enabled());

    // A lock-rejected commit leaves the entry as it was. The lock is
    // sticky for the life of the table: a machine-mode rewrite turns
    // the entry off but keeps it locked, so every later commit through
    // the window is rejected too, whatever words it staged.
    wr(e3 + 0, 0x7000);
    wr(e3 + 8, 0x700);
    wr(e3 + 16, range_rw);
    EXPECT_EQ(unit.rejectedWrites(), 1u);
    EXPECT_EQ(table.get(3).base(), 0x3000u);
    ASSERT_TRUE(unit.entryTable().set(3, Entry::off(), /*machine_mode=*/true));
    EXPECT_FALSE(table.get(3).enabled());
    EXPECT_TRUE(table.get(3).locked());
    wr(e3 + 0, 0x7000);
    wr(e3 + 8, 0x700);
    wr(e3 + 16, range_rw);
    EXPECT_FALSE(table.get(3).enabled());
    EXPECT_EQ(unit.rejectedWrites(), 2u);
}

TEST_F(RegmapTest, EntryOffModeDisables)
{
    const Addr e0 = regmap::kEntryBase;
    wr(e0 + 0, 0x1000);
    wr(e0 + 8, 0x100);
    wr(e0 + 16, static_cast<std::uint64_t>(Perm::Read) |
                    (static_cast<std::uint64_t>(EntryMode::Range) << 2));
    EXPECT_TRUE(unit.entryTable().get(0).enabled());
    wr(e0 + 16, 0); // mode Off
    EXPECT_FALSE(unit.entryTable().get(0).enabled());
}

TEST_F(RegmapTest, TorModeResolvesAgainstPreviousEntry)
{
    // Program entry 0 as a plain range, entry 1 as TOR: its region
    // must run from entry 0's end to its own staged ADDR.
    const Addr e0 = regmap::kEntryBase;
    wr(e0 + 0, 0x8000'0000);
    wr(e0 + 8, 0x1000);
    wr(e0 + 16, static_cast<std::uint64_t>(Perm::Read) |
                    (regmap::kModeRange << 2));

    const Addr e1 = regmap::kEntryBase + regmap::kEntryStride;
    wr(e1 + 0, 0x8000'4000); // top of range
    wr(e1 + 16, static_cast<std::uint64_t>(Perm::ReadWrite) |
                    (regmap::kModeTor << 2));

    const Entry &entry = unit.entryTable().get(1);
    ASSERT_TRUE(entry.enabled());
    EXPECT_EQ(entry.base(), 0x8000'1000u);
    EXPECT_EQ(entry.size(), 0x3000u);
    EXPECT_EQ(entry.perm(), Perm::ReadWrite);
}

TEST_F(RegmapTest, TorAtEntryZeroStartsAtAddressZero)
{
    const Addr e0 = regmap::kEntryBase;
    wr(e0 + 0, 0x1000);
    wr(e0 + 16, static_cast<std::uint64_t>(Perm::Read) |
                    (regmap::kModeTor << 2));
    const Entry &entry = unit.entryTable().get(0);
    ASSERT_TRUE(entry.enabled());
    EXPECT_EQ(entry.base(), 0x0u);
    EXPECT_EQ(entry.size(), 0x1000u);
}

TEST_F(RegmapTest, TorWithNonIncreasingTopDisablesEntry)
{
    const Addr e0 = regmap::kEntryBase;
    wr(e0 + 0, 0x8000'0000);
    wr(e0 + 8, 0x1000);
    wr(e0 + 16, static_cast<std::uint64_t>(Perm::Read) |
                    (regmap::kModeRange << 2));
    const Addr e1 = regmap::kEntryBase + regmap::kEntryStride;
    wr(e1 + 0, 0x8000'0800); // below entry 0's end: empty region
    wr(e1 + 16, static_cast<std::uint64_t>(Perm::Read) |
                    (regmap::kModeTor << 2));
    EXPECT_FALSE(unit.entryTable().get(1).enabled());
}

TEST_F(RegmapTest, BlockBitmapWholeRegister)
{
    wr(regmap::kBlockBitmap, 0b101);
    EXPECT_TRUE(unit.blockBitmap().blocked(0));
    EXPECT_FALSE(unit.blockBitmap().blocked(1));
    EXPECT_TRUE(unit.blockBitmap().blocked(2));
    EXPECT_EQ(rd(regmap::kBlockBitmap), 0b101u);
    wr(regmap::kBlockBitmap, 0);
    EXPECT_EQ(unit.blockBitmap().word(0), 0u);
}

TEST_F(RegmapTest, EsidRegisterValidBit)
{
    EXPECT_EQ(rd(regmap::kEsid), 0u);
    wr(regmap::kEsid, (std::uint64_t{1} << 63) | 4242);
    ASSERT_TRUE(unit.mountedCold().has_value());
    EXPECT_EQ(*unit.mountedCold(), 4242u);
    EXPECT_EQ(rd(regmap::kEsid) & ~(std::uint64_t{1} << 63), 4242u);
    wr(regmap::kEsid, 0); // clear valid
    EXPECT_FALSE(unit.mountedCold().has_value());
}

TEST_F(RegmapTest, CamRowsViaMmio)
{
    wr(regmap::kCamBase + 9 * 8, (std::uint64_t{1} << 63) | 777);
    EXPECT_EQ(unit.cam().peek(777), std::optional<Sid>(9));
    EXPECT_EQ(rd(regmap::kCamBase + 9 * 8) & 0xffff, 777u);
    wr(regmap::kCamBase + 9 * 8, 0); // invalidate
    EXPECT_FALSE(unit.cam().peek(777).has_value());
}

// Every stateVersion() move wakes each stall waiter, so an
// accepted config write moves it exactly once, as it does
// configEpoch(): through the written structure's change hook, or else
// with the epoch. A rejected write, or a staging write, moves neither.
TEST_F(RegmapTest, AcceptedWriteMovesVersionAndEpochOnce)
{
    constexpr std::uint64_t kValid = std::uint64_t{1} << 63;
    const Addr e5 = regmap::kEntryBase + 5 * regmap::kEntryStride;
    const std::uint64_t range_rw =
        static_cast<std::uint64_t>(Perm::ReadWrite) |
        (regmap::kModeRange << 2);
    const std::uint64_t lock = std::uint64_t{1} << 7;

    auto expectMoves = [&](const char *what, Addr offset,
                           std::uint64_t value, std::uint64_t moves) {
        const std::uint64_t version = unit.stateVersion();
        const std::uint64_t epoch = unit.configEpoch();
        wr(offset, value);
        EXPECT_EQ(unit.stateVersion() - version, moves) << what;
        EXPECT_EQ(unit.configEpoch() - epoch, moves) << what;
    };

    expectMoves("entry base", e5 + 0, 0x8000'0000, 0);
    expectMoves("entry size", e5 + 8, 0x1000, 0);
    expectMoves("entry cfg commit", e5 + 16, range_rw | lock, 1);
    expectMoves("locked entry cfg", e5 + 16, range_rw, 0);

    expectMoves("MDCFG top", regmap::kMdCfgBase + 0 * 8, 4, 1);
    expectMoves("same-value MDCFG top", regmap::kMdCfgBase + 0 * 8, 4, 1);
    expectMoves("MDCFG top above", regmap::kMdCfgBase + 1 * 8, 8, 1);
    expectMoves("non-monotone MDCFG top", regmap::kMdCfgBase + 0 * 8, 9,
                0);

    expectMoves("SRC2MD row", regmap::kSrc2MdBase + 2 * 8, 0b11, 1);
    expectMoves("SRC2MD row and lock", regmap::kSrc2MdBase + 2 * 8,
                kValid | 0b1, 1);
    expectMoves("locked SRC2MD row", regmap::kSrc2MdBase + 2 * 8, 0b10, 0);

    expectMoves("fresh CAM row", regmap::kCamBase + 3 * 8, kValid | 77, 1);
    expectMoves("CAM row move", regmap::kCamBase + 4 * 8, kValid | 77, 1);
    EXPECT_EQ(unit.cam().peek(77), std::optional<Sid>(4));
    expectMoves("CAM row invalidate", regmap::kCamBase + 4 * 8, 0, 1);
    expectMoves("empty CAM row invalidate", regmap::kCamBase + 4 * 8, 0, 1);

    expectMoves("block word", regmap::kBlockBitmap, 0b101, 1);
    expectMoves("eSID mount", regmap::kEsid, kValid | 4242, 1);
    expectMoves("eSID unmount", regmap::kEsid, 0, 1);
}

TEST_F(RegmapTest, ErrorRecordReadableAndAckable)
{
    // Cause a violation: hot device with no matching entry.
    unit.cam().set(0, 5);
    unit.src2md().associate(0, 0);
    unit.mdcfg().setTop(0, 1);
    unit.authorize(5, 0xdead'0000, 8, Perm::Write, /*now=*/3);

    EXPECT_EQ(rd(regmap::kErrAddr), 0xdead'0000u);
    EXPECT_EQ(rd(regmap::kErrDevice), 5u);
    const auto info = rd(regmap::kErrInfo);
    EXPECT_TRUE(info >> 63);
    EXPECT_EQ(info & 0x3, static_cast<std::uint64_t>(Perm::Write));

    wr(regmap::kErrInfo, 0); // acknowledge
    EXPECT_EQ(rd(regmap::kErrInfo), 0u);
    EXPECT_EQ(rd(regmap::kErrAddr), 0u);
}

TEST_F(RegmapTest, BlockWindowBeyondWordZero)
{
    // Wide configuration: the block bitmap is a windowed register,
    // word k at kBlockBitmap + 8*k. Regression for the hole where
    // only word 0 was wired and SIDs >= 64 could never be blocked.
    SIopmp wide(IopmpConfig{48, 128, 8}, CheckerKind::Linear, 1);
    wide.cam().set(100, 55); // device 55 -> SID 100

    wide.mmioWrite(regmap::kBlockBitmap + 8, std::uint64_t{1} << 36);
    EXPECT_TRUE(wide.blockBitmap().blocked(100));
    EXPECT_EQ(wide.mmioRead(regmap::kBlockBitmap + 8),
              std::uint64_t{1} << 36);
    EXPECT_EQ(wide.mmioRead(regmap::kBlockBitmap), 0u); // word 0 clear

    EXPECT_EQ(wide.authorize(55, 0x1000, 8, Perm::Read).status,
              AuthStatus::Blocked);
    wide.mmioWrite(regmap::kBlockBitmap + 8, 0);
    EXPECT_NE(wide.authorize(55, 0x1000, 8, Perm::Read).status,
              AuthStatus::Blocked);
}

TEST_F(RegmapTest, BlockWindowDoesNotCollideWithControlRegisters)
{
    // The window reserves room up to kEsid: the last mapped word and
    // the first control register must not alias.
    EXPECT_LT(regmap::kBlockBitmap + 8 * ((2048 / 64) - 1), regmap::kEsid);
    SIopmp wide(IopmpConfig{48, 128, 8}, CheckerKind::Linear, 1);
    wide.mmioWrite(regmap::kEsid, (std::uint64_t{1} << 63) | 7777);
    EXPECT_EQ(wide.blockBitmap().word(1), 0u);
    ASSERT_TRUE(wide.mountedCold().has_value());
    EXPECT_EQ(*wide.mountedCold(), 7777u);
}

TEST_F(RegmapTest, DeterministicMmioCost)
{
    const Cycle before = bus.totalCycles();
    const Addr e0 = regmap::kEntryBase;
    wr(e0 + 0, 0x1000);
    wr(e0 + 8, 0x100);
    wr(e0 + 16, 0x5);
    // Three register writes at 2 cycles each: fixed, synchronous cost
    // (the paper's contrast with the IOMMU's async command queue).
    EXPECT_EQ(bus.totalCycles() - before, 6u);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
