/**
 * @file
 * Unit tests for the SID block bitmap.
 */

#include <gtest/gtest.h>

#include "iopmp/block.hh"

namespace siopmp {
namespace iopmp {
namespace {

TEST(BlockBitmap, StartsClear)
{
    SidBlockBitmap b(64);
    for (Sid sid = 0; sid < 64; ++sid)
        EXPECT_FALSE(b.blocked(sid));
    EXPECT_EQ(b.word(0), 0u);
}

TEST(BlockBitmap, BlockUnblockPerSid)
{
    SidBlockBitmap b(64);
    b.block(5);
    EXPECT_TRUE(b.blocked(5));
    EXPECT_FALSE(b.blocked(4));
    EXPECT_FALSE(b.blocked(6));
    b.unblock(5);
    EXPECT_FALSE(b.blocked(5));
}

TEST(BlockBitmap, PerSidIndependence)
{
    // The paper's point: blocking one SID must not affect others.
    SidBlockBitmap b(64);
    b.block(0);
    b.block(62);
    for (Sid sid = 1; sid < 62; ++sid)
        EXPECT_FALSE(b.blocked(sid));
    b.unblock(0);
    EXPECT_TRUE(b.blocked(62));
}

TEST(BlockBitmap, BlockAllAndUnblockAll)
{
    SidBlockBitmap b(64);
    b.blockAll();
    for (Sid sid = 0; sid < 64; ++sid)
        EXPECT_TRUE(b.blocked(sid));
    b.unblockAll();
    EXPECT_EQ(b.word(0), 0u);
}

TEST(BlockBitmap, SmallWidthBlockAll)
{
    SidBlockBitmap b(8);
    b.blockAll();
    EXPECT_EQ(b.word(0), 0xffu);
    EXPECT_FALSE(b.blocked(9)); // out of range reads as unblocked
}

TEST(BlockBitmap, RawMirrorsBits)
{
    SidBlockBitmap b(64);
    b.block(0);
    b.block(3);
    EXPECT_EQ(b.word(0), 0b1001u);
}

TEST(BlockBitmap, MultiWordBlockingCoversHighSids)
{
    // Regression: with a single backing word, SIDs >= 64 could never
    // be blocked — the §5.3 atomic-update guarantee silently vanished
    // at paper scale.
    SidBlockBitmap b(128);
    EXPECT_EQ(b.numWords(), 2u);
    b.block(100);
    EXPECT_TRUE(b.blocked(100));
    EXPECT_FALSE(b.blocked(36)); // same bit position, word 0
    EXPECT_EQ(b.word(1), std::uint64_t{1} << 36);
    EXPECT_EQ(b.word(0), 0u);
    b.unblock(100);
    EXPECT_FALSE(b.blocked(100));
}

TEST(BlockBitmap, BlockAllMasksPartialTailWord)
{
    SidBlockBitmap b(100);
    b.blockAll();
    EXPECT_EQ(b.word(0), ~std::uint64_t{0});
    EXPECT_EQ(b.word(1), (std::uint64_t{1} << 36) - 1); // SIDs 64..99
    b.unblockAll();
    EXPECT_EQ(b.word(1), 0u);
}

TEST(BlockBitmap, SetWordMasksInvalidBits)
{
    SidBlockBitmap b(72); // word 1 only has SIDs 64..71
    b.setWord(1, ~std::uint64_t{0});
    EXPECT_EQ(b.word(1), 0xffu);
    EXPECT_TRUE(b.blocked(71));
}

TEST(BlockBitmapDeath, OutOfRangeBlockAsserts)
{
    SidBlockBitmap b(8);
    EXPECT_DEATH(b.block(8), "range");
}

} // namespace
} // namespace iopmp
} // namespace siopmp
