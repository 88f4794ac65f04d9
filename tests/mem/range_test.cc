/**
 * @file
 * Unit tests for address ranges.
 */

#include <gtest/gtest.h>

#include "mem/range.hh"

namespace siopmp {
namespace mem {
namespace {

TEST(Range, ContainsAndEnd)
{
    Range r{0x1000, 0x100};
    EXPECT_EQ(r.end(), 0x1100u);
    EXPECT_TRUE(r.contains(0x1000));
    EXPECT_TRUE(r.contains(0x10ff));
    EXPECT_FALSE(r.contains(0x1100));
    EXPECT_FALSE(r.contains(0xfff));
}

TEST(Range, ContainsBlock)
{
    Range r{0x1000, 0x100};
    EXPECT_TRUE(r.containsBlock(0x1000, 0x100));
    EXPECT_TRUE(r.containsBlock(0x1080, 0x80));
    EXPECT_FALSE(r.containsBlock(0x1080, 0x81));
    EXPECT_FALSE(r.containsBlock(0xfff, 2));
}

TEST(Range, ContainsBlockNoOverflow)
{
    Range r{0xffffffffffffff00ULL, 0x100};
    EXPECT_TRUE(r.containsBlock(0xffffffffffffff00ULL, 0x100));
    EXPECT_FALSE(r.containsBlock(0xffffffffffffff80ULL, 0x100));
}

TEST(Range, Overlaps)
{
    Range a{0x1000, 0x100};
    EXPECT_TRUE(a.overlaps({0x10ff, 1}));
    EXPECT_TRUE(a.overlaps({0x0, 0x1001}));
    EXPECT_FALSE(a.overlaps({0x1100, 0x100}));
    EXPECT_FALSE(a.overlaps({0x0, 0x1000}));
}

} // namespace
} // namespace mem
} // namespace siopmp
