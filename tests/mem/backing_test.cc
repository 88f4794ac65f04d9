/**
 * @file
 * Unit tests for the sparse memory backing store.
 */

#include <gtest/gtest.h>

#include <array>

#include "mem/memory.hh"

namespace siopmp {
namespace mem {
namespace {

TEST(Backing, UnwrittenReadsAsZero)
{
    Backing m;
    EXPECT_EQ(m.read8(0x1234), 0);
    EXPECT_EQ(m.read64(0xdeadbeef), 0u);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

TEST(Backing, ByteRoundTrip)
{
    Backing m;
    m.write8(0x42, 0xab);
    EXPECT_EQ(m.read8(0x42), 0xab);
    EXPECT_EQ(m.read8(0x43), 0);
}

TEST(Backing, Word64LittleEndian)
{
    Backing m;
    m.write64(0x100, 0x0807060504030201ULL);
    EXPECT_EQ(m.read8(0x100), 0x01);
    EXPECT_EQ(m.read8(0x107), 0x08);
    EXPECT_EQ(m.read64(0x100), 0x0807060504030201ULL);
}

TEST(Backing, StrobeMasksBytes)
{
    Backing m;
    m.write64(0x200, 0xffffffffffffffffULL);
    m.write64(0x200, 0x0, /*strobe=*/0x0f); // clear low 4 bytes only
    EXPECT_EQ(m.read64(0x200), 0xffffffff00000000ULL);
}

TEST(Backing, ZeroStrobeWritesNothing)
{
    Backing m;
    m.write64(0x300, 0x1122334455667788ULL);
    m.write64(0x300, 0xdeadbeefULL, /*strobe=*/0x00);
    EXPECT_EQ(m.read64(0x300), 0x1122334455667788ULL);
}

TEST(Backing, CrossPageAccess)
{
    Backing m;
    const Addr addr = 0x1000 - 4; // straddles a page boundary
    m.write64(addr, 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(m.read64(addr), 0xa1b2c3d4e5f60718ULL);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(Backing, StraddlingWordMatchesItsBytes)
{
    Backing m;
    const Addr addr = 0x2000 - 3; // 3 bytes below the edge, 5 above
    m.write64(addr, 0x1122334455667788ULL);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(m.read8(addr + i), 0x88 - 0x11 * i) << i;
    EXPECT_EQ(m.read64(addr), 0x1122334455667788ULL);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(Backing, StraddlingPartialStrobeTouchesOnlyStrobedPages)
{
    Backing m;
    const Addr addr = 0x3000 - 4;
    m.write64(addr, 0xa1b2c3d4e5f60718ULL, /*strobe=*/0x0f);
    EXPECT_EQ(m.allocatedPages(), 1u); // the upper bytes were not strobed
    EXPECT_EQ(m.read64(addr), 0x00000000e5f60718ULL);
    m.write64(addr, 0xa1b2c3d4e5f60718ULL, /*strobe=*/0x30);
    EXPECT_EQ(m.allocatedPages(), 2u);
    EXPECT_EQ(m.read64(addr), 0x0000c3d4e5f60718ULL);
}

TEST(Backing, PartialStrobeInsidePage)
{
    Backing m;
    m.write64(0x7000, 0x0807060504030201ULL, /*strobe=*/0xa5);
    EXPECT_EQ(m.read64(0x7000), 0x0800060000030001ULL);
    m.write64(0x7000, 0xffffffffffffffffULL, /*strobe=*/0x5a);
    EXPECT_EQ(m.read64(0x7000), 0x08ff06ffff03ff01ULL);
}

TEST(Backing, ZeroStrobeAllocatesNoPage)
{
    Backing m;
    m.write64(0x8000, 0xdeadbeefULL, /*strobe=*/0x00);
    m.write64(0x9000 - 4, 0xdeadbeefULL, /*strobe=*/0x00); // straddling
    EXPECT_EQ(m.allocatedPages(), 0u);
    m.write8(0x8010, 0x5a);
    m.write64(0x8000, 0xdeadbeefULL, /*strobe=*/0x00);
    EXPECT_EQ(m.allocatedPages(), 1u);
    EXPECT_EQ(m.read64(0x8000), 0u);
}

TEST(Backing, UnwrittenWordsReadZero)
{
    Backing m;
    m.write8(0xa008, 0x77);
    // Other words of an allocated page, and of a page never allocated.
    EXPECT_EQ(m.read64(0xa000), 0u);
    EXPECT_EQ(m.read64(0xaff8), 0u);
    EXPECT_EQ(m.read64(0xb000), 0u);
    // A word straddling from the allocated page into an unallocated one.
    m.write8(0xaffe, 0x42);
    EXPECT_EQ(m.read64(0xaffc), 0x0000000000420000ULL);
    EXPECT_EQ(m.allocatedPages(), 1u);
}

TEST(Backing, FillSetsRange)
{
    Backing m;
    m.fill(0x6000, 0x7e, 32);
    for (Addr a = 0x6000; a < 0x6020; ++a)
        EXPECT_EQ(m.read8(a), 0x7e);
    EXPECT_EQ(m.read8(0x6020), 0);
}

} // namespace
} // namespace mem
} // namespace siopmp
