/**
 * @file
 * Unit tests for the periphery MMIO bus.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/mmio.hh"

namespace siopmp {
namespace mem {
namespace {

/** Simple register file remembering writes. */
class FakeDevice : public MmioDevice
{
  public:
    std::uint64_t
    mmioRead(Addr offset) override
    {
        reads.push_back(offset);
        auto it = regs.find(offset);
        return it == regs.end() ? 0 : it->second;
    }

    void
    mmioWrite(Addr offset, std::uint64_t value) override
    {
        regs[offset] = value;
    }

    std::map<Addr, std::uint64_t> regs;
    std::vector<Addr> reads;
};

TEST(MmioBus, DispatchesToMappedDevice)
{
    MmioBus bus;
    FakeDevice dev;
    ASSERT_TRUE(bus.map("dev", {0x1000, 0x100}, &dev));

    auto w = bus.write(0x1008, 0x55);
    EXPECT_TRUE(w.ok);
    EXPECT_EQ(dev.regs[0x8], 0x55u);

    auto r = bus.read(0x1008);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0x55u);
    EXPECT_EQ(r.cost, MmioBus::kAccessCost);
}

TEST(MmioBus, UnmappedAccessFails)
{
    MmioBus bus;
    FakeDevice dev;
    bus.map("dev", {0x1000, 0x100}, &dev);
    EXPECT_FALSE(bus.read(0x2000).ok);
    EXPECT_FALSE(bus.write(0x0fff, 1).ok);
}

TEST(MmioBus, RejectsOverlappingWindows)
{
    MmioBus bus;
    FakeDevice a, b;
    EXPECT_TRUE(bus.map("a", {0x1000, 0x100}, &a));
    EXPECT_FALSE(bus.map("b", {0x1080, 0x100}, &b));
    EXPECT_TRUE(bus.map("b", {0x1100, 0x100}, &b));
}

TEST(MmioBus, AccountsCyclesDeterministically)
{
    MmioBus bus;
    FakeDevice dev;
    bus.map("dev", {0x0, 0x100}, &dev);
    for (int i = 0; i < 10; ++i)
        bus.write(0x0, i);
    for (int i = 0; i < 5; ++i)
        bus.read(0x0);
    EXPECT_EQ(bus.totalCycles(), 30u); // 15 accesses x 2 cycles

    // Failed accesses cost nothing.
    bus.read(0x5000);
    bus.write(0x5000, 1);
    EXPECT_EQ(bus.totalCycles(), 30u);
}

TEST(MmioBus, OffsetIsWindowRelative)
{
    MmioBus bus;
    FakeDevice dev;
    bus.map("dev", {0x8000, 0x100}, &dev);
    bus.write(0x8010, 7);
    EXPECT_EQ(dev.regs.count(0x8010), 0u);
    EXPECT_EQ(dev.regs[0x10], 7u);
}

} // namespace
} // namespace mem
} // namespace siopmp
