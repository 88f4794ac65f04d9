/**
 * @file
 * Unit tests for the SIopmp functional top: CAM/eSID resolution,
 * authorization flow, blocking, interrupts and violation latching.
 */

#include <gtest/gtest.h>

#include <vector>

#include "iopmp/siopmp.hh"

namespace siopmp {
namespace iopmp {
namespace {

//! Valid bit of the eSID register.
constexpr std::uint64_t kEsidValid = std::uint64_t{1} << 63;

class SIopmpTest : public ::testing::Test
{
  protected:
    SIopmpTest() : unit(IopmpConfig{64, 64, 63}, CheckerKind::Tree, 1)
    {
        unit.setIrqHandler([this](const Irq &irq) { irqs.push_back(irq); });

        // MD0 owns entries [0, 4); grant it a RW window.
        unit.mdcfg().setTop(0, 4);
        for (MdIndex md = 1; md < 63; ++md)
            unit.mdcfg().setTop(md, md == 62 ? 12u : 4u); // MD62: [4,12)
        unit.entryTable().set(
            0, Entry::range(0x8000'0000, 0x1000, Perm::ReadWrite));

        // Device 7 is hot: CAM row 3, associated with MD0.
        unit.cam().set(3, 7);
        unit.src2md().associate(3, 0);
    }

    IopmpConfig cfg{64, 64, 63};
    SIopmp unit;
    std::vector<Irq> irqs;
};

TEST_F(SIopmpTest, HotDeviceAllowedInItsRegion)
{
    auto r = unit.authorize(7, 0x8000'0000, 64, Perm::Read);
    EXPECT_EQ(r.status, AuthStatus::Allow);
    EXPECT_EQ(r.sid, 3u);
    EXPECT_EQ(r.entry, 0);
    EXPECT_TRUE(irqs.empty());
}

TEST_F(SIopmpTest, HotDeviceDeniedOutsideRegion)
{
    auto r = unit.authorize(7, 0x9000'0000, 64, Perm::Read);
    EXPECT_EQ(r.status, AuthStatus::Deny);
    ASSERT_EQ(irqs.size(), 1u);
    EXPECT_EQ(irqs[0].kind, IrqKind::Violation);
    EXPECT_EQ(irqs[0].device, 7u);
    EXPECT_EQ(irqs[0].addr, 0x9000'0000u);
}

TEST_F(SIopmpTest, UnknownDeviceRaisesSidMissing)
{
    auto r = unit.authorize(999, 0x8000'0000, 64, Perm::Read);
    EXPECT_EQ(r.status, AuthStatus::SidMiss);
    ASSERT_EQ(irqs.size(), 1u);
    EXPECT_EQ(irqs[0].kind, IrqKind::SidMissing);
    EXPECT_EQ(irqs[0].device, 999u);
}

TEST_F(SIopmpTest, MountedColdDeviceUsesColdSid)
{
    // Simulate the monitor's cold switch: eSID register + cold row.
    unit.mmioWrite(regmap::kEsid, kEsidValid | 999);
    unit.src2md().setBitmap(unit.coldSid(), std::uint64_t{1} << 62);
    unit.entryTable().set(
        4, Entry::range(0xa000'0000, 0x1000, Perm::Read));

    auto r = unit.authorize(999, 0xa000'0000, 64, Perm::Read);
    EXPECT_EQ(r.status, AuthStatus::Allow);
    EXPECT_EQ(r.sid, unit.coldSid());
    EXPECT_EQ(r.entry, 4);

    // Cold device cannot write, and cannot touch the hot device's MD0.
    EXPECT_EQ(unit.authorize(999, 0xa000'0000, 64, Perm::Write).status,
              AuthStatus::Deny);
    EXPECT_EQ(unit.authorize(999, 0x8000'0000, 64, Perm::Read).status,
              AuthStatus::Deny);
}

TEST_F(SIopmpTest, ResolveSidCoversHotAndCold)
{
    EXPECT_EQ(unit.resolveSid(7), std::optional<Sid>(3));
    EXPECT_FALSE(unit.resolveSid(999).has_value());
    unit.mmioWrite(regmap::kEsid, kEsidValid | 999);
    EXPECT_EQ(unit.resolveSid(999), std::optional<Sid>(unit.coldSid()));
}

TEST_F(SIopmpTest, BlockedSidStalls)
{
    unit.blockBitmap().block(3);
    auto r = unit.authorize(7, 0x8000'0000, 64, Perm::Read);
    EXPECT_EQ(r.status, AuthStatus::Blocked);
    unit.blockBitmap().unblock(3);
    EXPECT_EQ(unit.authorize(7, 0x8000'0000, 64, Perm::Read).status,
              AuthStatus::Allow);
}

TEST_F(SIopmpTest, BlockingIsPerSid)
{
    // Device 8 on another SID keeps running while SID 3 is blocked.
    unit.cam().set(4, 8);
    unit.src2md().associate(4, 0);
    unit.blockBitmap().block(3);
    EXPECT_EQ(unit.authorize(8, 0x8000'0000, 64, Perm::Read).status,
              AuthStatus::Allow);
}

TEST_F(SIopmpTest, ViolationRecordLatchesFirst)
{
    unit.authorize(7, 0x9000'0000, 8, Perm::Write, /*now=*/5);
    unit.authorize(7, 0x9100'0000, 8, Perm::Read, /*now=*/9);
    auto rec = unit.violationRecord();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->addr, 0x9000'0000u);
    EXPECT_EQ(rec->attempted, Perm::Write);
    EXPECT_EQ(rec->when, 5u);
    unit.mmioWrite(regmap::kErrInfo, 0); // acknowledge
    EXPECT_FALSE(unit.violationRecord().has_value());
}

TEST_F(SIopmpTest, StatsCountOutcomes)
{
    unit.authorize(7, 0x8000'0000, 8, Perm::Read);
    unit.authorize(7, 0x9000'0000, 8, Perm::Read);
    unit.authorize(12345, 0x0, 8, Perm::Read);
    EXPECT_EQ(unit.statsGroup().scalar("checks").value(), 3.0);
    EXPECT_EQ(unit.statsGroup().scalar("allows").value(), 1.0);
    EXPECT_EQ(unit.statsGroup().scalar("denies").value(), 1.0);
    EXPECT_EQ(unit.statsGroup().scalar("sid_misses").value(), 1.0);
}

TEST_F(SIopmpTest, ColdSidIsLastSid)
{
    EXPECT_EQ(unit.coldSid(), 63u);
    EXPECT_EQ(unit.cam().numRows(), 63u); // rows 0..62 are hot
}

TEST(IopmpConfigValidate, RejectsDegenerateSizings)
{
    // Regression: num_sids == 1 used to construct a 0-row CAM and
    // crash deep inside authorize(); now it's a clear config error.
    EXPECT_NE((IopmpConfig{16, 1, 8}.validate()), nullptr);
    EXPECT_NE((IopmpConfig{16, 0, 8}.validate()), nullptr);
    EXPECT_NE((IopmpConfig{0, 16, 8}.validate()), nullptr);
    EXPECT_NE((IopmpConfig{16, 16, 0}.validate()), nullptr);
    EXPECT_NE((IopmpConfig{16, 16, 64}.validate()), nullptr);
    EXPECT_EQ((IopmpConfig{16, 16, 8}.validate()), nullptr);
}

TEST(IopmpConfigValidateDeath, ConstructionFailsFastWithReason)
{
    EXPECT_DEATH(SIopmp(IopmpConfig{16, 1, 8}, CheckerKind::Linear, 1),
                 "num_sids");
}

TEST(IopmpConfigValidate, MinimalTwoSidConfigWorks)
{
    // One hot SID + the reserved cold SID: smallest legal unit.
    SIopmp tiny(IopmpConfig{4, 2, 1}, CheckerKind::Linear, 1);
    EXPECT_EQ(tiny.coldSid(), 1u);
    EXPECT_EQ(tiny.cam().numRows(), 1u);
    tiny.cam().set(0, 9);
    tiny.src2md().associate(0, 0);
    tiny.mdcfg().setTop(0, 4);
    tiny.entryTable().set(0, Entry::range(0x1000, 0x1000, Perm::Read));
    EXPECT_EQ(tiny.authorize(9, 0x1800, 8, Perm::Read).status,
              AuthStatus::Allow);
}

TEST(SIopmpGeometryDeath, UnbuildableCheckerFailsFastWithReason)
{
    // A kind that is not pipelined has one stage, and every kind has
    // at least one.
    const IopmpConfig cfg{16, 16, 8};
    EXPECT_DEATH(SIopmp(cfg, CheckerKind::Tree, 3), "pipelined checker kind");
    EXPECT_DEATH(SIopmp(cfg, CheckerKind::Linear, 2),
                 "pipelined checker kind");
    EXPECT_DEATH(SIopmp(cfg, CheckerKind::Linear, 0), "stages must be >= 1");
    EXPECT_DEATH(SIopmp(cfg, CheckerKind::PipelineTree, 0),
                 "stages must be >= 1");
}

TEST(SIopmpGeometry, UnitHoldsRequestedGeometry)
{
    const SIopmp unit(IopmpConfig{48, 16, 8}, CheckerKind::PipelineLinear,
                      3);
    EXPECT_EQ(unit.geometry().kind, CheckerKind::PipelineLinear);
    EXPECT_EQ(unit.geometry().entries, 48u);
    EXPECT_EQ(unit.geometry().stages, 3u);
    EXPECT_EQ(unit.geometry().extraLatency(), 2u);
}

} // namespace
} // namespace iopmp
} // namespace siopmp
