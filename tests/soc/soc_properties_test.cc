/**
 * @file
 * System-level properties: determinism (identical runs produce
 * identical cycle counts and stats), configuration flexibility (§7:
 * the sizing knobs are not fixed) and stats aggregation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "devices/dma_engine.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace soc {
namespace {

struct RunOutcome {
    Cycle cycles;
    std::string stats;
};

RunOutcome
runOnce()
{
    SocConfig cfg;
    cfg.num_masters = 2;
    cfg.checker_kind = iopmp::CheckerKind::PipelineTree;
    cfg.checker_stages = 2;
    Soc soc(cfg);
    dev::DmaEngine a("dma0", 1, soc.masterLink(0));
    dev::DmaEngine b("dma1", 2, soc.masterLink(1));
    soc.add(&a);
    soc.add(&b);

    auto &unit = soc.iopmp();
    unit.cam().set(0, 1);
    unit.cam().set(1, 2);
    unit.src2md().associate(0, 0);
    unit.src2md().associate(1, 0);
    for (MdIndex md = 0; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, 16);
    unit.entryTable().set(
        0, iopmp::Entry::range(0x8000'0000, 0x0100'0000,
                               Perm::ReadWrite));

    dev::DmaJob job;
    job.kind = dev::DmaKind::Copy;
    job.src = 0x8000'0000;
    job.dst = 0x8080'0000;
    job.bytes = 4096;
    job.max_outstanding = 3;
    a.start(job, 0);
    job.src = 0x8010'0000;
    job.dst = 0x8090'0000;
    b.start(job, 0);
    soc.sim().runUntil([&] { return a.done() && b.done(); }, 1'000'000);

    std::ostringstream os;
    stats::TextStatsWriter writer(os);
    soc.accept(writer);
    return {std::max(a.completedAt(), b.completedAt()), os.str()};
}

TEST(SocProperties, RunsAreBitIdentical)
{
    const RunOutcome first = runOnce();
    const RunOutcome second = runOnce();
    EXPECT_EQ(first.cycles, second.cycles);
    EXPECT_EQ(first.stats, second.stats);
}

TEST(SocProperties, StatsDumpCoversComponents)
{
    const RunOutcome outcome = runOnce();
    EXPECT_NE(outcome.stats.find("siopmp.checks"), std::string::npos);
    EXPECT_NE(outcome.stats.find("xbar.a_beats"), std::string::npos);
    EXPECT_NE(outcome.stats.find("memory.read_bursts"),
              std::string::npos);
    EXPECT_NE(outcome.stats.find("checker0.beats_forwarded"),
              std::string::npos);
}

/** §7: the sizing knobs (SIDs, MDs, entries) are parameters, not
 * constants. Every shape must behave correctly. */
struct Shape {
    unsigned entries;
    unsigned sids;
    unsigned mds;
};

std::string
shapeName(const Shape &shape)
{
    return "e" + std::to_string(shape.entries) + "_s" +
           std::to_string(shape.sids) + "_m" + std::to_string(shape.mds);
}

/** Names the shape in test output (gtest would print its bytes). */
void
PrintTo(const Shape &shape, std::ostream *os)
{
    *os << shapeName(shape);
}

class ConfigSweep : public ::testing::TestWithParam<Shape>
{
};

TEST_P(ConfigSweep, AuthorizeWorksAtEveryShape)
{
    const Shape shape = GetParam();
    iopmp::IopmpConfig cfg{shape.entries, shape.sids, shape.mds};
    iopmp::SIopmp unit(cfg, iopmp::CheckerKind::PipelineTree, 2);

    // Pair every hot SID with a distinct MD (round-robin when SIDs
    // exceed MDs, sharing domains like multi-queue devices do).
    const unsigned hot_sids = shape.sids - 1;
    const unsigned hot_mds = shape.mds - 1;
    const unsigned per_md =
        std::max(1u, shape.entries / shape.mds);
    for (MdIndex md = 0; md < shape.mds; ++md) {
        ASSERT_TRUE(unit.mdcfg().setTop(
            md, std::min(shape.entries, (md + 1) * per_md)));
    }
    for (Sid sid = 0; sid < hot_sids; ++sid) {
        const MdIndex md = sid % hot_mds;
        ASSERT_TRUE(unit.src2md().associate(sid, md));
        unit.cam().set(sid, 1000 + sid);
        unit.entryTable().set(
            unit.mdcfg().window(md).lo,
            iopmp::Entry::range(0x8000'0000 + md * 0x10'0000, 0x10'0000,
                                Perm::ReadWrite));
    }

    // Every hot device reaches its own domain and only its own.
    for (Sid sid = 0; sid < hot_sids; ++sid) {
        const MdIndex md = sid % hot_mds;
        const Addr mine = 0x8000'0000 + md * 0x10'0000;
        EXPECT_EQ(unit.authorize(1000 + sid, mine, 64, Perm::Read).status,
                  iopmp::AuthStatus::Allow)
            << sid;
        const MdIndex other = (md + 1) % hot_mds;
        if (other != md && (sid % hot_mds) != other) {
            EXPECT_NE(
                unit.authorize(1000 + sid, 0x8000'0000 + other * 0x10'0000,
                               64, Perm::Read)
                    .status,
                iopmp::AuthStatus::Allow)
                << sid;
        }
    }
    // Unknown devices still miss.
    EXPECT_EQ(unit.authorize(99'999, 0x8000'0000, 64, Perm::Read).status,
              iopmp::AuthStatus::SidMiss);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Values(Shape{32, 4, 3}, Shape{64, 8, 8},
                      Shape{128, 16, 16}, Shape{512, 64, 63},
                      Shape{1024, 64, 63}, Shape{2048, 32, 16},
                      Shape{1024, 16, 63}),
    [](const ::testing::TestParamInfo<Shape> &info) {
        return shapeName(info.param);
    });

} // namespace
} // namespace soc
} // namespace siopmp
