/**
 * @file
 * Tests pinning the Fig 11 / Fig 12 traffic runners to the paper's
 * shapes (relative orderings and magnitudes, not exact testbed
 * cycles).
 */

#include <gtest/gtest.h>

#include "workloads/traffic.hh"

namespace siopmp {
namespace wl {
namespace {

using iopmp::ViolationPolicy;

Cycle
latency(unsigned stages, ViolationPolicy policy, bool write,
        bool violating = false)
{
    BurstLatencyConfig cfg;
    cfg.stages = stages;
    cfg.policy = policy;
    cfg.write = write;
    cfg.violating = violating;
    return runBurstLatency(cfg);
}

TEST(Fig11Shape, ReadLatencyNearPaperAnchor)
{
    // Paper: ~1510 cycles for 64 bursts, no pipe. Allow +/-10%.
    const Cycle c = latency(1, ViolationPolicy::BusError, false);
    EXPECT_GT(c, 1350u);
    EXPECT_LT(c, 1700u);
}

TEST(Fig11Shape, WriteFasterThanRead)
{
    for (unsigned stages : {1u, 2u, 3u}) {
        EXPECT_LT(latency(stages, ViolationPolicy::BusError, true),
                  latency(stages, ViolationPolicy::BusError, false))
            << stages;
    }
}

TEST(Fig11Shape, EachStageCostsAboutOneCyclePerBurst)
{
    const Cycle p1 = latency(1, ViolationPolicy::BusError, false);
    const Cycle p2 = latency(2, ViolationPolicy::BusError, false);
    const Cycle p3 = latency(3, ViolationPolicy::BusError, false);
    EXPECT_EQ(p2 - p1, 64u);
    EXPECT_EQ(p3 - p2, 64u);
}

TEST(Fig11Shape, MaskingCostsOneExtraCyclePerBurst)
{
    const Cycle be = latency(2, ViolationPolicy::BusError, false);
    const Cycle mask = latency(2, ViolationPolicy::PacketMasking, false);
    EXPECT_EQ(mask - be, 64u);
}

TEST(Fig11Shape, BusErrorTerminatesViolatingReadsEarly)
{
    const Cycle normal = latency(2, ViolationPolicy::BusError, false);
    const Cycle violating =
        latency(2, ViolationPolicy::BusError, false, true);
    EXPECT_LT(violating * 2, normal);
}

TEST(Fig11Shape, MaskingStreamsFullClearedBursts)
{
    // Under masking a violating read takes as long as a legal one.
    const Cycle normal = latency(2, ViolationPolicy::PacketMasking, false);
    const Cycle violating =
        latency(2, ViolationPolicy::PacketMasking, false, true);
    EXPECT_EQ(normal, violating);
}

TEST(Fig11Table, MatchesExperimentsExactly)
{
    // The twelve cells of the EXPERIMENTS.md Fig 11 table: the model is
    // mechanistic, so every cell is pinned to the cycle.
    struct Row {
        const char *name;
        unsigned stages;
        ViolationPolicy policy;
        Cycle read, write, read_viol, write_viol;
    };
    const Row rows[] = {
        {"Nopipe-BusError", 1, ViolationPolicy::BusError,
         1535, 1087, 319, 767},
        {"2pipe-BusError", 2, ViolationPolicy::BusError,
         1599, 1151, 383, 831},
        {"2pipe-Masking", 2, ViolationPolicy::PacketMasking,
         1663, 1215, 1663, 1215},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.name);
        EXPECT_EQ(latency(row.stages, row.policy, false), row.read);
        EXPECT_EQ(latency(row.stages, row.policy, true), row.write);
        EXPECT_EQ(latency(row.stages, row.policy, false, true),
                  row.read_viol);
        EXPECT_EQ(latency(row.stages, row.policy, true, true),
                  row.write_viol);
    }
}

double
bandwidth(BandwidthScenario scenario, unsigned stages,
          ViolationPolicy policy = ViolationPolicy::BusError)
{
    BandwidthConfig cfg;
    cfg.scenario = scenario;
    cfg.stages = stages;
    cfg.policy = policy;
    return runBandwidth(cfg);
}

TEST(Fig12Shape, ReadReadNearPaperAnchor)
{
    const double bpc = bandwidth(BandwidthScenario::ReadRead, 1);
    EXPECT_GT(bpc, 4.8);
    EXPECT_LT(bpc, 5.6); // paper: 5.18
}

TEST(Fig12Shape, WriteScenariosNearBeatWidth)
{
    EXPECT_GT(bandwidth(BandwidthScenario::WriteWrite, 1), 7.5);
    EXPECT_GT(bandwidth(BandwidthScenario::ReadWrite, 1), 7.0);
    // Never above the physical data-port ceiling.
    EXPECT_LE(bandwidth(BandwidthScenario::WriteWrite, 1), 8.0);
    EXPECT_LE(bandwidth(BandwidthScenario::ReadWrite, 1), 8.0);
}

TEST(Fig12Shape, PipelineCostsAtMostTwoPercent)
{
    for (auto scenario :
         {BandwidthScenario::ReadRead, BandwidthScenario::ReadWrite,
          BandwidthScenario::WriteWrite}) {
        const double base = bandwidth(scenario, 1);
        const double piped = bandwidth(scenario, 3);
        EXPECT_GT(piped, base * 0.98)
            << "scenario " << static_cast<int>(scenario);
    }
}

TEST(Fig12Shape, MaskingDoesNotCutBandwidth)
{
    const double be = bandwidth(BandwidthScenario::ReadRead, 2,
                                ViolationPolicy::BusError);
    const double mask = bandwidth(BandwidthScenario::ReadRead, 2,
                                  ViolationPolicy::PacketMasking);
    EXPECT_GT(mask, be * 0.98);
}

} // namespace
} // namespace wl
} // namespace siopmp
