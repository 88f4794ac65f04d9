/**
 * @file
 * Traffic runner implementations.
 */

#include "workloads/traffic.hh"

#include "devices/dma_engine.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace wl {

namespace {

/** Allowed window for the test device; everything else violates. */
constexpr Addr kAllowedBase = 0x8000'0000;
constexpr Addr kAllowedSize = 0x0100'0000;
constexpr Addr kForbiddenBase = 0x9800'0000;

void
bindDevice(soc::Soc &soc, Sid sid, DeviceId device)
{
    auto &unit = soc.iopmp();
    unit.cam().set(sid, device);
    unit.src2md().associate(sid, 0);
    unit.mdcfg().setTop(0, 16);
    for (MdIndex md = 1; md < unit.config().num_mds; ++md)
        unit.mdcfg().setTop(md, 16);
    unit.entryTable().set(
        0, iopmp::Entry::range(kAllowedBase, kAllowedSize,
                               Perm::ReadWrite));
}

} // namespace

Cycle
runBurstLatency(const BurstLatencyConfig &cfg)
{
    soc::SocConfig soc_cfg;
    soc_cfg.checker_kind = cfg.stages > 1
                               ? iopmp::CheckerKind::PipelineTree
                               : iopmp::CheckerKind::Tree;
    soc_cfg.checker_stages = cfg.stages;
    soc_cfg.policy = cfg.policy;
    soc::Soc soc(soc_cfg);

    dev::DmaEngine engine("dma0", /*device=*/1, soc.masterLink(0));
    soc.add(&engine);
    bindDevice(soc, 0, 1);

    dev::DmaJob job;
    job.kind = cfg.write ? dev::DmaKind::Write : dev::DmaKind::Read;
    const Addr target = cfg.violating ? kForbiddenBase : kAllowedBase;
    job.src = target;
    job.dst = target;
    job.bytes = static_cast<std::uint64_t>(cfg.bursts) *
                bus::kBurstBeats * bus::kBeatBytes;
    job.max_outstanding = 1; // worst case: consecutive bursts

    engine.start(job, soc.sim().now());
    soc.sim().runUntil([&] { return engine.done(); }, 1'000'000);
    return engine.completedAt() - engine.startedAt();
}

double
runBandwidth(const BandwidthConfig &cfg)
{
    soc::SocConfig soc_cfg;
    soc_cfg.num_masters = 2;
    soc_cfg.checker_kind = cfg.stages > 1
                               ? iopmp::CheckerKind::PipelineTree
                               : iopmp::CheckerKind::Tree;
    soc_cfg.checker_stages = cfg.stages;
    soc_cfg.policy = cfg.policy;
    soc::Soc soc(soc_cfg);

    dev::DmaEngine node0("dma0", 1, soc.masterLink(0));
    dev::DmaEngine node1("dma1", 2, soc.masterLink(1));
    soc.add(&node0);
    soc.add(&node1);
    bindDevice(soc, 0, 1);
    soc.iopmp().cam().set(1, 2);
    soc.iopmp().src2md().associate(1, 0);

    const std::uint64_t bytes = static_cast<std::uint64_t>(
        cfg.bursts_per_node) * bus::kBurstBeats * bus::kBeatBytes;

    auto make_job = [&](bool write, Addr offset) {
        dev::DmaJob job;
        job.kind = write ? dev::DmaKind::Write : dev::DmaKind::Read;
        job.src = kAllowedBase + offset;
        job.dst = kAllowedBase + 0x80'0000 + offset;
        job.bytes = bytes;
        job.max_outstanding = cfg.max_outstanding;
        return job;
    };

    const bool node0_write = cfg.scenario == BandwidthScenario::WriteWrite;
    const bool node1_write = cfg.scenario != BandwidthScenario::ReadRead;
    node0.start(make_job(node0_write, 0x0), 0);
    node1.start(make_job(node1_write, 0x40'0000), 0);

    soc.sim().runUntil([&] { return node0.done() && node1.done(); },
                       2'000'000);
    const Cycle end =
        std::max(node0.completedAt(), node1.completedAt());
    const Cycle start =
        std::min(node0.startedAt(), node1.startedAt());
    if (end == start)
        return 0.0;
    return static_cast<double>(2 * bytes) /
           static_cast<double>(end - start);
}

} // namespace wl
} // namespace siopmp
