/**
 * @file
 * Hot/cold workload implementation: drives the full cycle-level SoC
 * with the secure monitor servicing SID-missing interrupts.
 */

#include "workloads/hotcold.hh"

#include <algorithm>

#include "devices/dma_engine.hh"
#include "fw/monitor.hh"
#include "soc/cpu_node.hh"
#include "soc/soc.hh"

namespace siopmp {
namespace wl {

namespace {

constexpr DeviceId kHotDevice = 1;
constexpr DeviceId kColdDevice = 2;
constexpr Addr kHotWindow = 0x8000'0000;
constexpr Addr kColdWindow = 0x8100'0000;
constexpr Addr kWindowSize = 0x0100'0000;
constexpr Addr kExtTableBase = 0x7000'0000;

struct Bench {
    explicit Bench(unsigned masters, fw::MonitorConfig mcfg = {},
                   unsigned ext_record_entries = 8)
        : soc(makeConfig(masters)),
          ext_table(&soc.memory(), {kExtTableBase, 0x10000},
                    ext_record_entries),
          monitor(&soc.iopmp(), &soc.mmio(), soc::kIopmpMmioBase,
                  &ext_table, &soc.monitor(), mcfg),
          cpu("cpu0", &monitor, &soc.iopmp(), &soc.sim())
    {
        monitor.init({0x8000'0000, 0x4000'0000}, {kExtTableBase, 0x10000});
        soc.add(&cpu);
    }

    static soc::SocConfig
    makeConfig(unsigned masters)
    {
        soc::SocConfig cfg;
        cfg.num_masters = masters;
        cfg.checker_kind = iopmp::CheckerKind::PipelineTree;
        cfg.checker_stages = 2;
        return cfg;
    }

    /** Register a device as hot: CAM row + rules in its MD window. */
    void
    makeHot(Sid sid, DeviceId device, Addr window)
    {
        soc.iopmp().cam().set(sid, device);
        auto [lo, hi] = monitor.mdWindow(sid);
        soc.iopmp().entryTable().set(
            lo, iopmp::Entry::range(window, kWindowSize, Perm::ReadWrite));
    }

    /** Register a device as cold: rules only in the extended table. */
    void
    makeCold(DeviceId device, Addr window)
    {
        iopmp::MountRecord record;
        record.esid = device;
        record.md_bitmap = std::uint64_t{1}
                           << (soc.iopmp().config().num_mds - 1);
        for (unsigned i = 0; i < 8; ++i) {
            record.entries.push_back(iopmp::Entry::range(
                window + i * (kWindowSize / 8), kWindowSize / 8,
                Perm::ReadWrite));
        }
        monitor.registerColdDevice(record);
    }

    soc::Soc soc;
    iopmp::ExtendedTable ext_table;
    fw::SecureMonitor monitor;
    soc::CpuNode cpu;
};

constexpr std::uint64_t kBurstBytes =
    static_cast<std::uint64_t>(bus::kBurstBeats) * bus::kBeatBytes;

/** How the two devices are registered for one experiment arm. */
enum class Arm {
    BothHot,    //!< reference: no switching anywhere
    Matched,    //!< hot device hot, cold device via the eSID slot
    Mismatched, //!< both devices (wrongly) cold
};

/**
 * Drive the two-device interleaving (one cold burst per `ratio` hot
 * bursts) and return the hot device's job duration. The reference arm
 * runs the identical traffic pattern with both devices hot, so the
 * percentage isolates switching overhead from plain bus sharing.
 */
Cycle
runArm(const HotColdConfig &cfg, Arm arm, std::uint64_t *switches,
       std::uint64_t *misses)
{
    fw::MonitorConfig mcfg;
    if (arm == Arm::Mismatched)
        mcfg.promote_threshold = ~0u; // the experiment keeps them cold
    Bench bench(2, mcfg);

    switch (arm) {
      case Arm::BothHot:
        bench.makeHot(0, kHotDevice, kHotWindow);
        bench.makeHot(1, kColdDevice, kColdWindow);
        break;
      case Arm::Matched:
        bench.makeHot(0, kHotDevice, kHotWindow);
        bench.makeCold(kColdDevice, kColdWindow);
        break;
      case Arm::Mismatched:
        bench.makeCold(kHotDevice, kHotWindow);
        bench.makeCold(kColdDevice, kColdWindow);
        break;
    }

    dev::DmaEngine hot("hot", kHotDevice, bench.soc.masterLink(0));
    dev::DmaEngine cold("cold", kColdDevice, bench.soc.masterLink(1));
    bench.soc.add(&hot);
    bench.soc.add(&cold);

    dev::DmaJob hot_job;
    hot_job.kind = dev::DmaKind::Read;
    hot_job.src = kHotWindow;
    hot_job.bytes = cfg.hot_bursts * kBurstBytes;
    hot_job.max_outstanding = 4;
    hot.start(hot_job, 0);

    std::uint64_t next_cold_at = cfg.ratio;
    bool cold_active = false;

    auto &sim = bench.soc.sim();
    while (!hot.done() && sim.now() < 200'000'000) {
        if (cold_active && cold.done())
            cold_active = false;
        if (!cold_active && hot.burstsCompleted() >= next_cold_at) {
            dev::DmaJob cold_job;
            cold_job.kind = dev::DmaKind::Read;
            cold_job.src = kColdWindow;
            cold_job.bytes = kBurstBytes;
            cold.start(cold_job, sim.now());
            cold_active = true;
            next_cold_at += cfg.ratio;
        }
        sim.step();
    }

    if (switches)
        *switches = bench.monitor.coldSwitches();
    if (misses) {
        *misses = static_cast<std::uint64_t>(
            bench.soc.iopmp().statsGroup().scalar("sid_misses").value());
    }
    return hot.completedAt() - hot.startedAt();
}

} // namespace

Cycle
coldSwitchCost(unsigned entries)
{
    // Size the cold window and extended-table records to fit the
    // requested entry count.
    fw::MonitorConfig mcfg;
    mcfg.cold_window_entries = std::max(8u, entries);
    Bench bench(1, mcfg, /*ext_record_entries=*/std::max(8u, entries));
    iopmp::MountRecord record;
    record.esid = kColdDevice;
    record.md_bitmap = std::uint64_t{1}
                       << (bench.soc.iopmp().config().num_mds - 1);
    for (unsigned i = 0; i < entries; ++i) {
        record.entries.push_back(iopmp::Entry::range(
            kColdWindow + i * 0x1000, 0x1000, Perm::ReadWrite));
    }
    bench.monitor.registerColdDevice(record);

    // Trigger exactly one SID-missing interrupt and measure the
    // monitor's handling cost (trap + mount).
    bench.soc.iopmp().authorize(kColdDevice, kColdWindow, 64, Perm::Read);
    return bench.monitor.serviceInterrupts(0);
}

HotColdResult
runHotCold(const HotColdConfig &cfg)
{
    HotColdResult result;
    result.baseline_cycles =
        runArm(cfg, Arm::BothHot, nullptr, nullptr);
    result.hot_cycles =
        runArm(cfg, cfg.matched ? Arm::Matched : Arm::Mismatched,
               &result.cold_switches, &result.sid_misses);
    result.hot_throughput_pct =
        result.hot_cycles > 0
            ? 100.0 * static_cast<double>(result.baseline_cycles) /
                  static_cast<double>(result.hot_cycles)
            : 0.0;
    return result;
}

} // namespace wl
} // namespace siopmp
