/**
 * @file
 * Network workload implementation.
 */

#include "workloads/network.hh"

#include <memory>

#include "fw/monitor.hh"
#include "fw/smode_driver.hh"
#include "iommu/iommu.hh"
#include "iopmp/siopmp.hh"
#include "mem/mmio.hh"
#include "swio/bounce.hh"
#include "sim/logging.hh"

namespace siopmp {
namespace wl {

const char *
protectionName(Protection scheme)
{
    switch (scheme) {
      case Protection::None: return "no-protection";
      case Protection::Siopmp: return "sIOPMP";
      case Protection::Siopmp2Pipe: return "sIOPMP-2pipe";
      case Protection::IommuStrict: return "IOMMU-strict";
      case Protection::IommuDeferred: return "IOMMU-deferred";
      case Protection::SiopmpPlusIommu: return "sIOPMP+IOMMU";
      case Protection::Swio: return "SWIO";
    }
    return "?";
}

namespace {

/** Standalone sIOPMP entry-rewrite cost source: a real SIopmp unit
 * behind a real MMIO bus, driven through the monitor's delegation by
 * the S-mode DMA driver — the exact per-packet path a kernel uses. */
class SiopmpCostSource
{
  public:
    SiopmpCostSource()
        : unit_(iopmp::IopmpConfig{}, iopmp::CheckerKind::PipelineTree, 2),
          monitor_(&unit_, &mmio_, 0x1000'0000, nullptr, nullptr),
          driver_(&monitor_, 0, 8)
    {
        mmio_.map("siopmp", {0x1000'0000, iopmp::regmap::kWindowSize},
                  &unit_);
        monitor_.init({0x8000'0000, 0x4000'0000}, {0x7000'0000, 0x1000});
        unit_.cam().set(0, kNicDevice);
    }

    /** dma_map: program one delegated entry for the packet buffer. */
    Cycle
    mapCost(Addr addr, Addr len)
    {
        mapping_ = driver_.dmaMap(addr, len, Perm::ReadWrite);
        SIOPMP_ASSERT(mapping_.ok, "delegated dma_map failed");
        return mapping_.cost;
    }

    /** dma_unmap: reset the entry (single atomic cfg write; no
     * blocking needed for a single-entry disable). */
    Cycle
    unmapCost()
    {
        return driver_.dmaUnmap(mapping_);
    }

  private:
    static constexpr DeviceId kNicDevice = 7;
    iopmp::SIopmp unit_;
    mem::MmioBus mmio_;
    fw::SecureMonitor monitor_;
    fw::SmodeDmaDriver driver_;
    fw::SmodeMapping mapping_;
};

} // namespace

NetworkResult
runNetwork(Protection scheme, const NetworkConfig &cfg)
{
    NetworkResult result;
    result.scheme = scheme;

    const double ops_per_packet =
        cfg.rx ? cfg.rx_ops_per_packet : cfg.tx_ops_per_packet;

    // Scheme state.
    std::unique_ptr<iommu::Iommu> mmu;
    if (scheme == Protection::IommuStrict) {
        mmu = std::make_unique<iommu::Iommu>(iommu::UnmapMode::Strict);
    } else if (scheme == Protection::IommuDeferred ||
               scheme == Protection::SiopmpPlusIommu) {
        mmu = std::make_unique<iommu::Iommu>(iommu::UnmapMode::Deferred);
    }
    std::unique_ptr<SiopmpCostSource> siopmp;
    if (scheme == Protection::Siopmp ||
        scheme == Protection::Siopmp2Pipe ||
        scheme == Protection::SiopmpPlusIommu) {
        siopmp = std::make_unique<SiopmpCostSource>();
    }
    swio::BounceBuffer bounce;

    // Packet loop: accumulate CPU work and overlappable wait.
    double cpu_total = 0.0;
    double wait_total = 0.0;
    Cycle now = 0;
    const Addr buf_base = 0x8800'0000;

    for (unsigned p = 0; p < cfg.packets; ++p) {
        // Fractional ops per packet: issue an op every 1/ops packets.
        const bool do_ops =
            static_cast<std::uint64_t>(p * ops_per_packet) !=
            static_cast<std::uint64_t>((p + 1) * ops_per_packet);
        const Addr buf =
            buf_base + (p % 1024) * iommu::kPageSize;
        Cycle cpu = 0;
        Cycle wait = 0;

        if (do_ops) {
            switch (scheme) {
              case Protection::None:
                break;
              case Protection::Siopmp:
              case Protection::Siopmp2Pipe:
                cpu += siopmp->mapCost(buf, cfg.packet_bytes);
                cpu += siopmp->unmapCost();
                break;
              case Protection::IommuStrict:
              case Protection::IommuDeferred: {
                const unsigned cpu_idx = p % cfg.cores;
                auto map = mmu->dmaMap(1, cpu_idx, cfg.cores);
                cpu += map.cost;
                Cycle unmap_wait = 0;
                const Cycle unmap = mmu->dmaUnmap(map.iova, cpu_idx,
                                                  now + cpu, &unmap_wait);
                cpu += unmap - unmap_wait;
                wait += unmap_wait;
                break;
              }
              case Protection::SiopmpPlusIommu: {
                // IOMMU translates (deferred, cheap); sIOPMP closes the
                // window with its synchronous entry reset.
                const unsigned cpu_idx = p % cfg.cores;
                auto map = mmu->dmaMap(1, cpu_idx, cfg.cores);
                cpu += map.cost;
                Cycle unmap_wait = 0;
                const Cycle unmap = mmu->dmaUnmap(map.iova, cpu_idx,
                                                  now + cpu, &unmap_wait);
                cpu += unmap - unmap_wait;
                wait += unmap_wait;
                cpu += siopmp->mapCost(buf, cfg.packet_bytes);
                cpu += siopmp->unmapCost();
                break;
              }
              case Protection::Swio:
                cpu += bounce.transferCost(cfg.packet_bytes);
                break;
            }
        }

        cpu_total += static_cast<double>(cpu);
        wait_total += static_cast<double>(wait);
        now += cfg.base_cycles_per_packet + cpu;
    }

    const double n = static_cast<double>(cfg.packets);
    result.cpu_cycles_per_packet = cpu_total / n;
    result.wait_cycles_per_packet = wait_total / n;

    // Effective per-packet cost: CPU work divides across cores; the
    // invalidation wait overlaps with other cores' useful work.
    const double base = static_cast<double>(cfg.base_cycles_per_packet);
    const double effective =
        base + result.cpu_cycles_per_packet +
        result.wait_cycles_per_packet / static_cast<double>(cfg.cores);
    result.throughput_pct = 100.0 * base / effective;

    // sIOPMP+IOMMU and plain deferred differ in security, not speed:
    // only the bare deferred mode leaves the attack window open.
    result.attack_window =
        scheme == Protection::IommuDeferred && mmu->staleMappings() > 0;
    return result;
}

std::vector<NetworkResult>
runNetworkSweep(const NetworkConfig &cfg)
{
    std::vector<NetworkResult> results;
    for (Protection scheme :
         {Protection::None, Protection::Siopmp, Protection::Siopmp2Pipe,
          Protection::IommuDeferred, Protection::IommuStrict,
          Protection::SiopmpPlusIommu, Protection::Swio}) {
        results.push_back(runNetwork(scheme, cfg));
    }
    return results;
}

} // namespace wl
} // namespace siopmp
