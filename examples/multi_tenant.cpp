/**
 * @file
 * Multi-tenant cloud scenario: many virtual-function devices, few hot
 * at any moment. Demonstrates the mountable IOPMP (§4.2) and the
 * remapping CAM (§4.3):
 *
 *  - 100 virtual functions are registered as cold devices in the
 *    extended IOPMP table — far more than the hardware SID space;
 *  - an accelerator and a DMA engine run hot for two tenants;
 *  - a cold VF's first DMA triggers a SID-missing interrupt and cold
 *    device switching (mount), after which it runs on the eSID slot;
 *  - a VF that keeps being used gets implicitly promoted to a hot
 *    CAM row by the clock-LRU policy;
 *  - cross-tenant accesses are denied throughout.
 *
 *   $ ./multi_tenant
 */

#include <cstdio>
#include <iostream>

#include "devices/accelerator.hh"
#include "devices/dma_engine.hh"
#include "soc/firmware.hh"
#include "soc/soc.hh"

using namespace siopmp;

namespace {

constexpr DeviceId kAccelDevice = 20;
constexpr DeviceId kDmaDevice = 21;
constexpr DeviceId kFirstVf = 1000;
constexpr Addr kTenantABase = 0x8800'0000;
constexpr Addr kTenantBBase = 0x9000'0000;
constexpr Addr kVfBase = 0x9800'0000;

} // namespace

int
main()
{
    soc::SocConfig cfg;
    cfg.num_masters = 3; // accel, dma, one port shared by cold VFs
    soc::Soc soc(cfg);

    soc::Firmware firmware(soc);
    fw::SecureMonitor &monitor = firmware.monitor();

    // --- Tenant A: accelerator; Tenant B: DMA engine -------------------
    fw::CapId accel_cap = monitor.registerDevice(kAccelDevice);
    fw::CapId dma_cap = monitor.registerDevice(kDmaDevice);
    const fw::OwnerId tenant_a = monitor.createTee(
        "tenant-a", {kTenantABase, 0x0080'0000}, {accel_cap});
    const fw::OwnerId tenant_b = monitor.createTee(
        "tenant-b", {kTenantBBase, 0x0080'0000}, {dma_cap});

    monitor.deviceMap(tenant_a, kAccelDevice, {kTenantABase, 0x0080'0000},
                      Perm::ReadWrite);
    monitor.deviceMap(tenant_b, kDmaDevice, {kTenantBBase, 0x0080'0000},
                      Perm::ReadWrite);

    // --- 100 virtual functions registered as cold devices --------------
    for (unsigned vf = 0; vf < 100; ++vf) {
        iopmp::MountRecord record;
        record.esid = kFirstVf + vf;
        record.md_bitmap = std::uint64_t{1}
                           << (soc.iopmp().config().num_mds - 1);
        record.entries.push_back(iopmp::Entry::range(
            kVfBase + vf * 0x1'0000, 0x1'0000, Perm::ReadWrite));
        if (!monitor.registerColdDevice(record))
            fatal("extended table full");
    }
    std::printf("registered 100 cold VFs in the extended table "
                "(hardware has only %u hot SIDs)\n",
                soc.iopmp().cam().numRows());

    // --- Hot tenants run real work --------------------------------------
    dev::Accelerator accel("nvdla0", kAccelDevice, soc.masterLink(0));
    dev::DmaEngine dma("dma0", kDmaDevice, soc.masterLink(1));
    dev::DmaEngine vf_engine("vf", kFirstVf + 7, soc.masterLink(2));
    soc.add(&accel);
    soc.add(&dma);
    soc.add(&vf_engine);

    dev::LayerJob layer;
    layer.weights = kTenantABase;
    layer.inputs = kTenantABase + 0x10'0000;
    layer.outputs = kTenantABase + 0x20'0000;
    layer.tiles = 2;
    layer.tile_bytes = 2048;
    accel.start(layer, 0);

    dev::DmaJob stream;
    stream.kind = dev::DmaKind::Copy;
    stream.src = kTenantBBase;
    stream.dst = kTenantBBase + 0x10'0000;
    stream.bytes = 16384;
    stream.max_outstanding = 4;
    dma.start(stream, 0);

    // Cold VF #7 wakes up: its first DMA mounts it via the eSID slot.
    dev::DmaJob vf_job;
    vf_job.kind = dev::DmaKind::Write;
    vf_job.dst = kVfBase + 7 * 0x1'0000;
    vf_job.bytes = 512;
    vf_engine.start(vf_job, 0);

    soc.sim().runUntil(
        [&] { return accel.done() && dma.done() && vf_engine.done(); },
        5'000'000);

    std::printf("tenant A accelerator: %llu tiles, %llu bytes moved\n",
                static_cast<unsigned long long>(accel.tilesCompleted()),
                static_cast<unsigned long long>(accel.bytesTransferred()));
    std::printf("tenant B DMA: copied %llu bytes\n",
                static_cast<unsigned long long>(dma.bytesTransferred()));
    std::printf("cold VF 1007: done=%d, mounted=%s, SID misses so far="
                "%.0f\n",
                vf_engine.done(),
                soc.iopmp().mountedCold() ? "yes" : "no",
                soc.iopmp().statsGroup().scalar("sid_misses").value());

    // --- Implicit promotion: keep using the VF until it turns hot ------
    for (int round = 0; round < 4 && !monitor.hotSid(kFirstVf + 7);
         ++round) {
        // Another cold VF evicts it from the eSID slot...
        soc.iopmp().authorize(kFirstVf + 8, kVfBase + 8 * 0x1'0000, 64,
                              Perm::Read);
        monitor.serviceInterrupts(soc.sim().now());
        // ...and VF 7's next access misses again, counting toward the
        // promotion threshold.
        soc.iopmp().authorize(kFirstVf + 7, kVfBase + 7 * 0x1'0000, 64,
                              Perm::Read);
        monitor.serviceInterrupts(soc.sim().now());
    }
    if (auto sid = monitor.hotSid(kFirstVf + 7)) {
        std::printf("VF 1007 implicitly promoted to hot SID %u by the "
                    "clock-LRU policy\n", *sid);
    }

    // --- Isolation check -------------------------------------------------
    const auto cross = soc.iopmp().authorize(kAccelDevice, kTenantBBase,
                                             64, Perm::Read);
    std::printf("tenant A device reading tenant B memory: %s\n",
                cross.status == iopmp::AuthStatus::Allow ? "ALLOWED (bug!)"
                                                         : "denied");

    // --- Stats: every component this run touched -------------------------
    std::printf("\nfinal statistics:\n");
    stats::TextStatsWriter writer(std::cout);
    stats::Registry::global().accept(writer);
    return 0;
}
