/**
 * @file
 * Lifecycle fuzz for the secure monitor: random interleavings of
 * cold-device registration, SID-missing mounts, explicit promotion,
 * demotion and DMA probes. Invariants:
 *
 *  - the monitor never crashes or corrupts its bookkeeping;
 *  - resolveSid() is always consistent with where the device's rules
 *    actually live (CAM row, eSID slot, or nowhere);
 *  - a device's rules survive arbitrarily many hot/cold round trips:
 *    whenever the device is reachable, its window authorizes exactly
 *    the region it was registered with.
 */

#include <gtest/gtest.h>

#include "fw/monitor.hh"
#include "iopmp/siopmp.hh"
#include "mem/memory.hh"
#include "mem/mmio.hh"
#include "sim/random.hh"

namespace siopmp {
namespace fw {
namespace {

constexpr Addr kMmioBase = 0x1000'0000;
constexpr Addr kExtBase = 0x7000'0000;
constexpr unsigned kDevices = 12;

Addr
regionOf(unsigned device_idx)
{
    return 0x9000'0000 + static_cast<Addr>(device_idx) * 0x10'0000;
}

class MonitorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MonitorFuzz, RandomLifecycleKeepsInvariants)
{
    Rng rng(GetParam());
    iopmp::SIopmp unit(iopmp::IopmpConfig{}, iopmp::CheckerKind::Tree, 1);
    mem::MmioBus mmio;
    mem::Backing backing;
    iopmp::ExtendedTable ext(&backing, {kExtBase, 0x10000}, 8);
    SecureMonitor monitor(&unit, &mmio, kMmioBase, &ext, nullptr);
    mmio.map("siopmp", {kMmioBase, iopmp::regmap::kWindowSize}, &unit);
    monitor.init({0x8000'0000, 0x4000'0000}, {kExtBase, 0x10000});

    // Register every device cold with one private region.
    for (unsigned d = 0; d < kDevices; ++d) {
        iopmp::MountRecord record;
        record.esid = 100 + d;
        record.md_bitmap = std::uint64_t{1}
                           << (unit.config().num_mds - 1);
        record.entries.push_back(iopmp::Entry::range(
            regionOf(d), 0x10'0000, Perm::ReadWrite));
        ASSERT_TRUE(monitor.registerColdDevice(record));
    }

    for (int op = 0; op < 600; ++op) {
        const unsigned d = static_cast<unsigned>(rng.below(kDevices));
        const DeviceId device = 100 + d;
        switch (rng.below(4)) {
          case 0: { // DMA probe; mount on miss like the CPU would
            auto result =
                unit.authorize(device, regionOf(d), 64, Perm::Read);
            if (result.status == iopmp::AuthStatus::SidMiss)
                monitor.serviceInterrupts(0);
            break;
          }
          case 1:
            monitor.promoteToHot(device);
            break;
          case 2:
            monitor.demoteToCold(device);
            break;
          default: { // probe a FOREIGN region: must never be allowed
            const unsigned other =
                (d + 1 + static_cast<unsigned>(rng.below(kDevices - 1))) %
                kDevices;
            auto result = unit.authorize(device, regionOf(other), 64,
                                         Perm::Write);
            EXPECT_NE(result.status, iopmp::AuthStatus::Allow)
                << "device " << device << " reached region of "
                << other;
            if (result.status == iopmp::AuthStatus::SidMiss)
                monitor.serviceInterrupts(0);
            break;
          }
        }

        // Invariant: resolveSid agrees with CAM/eSID state.
        for (unsigned check = 0; check < kDevices; ++check) {
            const DeviceId dev = 100 + check;
            auto sid = unit.resolveSid(dev);
            const bool in_cam = unit.cam().peek(dev).has_value();
            const bool mounted = unit.mountedCold() == dev;
            EXPECT_EQ(sid.has_value(), in_cam || mounted) << dev;
            if (in_cam) {
                EXPECT_EQ(*sid, *unit.cam().peek(dev));
            }
        }
    }

    // Closing property: every device, once made reachable, authorizes
    // exactly its own region.
    for (unsigned d = 0; d < kDevices; ++d) {
        const DeviceId device = 100 + d;
        auto probe = unit.authorize(device, regionOf(d), 64, Perm::Read);
        if (probe.status == iopmp::AuthStatus::SidMiss) {
            monitor.serviceInterrupts(0);
            probe = unit.authorize(device, regionOf(d), 64, Perm::Read);
        }
        EXPECT_EQ(probe.status, iopmp::AuthStatus::Allow) << device;
        EXPECT_NE(
            unit.authorize(device, regionOf((d + 1) % kDevices), 64,
                           Perm::Read)
                .status,
            iopmp::AuthStatus::Allow)
            << device;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorFuzz,
                         ::testing::Values(101, 202, 303, 404, 505),
                         [](const auto &info) {
                             return "seed" + std::to_string(info.param);
                         });

} // namespace
} // namespace fw
} // namespace siopmp
