/**
 * @file
 * Secure NIC passthrough: the paper's motivating scenario. A TEE owns
 * a NIC and its packet buffers through the secure monitor's
 * ownership-based interface (Create_TEE / Device_map, Fig 9); the NIC
 * then moves real packets through its descriptor rings at full rate,
 * while a second, attacker-controlled NIC on the same SoC cannot touch
 * the TEE's rings or buffers.
 *
 *   $ ./secure_nic
 */

#include <cstdio>

#include "devices/malicious.hh"
#include "devices/nic.hh"
#include "soc/firmware.hh"
#include "soc/soc.hh"

using namespace siopmp;

namespace {

constexpr DeviceId kNicDevice = 10;
constexpr DeviceId kEvilDevice = 11;
constexpr Addr kTxRing = 0x8800'0000;
constexpr Addr kRxRing = 0x8800'1000;
constexpr Addr kTxBuf = 0x8810'0000;
constexpr Addr kRxBuf = 0x8820'0000;

void
writeDescriptor(mem::Backing &memory, Addr ring, unsigned idx, Addr buffer,
                std::uint64_t len)
{
    memory.write64(ring + idx * dev::NicDescriptor::kBytes, buffer);
    memory.write64(ring + idx * dev::NicDescriptor::kBytes + 8, len);
}

} // namespace

int
main()
{
    // SoC with two master ports: the TEE's NIC and an attacker device.
    soc::SocConfig cfg;
    cfg.num_masters = 2;
    cfg.checker_kind = iopmp::CheckerKind::PipelineTree;
    cfg.checker_stages = 2;
    soc::Soc soc(cfg);

    // Secure monitor with extended table + interrupt service.
    soc::Firmware firmware(soc);
    fw::SecureMonitor &monitor = firmware.monitor();

    // Devices.
    dev::NicConfig nic_cfg;
    nic_cfg.tx_ring = kTxRing;
    nic_cfg.rx_ring = kRxRing;
    dev::Nic nic("nic0", kNicDevice, soc.masterLink(0), nic_cfg);
    dev::MaliciousDevice evil("evil0", kEvilDevice, soc.masterLink(1));
    soc.add(&nic);
    soc.add(&evil);

    // --- Ownership-based setup (Fig 9) --------------------------------
    fw::CapId nic_cap = monitor.registerDevice(kNicDevice);
    fw::CapId evil_cap = monitor.registerDevice(kEvilDevice);
    const fw::OwnerId net_tee = monitor.createTee(
        "net-tee", {0x8800'0000, 0x0100'0000}, {nic_cap});
    const fw::OwnerId evil_tee = monitor.createTee(
        "evil-tee", {0x9800'0000, 0x0010'0000}, {evil_cap});
    std::printf("created TEEs: net=%u evil=%u\n", net_tee, evil_tee);

    // The net TEE maps the NIC's rings and buffers. Each mapping is an
    // IOPMP entry installed under the per-SID block.
    Cycle map_cycles = 0;
    for (auto [base, size, perm] :
         {std::tuple<Addr, Addr, Perm>{kTxRing, 0x2000, Perm::ReadWrite},
          {kTxBuf, 0x1'0000, Perm::Read},
          {kRxBuf, 0x1'0000, Perm::Write}}) {
        auto result =
            monitor.deviceMap(net_tee, kNicDevice, {base, size}, perm);
        if (!result.ok)
            fatal("device_map failed");
        map_cycles += result.cost;
    }
    std::printf("3 device_map calls took %llu CPU cycles total\n",
                static_cast<unsigned long long>(map_cycles));

    // The attacker TEE maps its own scratch region (legitimate).
    monitor.deviceMap(evil_tee, kEvilDevice, {0x9800'0000, 0x1000},
                      Perm::ReadWrite);

    // --- Traffic -------------------------------------------------------
    // Driver posts 4 TX packets and 2 RX buffers.
    for (unsigned i = 0; i < 4; ++i) {
        soc.memory().fill(kTxBuf + i * 0x800, 0x40 + i, 1024);
        writeDescriptor(soc.memory(), kTxRing, i, kTxBuf + i * 0x800,
                        1024);
    }
    for (unsigned i = 0; i < 2; ++i)
        writeDescriptor(soc.memory(), kRxRing, i, kRxBuf + i * 0x800,
                        2048);
    nic.postTx(4);
    nic.postRx(2);
    nic.injectRxPacket(1500, 0xab);
    nic.injectRxPacket(60, 0xcd); // sub-page packet: byte-granular rule

    // Meanwhile the attacker scans the TEE's RX buffers and tampers
    // with its descriptor ring.
    dev::AttackPlan scan;
    scan.kind = dev::AttackKind::ArbitraryScan;
    scan.target_base = kRxBuf;
    scan.target_size = 0x1000;
    scan.probes = 16;
    evil.startAttack(scan, 0);

    soc.sim().runUntil(
        [&] {
            return nic.txPackets() == 4 && nic.rxPackets() == 2 &&
                   evil.done();
        },
        2'000'000);

    std::printf("NIC: tx=%llu packets (%llu bytes), rx=%llu packets "
                "(%llu bytes)\n",
                static_cast<unsigned long long>(nic.txPackets()),
                static_cast<unsigned long long>(nic.txBytes()),
                static_cast<unsigned long long>(nic.rxPackets()),
                static_cast<unsigned long long>(nic.rxBytes()));
    std::printf("attacker: %llu probes denied, %llu words leaked\n",
                static_cast<unsigned long long>(evil.deniedAttacks() +
                                                evil.unflaggedWrites()),
                static_cast<unsigned long long>(evil.leakedWords()));
    std::printf("RX buffer intact: first word = %#llx (expect "
                "0xabab.. pattern)\n",
                static_cast<unsigned long long>(
                    soc.memory().read64(kRxBuf)));

    // --- Teardown: unmap and show the window really closes -------------
    auto &mappings = monitor.tee(net_tee)->mappings();
    const unsigned entry = mappings.front().entry_index;
    monitor.deviceUnmap(net_tee, kNicDevice, entry);
    const auto after =
        soc.iopmp().authorize(kNicDevice, kTxRing, 64, Perm::Read);
    std::printf("after device_unmap, NIC access to its old ring: %s\n",
                after.status == iopmp::AuthStatus::Allow ? "ALLOWED (bug!)"
                                                         : "denied");
    return 0;
}
