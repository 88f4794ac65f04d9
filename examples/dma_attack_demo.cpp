/**
 * @file
 * DMA attack walkthrough (§2.1 threat model). Runs the three attack
 * classes against a TEE's memory under both violation-handling
 * mechanisms and prints what the attacker observed:
 *
 *  1. arbitrary scan — classic PCIe/Thunderbolt DMA probing;
 *  2. replay — re-issuing a previously legitimate write after the
 *     mapping was revoked (defeats encryption-only protection);
 *  3. descriptor-ring tamper — the Thunderclap-style shared-structure
 *     attack against another device's ring.
 *
 * Between the replay phases the demo also exercises the §4.1 blocking
 * primitive: the monitor asserts the attacker's SID block bit while a
 * legitimate write is in flight, holds it for a while, then releases
 * it — producing a visible blocking window.
 *
 *   $ ./dma_attack_demo [trace.json]
 *
 * With a path argument, the whole run is traced as Chrome trace-event
 * JSON (load in Perfetto / chrome://tracing); see
 * docs/OBSERVABILITY.md. An argument that starts with '-', or a second
 * argument, prints the usage line and exits 2 without running.
 */

#include <cstdio>
#include <fstream>
#include <memory>

#include "devices/malicious.hh"
#include "sim/trace.hh"
#include "soc/soc.hh"

using namespace siopmp;

namespace {

constexpr DeviceId kAttacker = 66;
constexpr Addr kSecret = 0x9000'0000;
constexpr Addr kWindow = 0x8000'0000;
constexpr Addr kVictimRing = 0x9100'0000;

void
runScenario(iopmp::ViolationPolicy policy)
{
    std::printf("\n=== violation handling: %s ===\n",
                iopmp::violationPolicyName(policy));

    soc::SocConfig cfg;
    cfg.policy = policy;
    soc::Soc soc(cfg);
    dev::MaliciousDevice attacker("evil0", kAttacker, soc.masterLink(0));
    soc.add(&attacker);

    // The attacker legitimately owns a 4 KiB window; the TEE secret
    // and a victim NIC ring live elsewhere.
    auto &iopmp = soc.iopmp();
    iopmp.cam().set(0, kAttacker);
    iopmp.src2md().associate(0, 0);
    for (MdIndex md = 0; md < iopmp.config().num_mds; ++md)
        iopmp.mdcfg().setTop(md, 8);
    iopmp.entryTable().set(
        0, iopmp::Entry::range(kWindow, 0x1000, Perm::ReadWrite));

    for (Addr a = 0; a < 256; a += 8)
        soc.memory().write64(kSecret + a, 0x5ec7'0000 + a);
    soc.memory().write64(kVictimRing, 0x8abc'0000);

    auto attack = [&](const char *name, dev::AttackPlan plan) {
        attacker.startAttack(plan, soc.sim().now());
        soc.sim().runUntil([&] { return attacker.done(); }, 500'000);
        std::printf("  %-18s leaked=%llu denied=%llu\n", name,
                    static_cast<unsigned long long>(
                        attacker.leakedWords()),
                    static_cast<unsigned long long>(
                        attacker.deniedAttacks()));
    };

    // 1. Arbitrary scan over the secret region.
    dev::AttackPlan scan;
    scan.kind = dev::AttackKind::ArbitraryScan;
    scan.target_base = kSecret;
    scan.target_size = 0x1000;
    scan.probes = 32;
    attack("arbitrary-scan", scan);

    // 2. Replay: write legitimately, get revoked, write again.
    dev::AttackPlan replay;
    replay.kind = dev::AttackKind::Replay;
    replay.target_base = kWindow;
    replay.probes = 1;
    attack("write (legal)", replay);
    std::printf("    window word after legal write: %#llx\n",
                static_cast<unsigned long long>(
                    soc.memory().read64(kWindow)));

    // Interlude: the §4.1 blocking primitive. Assert the attacker's
    // SID block bit while a legitimate write is in flight, hold it,
    // then release — the checker records the blocking window.
    iopmp.blockBitmap().block(0);
    attacker.startAttack(replay, soc.sim().now());
    soc.sim().run(1'000); // request stalls at the checker
    iopmp.blockBitmap().unblock(0);
    soc.sim().runUntil([&] { return attacker.done(); }, 500'000);
    std::printf("  blocking windows observed: %llu\n",
                static_cast<unsigned long long>(
                    soc.monitor().blockWindows()));

    iopmp.entryTable().clear(0); // monitor revokes the mapping
    soc.memory().write64(kWindow, 0xc1ea'0000); // region recycled
    attack("write (replayed)", replay);
    std::printf("    window word after replay: %#llx (%s)\n",
                static_cast<unsigned long long>(
                    soc.memory().read64(kWindow)),
                soc.memory().read64(kWindow) == 0xc1ea'0000
                    ? "replay blocked"
                    : "REPLAY SUCCEEDED");

    // 3. Descriptor-ring tamper against the victim device's ring.
    dev::AttackPlan tamper;
    tamper.kind = dev::AttackKind::RingTamper;
    tamper.target_base = kVictimRing;
    tamper.probes = 4;
    attack("ring-tamper", tamper);
    std::printf("    victim descriptor: %#llx (%s)\n",
                static_cast<unsigned long long>(
                    soc.memory().read64(kVictimRing)),
                soc.memory().read64(kVictimRing) == 0x8abc'0000
                    ? "intact"
                    : "TAMPERED");

    std::printf("  checker stats: %.0f checks, %.0f denies\n",
                iopmp.statsGroup().scalar("checks").value(),
                iopmp.statsGroup().scalar("denies").value());
}

} // namespace

int
main(int argc, char **argv)
{
    // One optional argument, the trace path: a flag (--help included)
    // or a second argument is refused before any file is written.
    if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
        std::fprintf(stderr, "usage: dma_attack_demo [trace.json]\n");
        return 2;
    }

    std::ofstream trace_file;
    std::unique_ptr<trace::ChromeTraceSink> sink;
    if (argc > 1) {
        trace_file.open(argv[1]);
        if (!trace_file) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 2;
        }
        sink = std::make_unique<trace::ChromeTraceSink>(trace_file);
        trace::tracer().setSink(sink.get());
    }

    std::printf("sIOPMP DMA attack demonstration\n");
    runScenario(iopmp::ViolationPolicy::BusError);
    runScenario(iopmp::ViolationPolicy::PacketMasking);
    std::printf("\nAll attack classes neutralized under both "
                "mechanisms.\n");

    if (sink) {
        trace::tracer().setSink(nullptr);
        sink->flush();
        std::printf("trace: %llu events -> %s\n",
                    static_cast<unsigned long long>(
                        sink->eventsWritten()),
                    argv[1]);
    }
    return 0;
}
